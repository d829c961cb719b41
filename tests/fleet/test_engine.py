"""The sweep engine: determinism across worker counts, isolation,
caching, per-cell traces, the ``repro.fleet/v1`` document, and the CLI."""

import json

import pytest

from repro.fleet import (FLEET_SCHEMA, FleetMatrix, execute_cell,
                         fleet_to_json, run_fleet, validate_fleet_dict,
                         write_fleet)
from repro.net.errors import FleetError
from repro.obs import validate_trace

from tests.fleet._workloads import CRASH_ID, PROBE_ID

IMPORTS = ["tests.fleet._workloads"]


def probe_matrix(**overrides):
    doc = {"workloads": [PROBE_ID], "base_seed": 11,
           "axes": {"scale": [1, 3], "offset": [0, 10]}, "repeats": 2,
           "imports": IMPORTS}
    doc.update(overrides)
    return FleetMatrix.from_dict(doc)


class TestExecuteCell:
    def test_ok_record_carries_a_valid_artifact(self):
        cell = probe_matrix().cells()[0]
        record = execute_cell(cell, imports=IMPORTS)
        assert record["ok"] is True
        assert record["error"] is None
        artifact = record["artifact"]
        assert artifact["seed"] == cell.seed
        assert artifact["data"]["value"] == (cell.seed * 1 + 0) % 9973
        assert artifact["trace_path"] is None

    def test_crash_is_contained(self):
        cell = FleetMatrix.from_dict(
            {"workload": CRASH_ID, "imports": IMPORTS}).cells()[0]
        record = execute_cell(cell, imports=IMPORTS)
        assert record["ok"] is False
        assert record["artifact"] is None
        assert record["error"] == (
            f"RuntimeError: injected cell failure (seed={cell.seed})")

    def test_traced_cell_writes_a_valid_stream(self, tmp_path):
        cell = probe_matrix().cells()[0]
        record = execute_cell(cell, imports=IMPORTS,
                              traces_dir=str(tmp_path / "traces"))
        assert record["artifact"]["trace_path"] == f"{cell.name}.jsonl"
        trace = tmp_path / "traces" / f"{cell.name}.jsonl"
        assert trace.exists()
        assert validate_trace(str(trace)) == []


class TestDeterminism:
    def test_workers_1_and_2_merge_byte_identically(self):
        matrix = probe_matrix()
        serial = fleet_to_json(run_fleet(matrix, workers=1))
        fanned = fleet_to_json(run_fleet(matrix, workers=2))
        assert serial == fanned

    def test_report_contains_no_wall_metrics(self):
        doc = run_fleet(probe_matrix(repeats=1), workers=1)
        assert "wall_" not in fleet_to_json(doc)

    def test_base_seed_changes_every_cell(self):
        values_a = [c["artifact"]["data"]["value"]
                    for c in run_fleet(probe_matrix(), workers=1)["cells"]]
        values_b = [c["artifact"]["data"]["value"]
                    for c in run_fleet(probe_matrix(base_seed=12),
                                       workers=1)["cells"]]
        assert values_a != values_b


class TestIsolation:
    def test_crashing_cells_do_not_abort_the_sweep(self):
        matrix = FleetMatrix.from_dict(
            {"workloads": [PROBE_ID, CRASH_ID], "base_seed": 3,
             "repeats": 2, "imports": IMPORTS})
        doc = run_fleet(matrix, workers=2)
        assert doc["totals"] == {
            "cells": 4, "ok": 2, "failed": 2,
            "by_workload": {
                CRASH_ID: {"cells": 2, "ok": 0, "failed": 2},
                PROBE_ID: {"cells": 2, "ok": 2, "failed": 0}}}
        for record in doc["cells"]:
            if not record["ok"]:
                assert record["error"].startswith("RuntimeError:")
        assert validate_fleet_dict(doc) == []

    def test_preflight_rejects_unknown_workloads(self):
        matrix = FleetMatrix.from_dict({"workload": "no_such_workload"})
        with pytest.raises(FleetError, match="registry"):
            run_fleet(matrix)

    def test_bad_worker_count_rejected(self):
        with pytest.raises(FleetError, match="workers"):
            run_fleet(probe_matrix(), workers=0)


class TestCache:
    def test_resume_merges_identically(self, tmp_path):
        matrix = probe_matrix()
        cache = str(tmp_path / "cache")
        cold = run_fleet(matrix, workers=2, cache_dir=cache)
        cached = (tmp_path / "cache" / matrix.spec_hash()).glob("*.json")
        assert len(list(cached)) == len(matrix.cells())
        warm = run_fleet(matrix, workers=1, cache_dir=cache)
        assert fleet_to_json(cold) == fleet_to_json(warm)

    def test_corrupt_cache_entries_are_recomputed(self, tmp_path):
        matrix = probe_matrix(repeats=1)
        cache = str(tmp_path / "cache")
        cold = run_fleet(matrix, workers=1, cache_dir=cache)
        victim = (tmp_path / "cache" / matrix.spec_hash()
                  / "cell-0000.json")
        victim.write_text("{corrupt")
        again = run_fleet(matrix, workers=1, cache_dir=cache)
        assert fleet_to_json(cold) == fleet_to_json(again)

    @pytest.mark.parametrize("damage", [
        lambda record: b"\xff\xfe not utf-8",
        lambda record: "[]",
        # Truncated to the two fields the loader used to look at.
        lambda record: json.dumps({"name": record["name"],
                                   "seed": record["seed"]}),
        lambda record: json.dumps({**record, "workload_id": 7}),
        lambda record: json.dumps({**record, "ok": "yes"}),
        lambda record: json.dumps({**record, "artifact": None}),
        lambda record: json.dumps({**record, "artifact": {"rows": 3}}),
        lambda record: json.dumps({**record, "ok": False}),
    ], ids=["bad-utf8", "not-an-object", "truncated",
            "wrong-type", "ok-not-bool", "ok-without-artifact",
            "malformed-artifact", "failed-without-error"])
    def test_malformed_cache_records_are_recomputed(self, tmp_path, damage):
        matrix = probe_matrix(repeats=1)
        cache = str(tmp_path / "cache")
        cold = run_fleet(matrix, workers=1, cache_dir=cache)
        victim = (tmp_path / "cache" / matrix.spec_hash()
                  / "cell-0000.json")
        intact = victim.read_bytes()
        damaged = damage(json.loads(intact))
        victim.write_bytes(damaged if isinstance(damaged, bytes)
                           else damaged.encode())
        again = run_fleet(matrix, workers=1, cache_dir=cache)
        assert fleet_to_json(cold) == fleet_to_json(again)
        assert victim.read_bytes() == intact  # rewritten, not left behind

    def test_editing_the_matrix_misses_the_cache(self, tmp_path):
        cache = str(tmp_path / "cache")
        run_fleet(probe_matrix(), workers=1, cache_dir=cache)
        run_fleet(probe_matrix(base_seed=12), workers=1, cache_dir=cache)
        assert len(list((tmp_path / "cache").iterdir())) == 2


class TestDocument:
    def test_envelope(self, tmp_path):
        matrix = probe_matrix(repeats=1)
        doc = run_fleet(matrix, workers=1)
        assert doc["schema"] == FLEET_SCHEMA
        assert doc["matrix"] == matrix.to_dict()
        assert doc["spec_hash"] == matrix.spec_hash()
        out = tmp_path / "FLEET.json"
        write_fleet(doc, str(out))
        assert json.loads(out.read_text()) == doc
        assert out.read_text() == fleet_to_json(doc)

    def test_validator_catches_tampering(self):
        doc = run_fleet(probe_matrix(repeats=1), workers=1)
        assert validate_fleet_dict(doc) == []
        assert validate_fleet_dict([]) != []
        tampered = json.loads(fleet_to_json(doc))
        tampered["totals"]["ok"] += 1
        assert any("totals.ok" in e for e in validate_fleet_dict(tampered))
        reordered = json.loads(fleet_to_json(doc))
        reordered["cells"].reverse()
        assert any("out of order" in e
                   for e in validate_fleet_dict(reordered))
        broken = json.loads(fleet_to_json(doc))
        del broken["cells"][0]["artifact"]["seed"]
        assert any("artifact.seed" in e for e in validate_fleet_dict(broken))


class TestCli:
    def write_matrix(self, tmp_path, doc):
        path = tmp_path / "matrix.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_fleet_command_is_deterministic_across_workers(self, tmp_path,
                                                           capsys):
        from repro.cli import main

        matrix = self.write_matrix(tmp_path, probe_matrix().to_dict())
        out1, out2 = str(tmp_path / "w1.json"), str(tmp_path / "w2.json")
        assert main(["fleet", "--matrix", matrix, "--out", out1,
                     "--quiet"]) == 0
        assert main(["fleet", "--matrix", matrix, "--workers", "2",
                     "--out", out2, "--quiet"]) == 0
        assert (tmp_path / "w1.json").read_bytes() == \
            (tmp_path / "w2.json").read_bytes()
        report = json.loads((tmp_path / "w1.json").read_text())
        assert report["totals"]["ok"] == 8

    def test_failed_cells_exit_1(self, tmp_path, capsys):
        from repro.cli import main

        matrix = self.write_matrix(tmp_path, {
            "workload": CRASH_ID, "imports": IMPORTS})
        assert main(["fleet", "--matrix", matrix,
                     "--out", str(tmp_path / "f.json"), "--quiet"]) == 1

    def test_malformed_matrix_exits_2(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["fleet", "--matrix", str(tmp_path / "missing.json"),
                     "--quiet"]) == 2
        assert "fleet:" in capsys.readouterr().err
