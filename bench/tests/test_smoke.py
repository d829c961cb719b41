"""Self-test of the benchmark at a tiny size (run from the repo root:
``python -m pytest bench/tests -q``; not part of the tier-1 suite).

Every workload runs on a 100-router-budget world with a few hundred
operations, so this checks names, determinism and failure reporting,
not timings.
"""

from __future__ import annotations

import json
import re
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Dict

import pytest

from bench import cli, harness, registry

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")
TINY = ["--cell-budget", "100", "--build-budget", "100"]
TINY_SECONDS = 0.1


def _per_workload(run: Callable[[str], Any]) -> Dict[str, Any]:
    """``run(name)`` for every workload, two at a time: nothing here reads
    a timing, so the one-busy-process rule of a measurement does not apply."""
    names = registry.workload_names()
    with ThreadPoolExecutor(max_workers=2) as pool:
        return dict(zip(names, pool.map(run, names)))


@pytest.fixture(scope="module")
def runs() -> Dict[str, Dict[str, Any]]:
    """Two same-seed repetitions of every workload."""
    return _per_workload(lambda name: harness.run_workload(
        name, seed=1, seconds=TINY_SECONDS, reps=2, extra=TINY))


def test_benchmark_json_matches_registry() -> None:
    declared = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    assert declared == registry.benchmark_json()
    names = ([w["name"] for w in declared["workloads"]]
             + [m["name"] for m in declared["end_to_end"]]
             + [m["name"] for m in declared["per_layer"]])
    assert len(names) == len(set(names))
    assert all(NAME.match(name) and len(name) <= 64 for name in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in declared["workloads"])
    assert "setup_s" in {m["name"] for m in declared["end_to_end"]}


def test_every_end_to_end_metric_is_emitted(runs: Dict[str, Any]) -> None:
    expected = {m.name for m in registry.END_TO_END}
    for name, run in runs.items():
        assert set(run["end_to_end"]) == expected, name
        assert run["failed"] == 0, name
        assert run["end_to_end"]["failed_share"]["value"] == 0.0, name
        for metric in registry.BOUNDED_END_TO_END:
            assert run["end_to_end"][metric.name]["value"] > 0.0, (
                name, metric.name)


def test_same_seed_repeats_and_other_seed_differs(runs: Dict[str, Any]) -> None:
    """The traced process doubles as the other-seed run: tracing must not
    change simulated behaviour, so only the seed can move the digest."""
    expected = {m.name for m in registry.PER_LAYER} - set(registry.CROSS_RUN)
    others = _per_workload(lambda name: harness._child(
        name, 2, TINY_SECONDS / registry.RUN_SECONDS, trace=True, extra=TINY))
    for name, run in runs.items():
        assert run["end_to_end"]["sim_stable"]["value"] == 1.0, name
        other = others[name]
        assert other["sim_digest"] != run["sim_digest"], name
        assert set(other["per_layer"]) == expected, name
        share = other["per_layer"]["bench.attributed_share"]
        assert 0.9 <= share <= 1.0, (name, share)


def test_traced_run_emits_every_per_layer_metric() -> None:
    run = harness.run_traced("traced_ua", seed=1, seconds=TINY_SECONDS,
                             extra=TINY)
    assert set(run["per_layer"]) == {m.name for m in registry.PER_LAYER}
    assert run["per_layer"]["obs.emit_overhead_ratio"]["value"] > 1.0
    assert run["sim_digest"] is not None


def test_dropped_packet_fails_the_command(capsys: pytest.CaptureFixture) -> None:
    code = cli.main(["--workload", "ua_traffic", "--seed", "1",
                     "--seconds", str(TINY_SECONDS), "--trace", "0",
                     "--inject-drop", *TINY])
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert line["correct"] is False
    assert line["failed"] > 0 and line["failed"] / line["attempted"] > 0.0
