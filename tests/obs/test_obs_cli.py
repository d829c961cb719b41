"""The ``python -m repro obs`` subcommand."""

import json

import pytest

from repro.cli import _SELF_CHECK_COUNTERS, _SELF_CHECK_SPANS, main


@pytest.mark.slow
class TestObsCommand:
    def test_traced_run_prints_summary_and_valid_trace(self, tmp_path, capsys):
        trace = str(tmp_path / "run.jsonl")
        code = main(["obs", "anycast_failover", "--trace", trace,
                     "--seed", "7"])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["experiment_id"] == "anycast_failover"
        assert summary["seed"] == 7
        assert summary["trace_valid"] is True
        assert summary["trace_path"] == trace
        counters = summary["metrics"]["counters"]
        assert counters["scheduler.events_fired"] > 0
        assert counters["igp.ls.spf_runs"] > 0
        assert counters["forwarding.outcome.delivered"] > 0
        # The file really is line-delimited JSON with the run header.
        first = json.loads((tmp_path / "run.jsonl").read_text()
                           .splitlines()[0])
        assert first["kind"] == "run.start"
        assert first["context"]["experiment"] == "anycast_failover"

    def test_params_thread_through(self, tmp_path, capsys):
        code = main(["obs", "anycast_failover", "--seed", "7",
                     "--param", "pairs=6"])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["params"] == {"pairs": 6}
        assert summary["data"]["final"]["attempted"] == 6

    def test_self_check(self, capsys):
        assert main(["obs", "--self-check"]) == 0
        status = json.loads(capsys.readouterr().out)
        assert status["ok"] is True
        assert status["trace_events"] > 0
        assert status["hops_at"] > 0
        assert status["counters_checked"] == list(_SELF_CHECK_COUNTERS)
        assert status["spans"] == sum(status["span_kinds"].values())
        assert all(status["span_kinds"].get(name, 0) > 0
                   for name in _SELF_CHECK_SPANS)
        assert "errors" not in status


class TestObsCommandFastPaths:
    def test_list(self, capsys):
        assert main(["obs", "--list"]) == 0
        out = capsys.readouterr().out
        assert "anycast_failover" in out

    def test_no_id_is_an_error(self, capsys):
        assert main(["obs"]) == 2

    def test_bad_param_syntax(self):
        with pytest.raises(SystemExit):
            main(["obs", "anycast_failover", "--param", "nonsense"])
