"""Tests for the experiment registry (fast paths only; every experiment's
claimed shape is asserted in ``tests/experiments``)."""

import pytest

from repro.net.errors import ReproError
from repro.experiments import ExperimentResult, available, describe, run
from repro.experiments.base import register

ALL_IDS = ["E10", "E11", "E12a", "E12b", "E13a", "E13b", "E14", "E15",
           "E16", "E17", "E5", "E6", "E7", "E8", "E9a", "E9b", "F1", "F2",
           "F3", "F4", "anycast_failover", "rtt_catchment"]


class TestRegistry:
    def test_all_experiments_registered(self):
        # Other test modules may register throwaway workloads (tagged
        # "test") in this process; the built-in suite must match exactly.
        from repro.experiments import all_specs

        ids = [spec.workload_id for spec in all_specs()
               if "test" not in spec.tags]
        assert ids == ALL_IDS
        assert set(ALL_IDS) <= set(available())

    def test_describe(self):
        assert "Figure 1" in describe("F1")

    def test_unknown_id(self):
        with pytest.raises(ReproError):
            run("F99")
        with pytest.raises(ReproError):
            describe("F99")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ReproError):
            register("F1", "duplicate")(lambda seed=0, params=None: None)


class TestResults:
    @pytest.mark.parametrize("experiment_id", ["F1", "F2", "F3", "F4"])
    def test_figures_run_and_format(self, experiment_id):
        result = run(experiment_id)
        assert isinstance(result, ExperimentResult)
        assert result.experiment_id == experiment_id
        table = result.table()
        assert result.header in table
        assert all(row in table for row in result.rows)
        assert result.footer in table

    def test_e8_runs(self):
        result = run("E8")
        assert len(result.data) == 10
        assert result.rows


class TestCliIntegration:
    def test_experiment_list(self, capsys):
        from repro.cli import main

        assert main(["experiment", "--list"]) == 0
        out = capsys.readouterr().out
        for experiment_id in ALL_IDS:
            assert experiment_id in out

    def test_experiment_run(self, capsys):
        from repro.cli import main

        assert main(["experiment", "F1"]) == 0
        out = capsys.readouterr().out
        assert "Figure 1" in out
        assert "C redirected to" in out
