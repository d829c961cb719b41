"""Tests for the deployment scenario engine."""

import pytest

from repro.anycast import DefaultRootedAnycast
from repro.core.deployment import (AdoptionStep, DeploymentSchedule,
                                   ScenarioRunner)
from repro.net.errors import DeploymentError
from repro.vnbone import VnDeployment


@pytest.fixture
def deployment(converged_hub):
    scheme = DefaultRootedAnycast(converged_hub, "ipv8", default_asn=2)
    return VnDeployment(converged_hub, scheme, version=8)


class TestSchedules:
    def test_random_order_covers_all_domains(self, hub_network):
        schedule = DeploymentSchedule.random_order(hub_network, seed=1)
        assert sorted(schedule.asns()) == [1, 2, 3, 4]

    def test_random_order_seeded(self, hub_network):
        a = DeploymentSchedule.random_order(hub_network, seed=1).asns()
        b = DeploymentSchedule.random_order(hub_network, seed=1).asns()
        assert a == b

    def test_core_first_orders_by_tier(self, hub_network):
        schedule = DeploymentSchedule.core_first(hub_network)
        assert schedule.asns()[0] == 1  # the tier-1 hub W leads

    def test_edge_first_reverses(self, hub_network):
        schedule = DeploymentSchedule.edge_first(hub_network)
        assert schedule.asns()[0] != 1

    def test_limit(self, hub_network):
        schedule = DeploymentSchedule.random_order(hub_network, seed=0, limit=2)
        assert len(schedule.asns()) == 2

    def test_explicit(self):
        schedule = DeploymentSchedule.explicit([3, 1], fraction=0.5)
        assert schedule.asns() == [3, 1]
        assert all(step.fraction == 0.5 for step in schedule)

    def test_bad_fraction_rejected(self):
        with pytest.raises(DeploymentError):
            AdoptionStep(asn=1, fraction=0.0)


class TestRunner:
    def test_run_measures_each_step(self, deployment):
        schedule = DeploymentSchedule.explicit([2, 1])
        runner = ScenarioRunner(deployment)

        def probe(step, dep):
            return {"members": len(dep.members())}

        result = runner.run(schedule, probe)
        assert len(result.rows) == 3  # baseline + 2 steps
        assert [row["members"] for row in result.rows] == [0, 2, 4]
        assert result.rows[0]["adopted_asn"] is None
        assert result.rows[1]["adopted_asn"] == 2

    def test_run_without_baseline(self, deployment):
        schedule = DeploymentSchedule.explicit([2])
        result = ScenarioRunner(deployment).run(
            schedule, lambda s, d: {}, measure_baseline=False)
        assert len(result.rows) == 1

    def test_last_row(self, deployment):
        schedule = DeploymentSchedule.explicit([2])
        result = ScenarioRunner(deployment).run(schedule,
                                                lambda s, d: {"x": s})
        assert result.last()["x"] == 1

    def test_empty_result_last_raises(self):
        from repro.core.deployment import ScenarioResult

        with pytest.raises(DeploymentError):
            ScenarioResult().last()

    def test_churn_rolls_domains_back(self, deployment):
        ScenarioRunner(deployment).run(DeploymentSchedule.explicit([2, 1]),
                                       lambda s, d: {})
        deployment.undeploy(2)
        deployment.rebuild()
        assert deployment.adopting_asns() == {1}
