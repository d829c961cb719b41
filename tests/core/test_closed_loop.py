"""Tests for the coupled incentives-plus-mechanisms loop."""

import pytest

from repro.core.closed_loop import CoupledEvolution
from repro.core.evolution import EvolvableInternet
from repro.core.incentives import AdoptionModel
from repro.net.errors import DeploymentError
from repro.topogen import InternetSpec

from tests.scenarios import (delivery_always_total_once_deployed,
                             first_deployment_round)


def make_coupled(universal_access=True, seed=2, n_isps=12):
    internet = EvolvableInternet.generate(
        InternetSpec(n_tier1=2, n_tier2=3, n_stub=5, hosts_per_stub=1,
                     seed=seed))
    model = AdoptionModel(n_isps=n_isps, universal_access=universal_access,
                          seed=seed, seeding_prob=0.05)
    return CoupledEvolution(internet, model, sample_pairs=12, seed=seed)


class TestBinding:
    def test_every_agent_bound_to_a_domain(self):
        coupled = make_coupled()
        asns = set(coupled.internet.network.domains)
        assert set(coupled._asn_of_agent.values()) <= asns
        assert len(coupled._asn_of_agent) == len(coupled.model.isps)

    def test_first_mover_becomes_default_isp(self):
        coupled = make_coupled()
        result = coupled.run(rounds=20)
        first_round = first_deployment_round(result)
        assert first_round is not None
        first_asns = next(r.deployed_asns for r in result.rounds
                          if r.round_index == first_round)
        assert coupled.deployment.scheme.default_asn in first_asns

    def test_measure_every_validated(self):
        internet = EvolvableInternet.generate(
            InternetSpec(n_tier1=1, n_tier2=1, n_stub=2, hosts_per_stub=1,
                         seed=0))
        with pytest.raises(DeploymentError):
            CoupledEvolution(internet, AdoptionModel(n_isps=3),
                             measure_every=0)


class TestLoop:
    def test_rounds_recorded(self):
        coupled = make_coupled()
        result = coupled.run(rounds=20)
        assert len(result.rounds) == 20
        assert result.rounds[0].round_index == 1

    def test_universal_access_holds_mechanically(self):
        """The premise the incentive argument assumes is *measured* to
        hold at every round with any deployment."""
        coupled = make_coupled()
        result = coupled.run(rounds=25)
        assert first_deployment_round(result) is not None
        assert delivery_always_total_once_deployed(result)

    def test_deployment_grows_with_model(self):
        coupled = make_coupled()
        result = coupled.run(rounds=30)
        first = first_deployment_round(result)
        assert first is not None
        early = next(r for r in result.rounds if r.round_index == first)
        late = result.final()
        assert len(late.deployed_asns) >= len(early.deployed_asns)
        assert late.deployed_share >= early.deployed_share

    def test_walled_garden_deploys_less(self):
        ua = make_coupled(universal_access=True).run(rounds=30)
        wg = make_coupled(universal_access=False).run(rounds=30)
        assert (len(ua.final().deployed_asns)
                >= len(wg.final().deployed_asns))

    def test_final_requires_rounds(self):
        from repro.core.closed_loop import CoupledResult

        with pytest.raises(DeploymentError):
            CoupledResult().final()
