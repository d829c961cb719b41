"""Tests for the adoption-dynamics model (the Section 2.1 argument)."""

import pytest

from repro.core.incentives import (AdoptionModel, AdoptionTrajectory,
                                   compare_access_models)
from repro.net.errors import ReproError


class TestModelBasics:
    def test_needs_isps(self):
        with pytest.raises(ValueError) as raised:
            AdoptionModel(n_isps=0)
        assert isinstance(raised.value, ReproError)

    def test_market_shares_sum_to_one(self):
        model = AdoptionModel(n_isps=10, seed=1)
        assert sum(isp.market_share for isp in model.isps) == pytest.approx(1.0)

    def test_deterministic_for_seed(self):
        a = AdoptionModel(n_isps=20, seed=3).run(40)
        b = AdoptionModel(n_isps=20, seed=3).run(40)
        assert a.deployed_share == b.deployed_share
        assert a.demand == b.demand

    def test_trajectory_lengths(self):
        trajectory = AdoptionModel(n_isps=5, seed=0).run(25)
        assert len(trajectory.demand) == 25
        assert len(trajectory.deployed_share) == 25
        assert len(trajectory.deployed_count) == 25

    def test_demand_bounded(self):
        trajectory = AdoptionModel(n_isps=10, seed=2).run(80)
        assert all(0.0 <= d <= 1.0 for d in trajectory.demand)

    def test_share_monotone_nondecreasing(self):
        trajectory = AdoptionModel(n_isps=15, seed=4).run(60)
        shares = trajectory.deployed_share
        assert all(a <= b + 1e-12 for a, b in zip(shares, shares[1:]))


class TestVirtuousCycle:
    def test_universal_access_reaches_saturation(self):
        trajectory = AdoptionModel(n_isps=30, universal_access=True,
                                   seed=0).run(80)
        assert trajectory.final_share() > 0.9
        assert trajectory.final_demand() > 0.9

    def test_walled_garden_stalls(self):
        trajectory = AdoptionModel(n_isps=30, universal_access=False,
                                   seed=0).run(80)
        assert trajectory.final_share() < 0.5

    def test_ua_beats_walled_garden_across_seeds(self):
        for seed in range(5):
            result = compare_access_models(n_isps=30, rounds=80, seed=seed)
            ua = result["universal_access"].final_share()
            wg = result["walled_garden"].final_share()
            assert ua > wg, (seed, ua, wg)

    def test_rounds_to_share(self):
        trajectory = AdoptionModel(n_isps=30, universal_access=True,
                                   seed=0).run(80)
        halfway = trajectory.rounds_to_share(0.5)
        assert halfway is not None
        assert trajectory.rounds_to_share(2.0) is None

    def test_no_seeding_no_ua_frozen(self):
        model = AdoptionModel(n_isps=20, universal_access=False,
                              seeding_prob=0.0, seed=0)
        trajectory = model.run(60)
        assert trajectory.final_share() == 0.0
        assert trajectory.final_demand() == 0.0

    def test_empty_trajectory_defaults(self):
        trajectory = AdoptionTrajectory()
        assert trajectory.final_share() == 0.0
        assert trajectory.final_demand() == 0.0
