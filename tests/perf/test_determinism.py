"""Cached == re-derived: no cache may ever change an answer.

Every scenario runs under ``paranoid_caches`` (``tests/oracles.py``):
each cache hit — path cache, egress cache, delay trees, vN-Bone SPF
trees kept or grown — and each router or ``refresh()`` the IGP gates
skip is re-derived from scratch on the spot and compared.  A run that
finishes has therefore given exactly the answers an uncached, ungated
run gives; its payload must also equal the plain run's, which shows the
checking itself perturbs nothing.
"""

import pytest

from tests.scenarios import (SCENARIO_IDS, SCENARIOS,
                             SWEEP_ADOPTION_STAGES, fault_epoch,
                             reachability_sweep, run_leg)


@pytest.fixture(scope="module")
def plain_payloads():
    """Each scenario's payload with no patch applied (module-scoped, so
    set up before any function-scoped ``paranoid_caches``)."""
    return {name: run_leg(scenario, seed=7).payload
            for name, scenario in SCENARIOS}


@pytest.mark.parametrize("name,scenario", SCENARIOS, ids=SCENARIO_IDS)
def test_cached_leg_matches_uncached_leg(name, scenario, plain_payloads,
                                         paranoid_caches):
    leg = run_leg(scenario, seed=7)
    assert leg.payload == plain_payloads[name]
    # Not vacuous: every hit the run's own counters saw was re-derived.
    assert paranoid_caches["PathCache"] == \
        leg.counter("perf.path_cache.hits")
    assert paranoid_caches["igp_install"] == \
        leg.counter("igp.install.routers_skipped") > 0
    # A domain's refresh is skipped from its second quiet scan on: only
    # the sweep reconverges often enough to get there.
    assert paranoid_caches["igp_refresh"] == \
        leg.counter("igp.refresh.skipped")
    if name == "reachability_sweep":
        assert paranoid_caches["igp_refresh"] > 0
        # Each adoption stage only adds tunnels: its trees grow in place.
        assert paranoid_caches["vn_grown"] == SWEEP_ADOPTION_STAGES
    assert paranoid_caches["EgressCache"] == \
        leg.counter("perf.bgp.egress_cache.hits") > 0
    # Every vN-Bone compute that did not sweep in full was re-derived:
    # those over an unchanged tunnel graph are the cache hits, the rest
    # grew their trees over added tunnels.
    assert paranoid_caches["vn_routing"] == (
        leg.counter("vnbone.spf_cache_hits") + paranoid_caches["vn_grown"])
    # Every (member, prefix) row a vN-Bone compute left unvisited.
    assert paranoid_caches["vn_fib"] == (
        paranoid_caches["vn_rows"] - leg.counter("vnbone.fib.rows_visited"))


def test_fault_epoch_exercises_cache_invalidation(paranoid_caches):
    leg = run_leg(fault_epoch, seed=7)
    # Crash + recovery moved the topology version, so the path cache
    # must have been flushed at least twice while still being used.
    assert leg.counter("perf.path_cache.invalidations") >= 2
    assert paranoid_caches["PathCache"] == \
        leg.counter("perf.path_cache.hits") > 0


def test_same_seed_same_leg_is_reproducible():
    a = run_leg(reachability_sweep, seed=3)
    b = run_leg(reachability_sweep, seed=3)
    assert a.payload == b.payload
    assert a.counter("perf.dijkstra_runs") == b.counter("perf.dijkstra_runs")
