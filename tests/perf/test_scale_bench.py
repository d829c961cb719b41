"""The scale-tier cell: fast path, install and batching equivalences.

One 300-router power-law internetwork (``repro.topogen.scale``, the
smallest cell the deleted ``repro.perf.scale_bench`` swept) is built,
converged and driven with a fixed set of repeated host-pair flows.  The
bar: the shipped run and a run with the flow fast path held paused walk
the same flows to the same outcomes and see the same probe series; the
installed BGP rows equal the per-prefix oracle; MRAI batching and
per-message sending converge to the same FIBs.  Timing lives in
``bench/``, not here.
"""

import pytest

from repro.core.orchestrator import Orchestrator
from repro.measure import ProbeEngine, ProbePlan, ProbeTarget
from repro.net.packet import ipv4_packet
from repro.topogen.scale import (generate_scale_internet, scale_rng,
                                 spec_for_router_budget)

from tests.oracles import (checked_bgp_installs, per_message_bgp,
                           slow_path_held)

N_ROUTERS = 300
#: rng-stream tag for flow sampling (disjoint from the generator's
#: per-AS streams, which are keyed by ASN).
_FLOW_STREAM = 0x5EED


def build_cell(seed):
    generated = generate_scale_internet(
        spec_for_router_budget(N_ROUTERS, seed=seed))
    orchestrator = Orchestrator(generated.network, seed=seed)
    orchestrator.converge()
    return generated, orchestrator


def sample_flows(hosts, n_flows, seed):
    """A seeded set of ordered host pairs, the same for every leg."""
    rng = scale_rng(_FLOW_STREAM + N_ROUTERS, seed)
    flows = []
    for _ in range(n_flows):
        src = hosts[rng.randrange(len(hosts))]
        dst = hosts[rng.randrange(len(hosts))]
        while dst == src:
            dst = hosts[rng.randrange(len(hosts))]
        flows.append((src, dst))
    return flows


def probe_series(generated, orchestrator):
    """A tiny unicast probe plan: first hosts probe the last ones."""
    hosts, network = generated.hosts, generated.network
    vantages = tuple(hosts[:4])
    plan = ProbePlan(
        vantages=vantages,
        targets=tuple(ProbeTarget(name=h, dst=network.node(h).ipv4)
                      for h in hosts[-2:] if h not in vantages),
        interval=5.0, rounds=3)
    engine = ProbeEngine(orchestrator.scheduler, orchestrator.engine,
                         network, plan)
    engine.arm()
    engine.finish()
    return engine.series()


def run_cell_leg(seed, n_flows, repeats):
    """Build, converge and drive one leg; returns what both legs of a
    comparison must agree on, plus the fast path's own statistics."""
    generated, orchestrator = build_cell(seed)
    network, engine = generated.network, orchestrator.engine
    attempted = delivered = physical_hops = 0
    for src, dst in sample_flows(generated.hosts, n_flows, seed):
        src_ip, dst_ip = network.node(src).ipv4, network.node(dst).ipv4
        for _ in range(repeats):
            trace = engine.forward(ipv4_packet(src_ip, dst_ip), src)
            attempted += 1
            delivered += trace.delivered
            physical_hops += trace.physical_hops
    # Snapshot before probing: hits + misses == attempted is pinned to
    # the traffic loop.
    fastpath_stats = engine.fastpath.stats()
    return {"nodes": len(network.nodes), "ases": len(network.domains),
            "delivery": {"attempted": attempted, "delivered": delivered,
                         "physical_hops": physical_hops},
            "probe_series": probe_series(generated, orchestrator),
            "fastpath": fastpath_stats}


FLOWS, REPEATS = 120, 5


@pytest.fixture(scope="module")
def fast_leg():
    return run_cell_leg(seed=5, n_flows=FLOWS, repeats=REPEATS)


@pytest.fixture(scope="module")
def slow_leg():
    with slow_path_held():
        return run_cell_leg(seed=5, n_flows=FLOWS, repeats=REPEATS)


def test_cell_legs_deliver_identically(fast_leg, slow_leg):
    assert fast_leg["delivery"] == slow_leg["delivery"]
    delivery = fast_leg["delivery"]
    assert delivery["attempted"] == FLOWS * REPEATS
    assert 0 < delivery["delivered"] <= delivery["attempted"]
    # The RTT probe series is unchanged by the fast path, sample for
    # sample, latency included.
    assert fast_leg["probe_series"] == slow_leg["probe_series"]
    assert fast_leg["probe_series"]["probes"] > 0


def test_fastpath_leg_aggregates_repeat_sends(fast_leg):
    stats = fast_leg["fastpath"]
    # Every send is pure IPv4, so each one is a hit or a miss.
    assert stats["hits"] + stats["misses"] == FLOWS * REPEATS
    assert stats["hits"] > 0
    assert stats["packets_aggregated"] >= stats["hits"]
    assert stats["flows"] <= FLOWS


def test_cell_leg_is_deterministic_across_fastpath_setting():
    fast = run_cell_leg(seed=9, n_flows=40, repeats=3)
    with slow_path_held():
        slow = run_cell_leg(seed=9, n_flows=40, repeats=3)
    assert fast["delivery"] == slow["delivery"]
    assert fast["nodes"] == slow["nodes"]
    assert fast["ases"] == slow["ases"]
    # The paused leg never touched the flow cache.
    assert slow["fastpath"]["hits"] == 0
    assert slow["fastpath"]["misses"] == 0


def test_control_plane_leg_proves_install_equivalence():
    with checked_bgp_installs() as installs:
        _, orchestrator = build_cell(seed=5)
    # The initial install was held to the per-prefix oracle (the
    # assertion is inside the block); grouping shaved FIB lookups.
    (oracle,) = installs
    assert any(oracle.rows.values())
    assert 0 < orchestrator.bgp.install_fib_lookups < oracle.lookups
    with per_message_bgp():
        _, per_message = build_cell(seed=5)
    # Batching may only ever remove scheduler events.
    assert (0 < orchestrator.scheduler.events_processed
            <= per_message.scheduler.events_processed)


def test_control_leg_digest_matches_across_modes():
    """Batched and per-message sending (the latter also held to the
    install oracle) converge the cell to the same FIBs, every source."""
    batched, _ = build_cell(seed=9)
    with per_message_bgp(), checked_bgp_installs():
        per_message, _ = build_cell(seed=9)
    for node_id, node in batched.network.nodes.items():
        assert (node.fib4.snapshot()
                == per_message.network.node(node_id).fib4.snapshot())
