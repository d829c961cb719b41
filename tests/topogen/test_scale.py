"""Scale-tier generator: power-law shape, connectivity, determinism.

The satellite contract for ``repro.topogen.scale``:

* the transit core's degree distribution has a power-law tail (a few
  hypergiants hold a disproportionate share of AS-level edges);
* no AS is isolated — every domain has at least one inter-domain
  relationship, and host-to-host delivery works across the fringe;
* the generated network is a pure function of the spec, including
  across *processes* (fixed-seed determinism, rule D1);
* default-routed stubs stay out of BGP entirely.
"""

import itertools
import json
import subprocess
import sys

import pytest

from repro.core.orchestrator import Orchestrator
from repro.net.errors import TopologyError
from repro.net.packet import ipv4_packet
from repro.net.serialize import network_from_dict, network_to_dict
from repro.topogen.scale import (GeneratedScaleInternet, ScaleSpec,
                                 generate_scale_internet, scale_rng,
                                 spec_for_router_budget)


@pytest.fixture(scope="module")
def gen():
    return generate_scale_internet(ScaleSpec(n_transit=30, n_stub=300, seed=7))


class TestShape:
    def test_counts_match_spec(self, gen):
        spec = gen.spec
        stats = gen.network.stats()
        assert len(gen.transit) == spec.n_transit
        assert len(gen.stubs) == spec.n_stub
        assert stats["routers"] == (spec.n_transit * spec.routers_transit
                                    + spec.n_stub * spec.routers_stub)
        assert stats["hosts"] == spec.n_stub * spec.hosts_per_stub

    def test_degree_distribution_has_power_law_tail(self, gen):
        degrees = sorted((len(gen.network.domains[asn].relationships)
                          for asn in gen.transit),
                         reverse=True)
        # Heavy tail, not a flat profile: the top AS dominates the
        # median, and the top decile holds an outsized edge share.
        median = degrees[len(degrees) // 2]
        assert degrees[0] >= 4 * max(1, median)
        top = max(1, len(degrees) // 10)
        assert sum(degrees[:top]) >= 0.25 * sum(degrees)

    def test_no_isolated_ases(self, gen):
        for asn in gen.transit + gen.stubs:
            assert gen.network.domains[asn].relationships, \
                f"AS{asn} is isolated"

    def test_stub_prefixes_nest_inside_provider_aggregate(self, gen):
        for stub_asn, (_, provider_asn, _) in sorted(gen.uplinks.items()):
            stub = gen.network.domains[stub_asn]
            provider = gen.network.domains[provider_asn]
            assert stub.prefix.plen == 24
            assert provider.prefix.contains(stub.prefix)

    def test_spec_validation_rejects_bad_shapes(self):
        with pytest.raises(TopologyError):
            generate_scale_internet(ScaleSpec(n_transit=2, t1_clique=3))
        with pytest.raises(TopologyError):
            generate_scale_internet(ScaleSpec(n_transit=1, n_stub=500))
        with pytest.raises(TopologyError):
            spec_for_router_budget(10)

    def test_spec_validation_rejects_more_transit_than_addresses(self):
        """Transit /16s run from 20.0.0.0 to the top of IPv4 space: 60 416
        fit.  One more is refused up front, naming the limit, instead of
        failing mid-generation on an out-of-range address."""
        shape = dict(n_stub=1, routers_transit=1, routers_stub=1, m_attach=1)
        ScaleSpec(n_transit=60416, **shape).validate()
        with pytest.raises(TopologyError, match="capacity of 60416 transit"):
            ScaleSpec(n_transit=60417, **shape).validate()
        with pytest.raises(TopologyError, match="transit /16s"):
            spec_for_router_budget(4_000_000).validate()


class TestDefaultRoutedFringe:
    def test_stubs_are_default_routed_and_transit_is_not(self, gen):
        for asn in gen.stubs:
            assert gen.network.domains[asn].default_routed
        for asn in gen.transit:
            assert not gen.network.domains[asn].default_routed

    def test_bgp_speakers_exist_only_for_transit(self, gen):
        orch = Orchestrator(gen.network, seed=7)
        assert sorted(orch.bgp.speakers) == gen.transit
        orch.converge()
        for asn in gen.transit:
            # Transit loc-ribs never carry stub /24s — stubs ride the
            # provider aggregate plus static routes.
            for prefix in orch.bgp.speaker(asn).loc_rib:
                assert prefix.plen == 16

    def test_cross_stub_delivery(self, gen):
        orch = Orchestrator(gen.network, seed=7)
        orch.converge()
        net = gen.network
        hosts = gen.hosts
        pairs = list(itertools.islice(
            itertools.combinations(hosts[:40], 2), 150))
        for a, b in pairs:
            trace = orch.forward(
                ipv4_packet(net.node(a).ipv4, net.node(b).ipv4), a,
                strict=True)
            assert trace.delivered, f"{a} -> {b} failed"


class TestDeterminism:
    def test_same_seed_same_network(self):
        spec = ScaleSpec(n_transit=10, n_stub=60, seed=11)
        a = network_to_dict(generate_scale_internet(spec).network)
        b = network_to_dict(generate_scale_internet(spec).network)
        assert a == b

    def test_different_seed_different_network(self):
        a = network_to_dict(generate_scale_internet(
            ScaleSpec(n_transit=10, n_stub=60, seed=1)).network)
        b = network_to_dict(generate_scale_internet(
            ScaleSpec(n_transit=10, n_stub=60, seed=2)).network)
        assert a != b

    def test_deterministic_across_processes(self):
        script = (
            "import json, sys;"
            "from repro.topogen.scale import ScaleSpec, generate_scale_internet;"
            "from repro.net.serialize import network_to_dict;"
            "net = generate_scale_internet(ScaleSpec(n_transit=8, n_stub=40,"
            " seed=5)).network;"
            "json.dump(network_to_dict(net), sys.stdout, sort_keys=True)"
        )
        runs = [subprocess.run([sys.executable, "-c", script],
                               capture_output=True, text=True, check=True)
                for _ in range(2)]
        assert runs[0].stdout == runs[1].stdout
        here = network_to_dict(generate_scale_internet(
            ScaleSpec(n_transit=8, n_stub=40, seed=5)).network)
        assert json.loads(runs[0].stdout) == json.loads(
            json.dumps(here, sort_keys=True))

    def test_per_as_streams_are_independent(self):
        # Same (asn, seed) -> same stream; different asn -> different.
        assert scale_rng(3, 9).random() == scale_rng(3, 9).random()
        assert scale_rng(3, 9).random() != scale_rng(4, 9).random()

    def test_serialize_round_trip_preserves_default_routed(self, gen):
        doc = network_to_dict(gen.network)
        rebuilt = network_from_dict(doc)
        for asn in gen.stubs[:10]:
            assert rebuilt.domains[asn].default_routed
        assert network_to_dict(rebuilt) == doc
