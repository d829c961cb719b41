"""Round-trip tests for topology serialization."""

import json

import pytest

from repro.net import Network, ipv4_packet
from repro.net.errors import TopologyError
from repro.net.serialize import (load_network, network_from_dict,
                                 network_to_dict, save_network)
from repro.core.orchestrator import Orchestrator
from repro.topogen import InternetSpec, generate_internet
from tests.conftest import build_hub_network


def roundtrip(network: Network) -> Network:
    return network_from_dict(network_to_dict(network))


class TestRoundTrip:
    def test_stats_preserved(self):
        original = build_hub_network()
        clone = roundtrip(original)
        assert clone.stats() == original.stats()

    def test_addresses_preserved(self):
        original = build_hub_network()
        clone = roundtrip(original)
        for node_id, node in original.nodes.items():
            assert clone.node(node_id).ipv4 == node.ipv4
            assert clone.node(node_id).domain_id == node.domain_id

    def test_relationships_preserved(self):
        original = build_hub_network()
        clone = roundtrip(original)
        for asn, domain in original.domains.items():
            assert clone.domains[asn].relationships == domain.relationships
            assert clone.domains[asn].tier == domain.tier

    def test_link_state_preserved(self):
        original = build_hub_network()
        original.link_between("w1", "w2").fail()
        clone = roundtrip(original)
        assert not clone.link_between("w1", "w2").up

    def test_policy_flags_preserved(self):
        original = build_hub_network()
        original.domains[2].propagates_anycast = False
        clone = roundtrip(original)
        assert not clone.domains[2].propagates_anycast

    def test_generated_internet_roundtrip(self):
        original = generate_internet(InternetSpec(seed=5)).network
        clone = roundtrip(original)
        assert clone.stats() == original.stats()
        assert sorted(clone.links) == sorted(original.links)

    def test_forwarding_equivalence(self):
        """A reloaded topology converges to the same forwarding paths."""
        original = generate_internet(InternetSpec(seed=5)).network
        clone = roundtrip(original)
        orig_orch = Orchestrator(original, seed=1)
        clone_orch = Orchestrator(clone, seed=1)
        orig_orch.converge()
        clone_orch.converge()
        hosts = sorted(n.node_id for n in original.nodes.values() if n.is_host)
        for src, dst in zip(hosts[:5], hosts[-5:]):
            if src == dst:
                continue
            packet_a = ipv4_packet(original.node(src).ipv4,
                                   original.node(dst).ipv4)
            packet_b = ipv4_packet(clone.node(src).ipv4, clone.node(dst).ipv4)
            trace_a = orig_orch.forward(packet_a, src)
            trace_b = clone_orch.forward(packet_b, src)
            assert trace_a.node_path() == trace_b.node_path()


class TestFiles:
    def test_save_and_load(self, tmp_path):
        original = build_hub_network()
        path = tmp_path / "topology.json"
        save_network(original, path)
        clone = load_network(path)
        assert clone.stats() == original.stats()

    def test_file_is_json(self, tmp_path):
        path = tmp_path / "topology.json"
        save_network(build_hub_network(), path)
        data = json.loads(path.read_text())
        assert data["format"] == 1
        assert {"domains", "routers", "hosts", "links"} <= set(data)

    def test_unknown_format_rejected(self):
        with pytest.raises(TopologyError):
            network_from_dict({"format": 99})
