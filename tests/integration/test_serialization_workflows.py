"""Cross-feature integration: serialization with live deployments,
mobility, and the CLI save/load path."""

import pytest

from repro.core.evolution import EvolvableInternet
from repro.net.serialize import load_network, network_from_dict, \
    network_to_dict, save_network
from repro.topogen import InternetSpec
from repro.vnbone.mobility import MobilityService


def build_internet(seed=61):
    return EvolvableInternet.generate(
        InternetSpec(n_tier1=2, n_tier2=3, n_stub=5, hosts_per_stub=1,
                     seed=seed), seed=seed)


class TestDeploymentOnReloadedTopology:
    def test_reloaded_topology_supports_full_deployment(self, tmp_path):
        original = build_internet()
        path = tmp_path / "topo.json"
        save_network(original.network, path)

        reloaded = EvolvableInternet(load_network(path))
        deployment = reloaded.new_deployment(version=8, scheme="default")
        deployment.deploy(deployment.scheme.default_asn)
        deployment.rebuild()
        report = reloaded.reachability(8, sample=15)
        assert report.delivery_ratio == 1.0, report.failures

    def test_same_deployment_same_measurements(self, tmp_path):
        """Identical deployments on original and reloaded topologies
        produce identical reachability numbers."""
        runs = []
        path = None
        for use_reload in (False, True):
            if not use_reload:
                internet = build_internet()
                path = tmp_path / "topo.json"
                save_network(internet.network, path)
            else:
                internet = EvolvableInternet(load_network(path))
            deployment = internet.new_deployment(version=8, scheme="default")
            deployment.deploy(deployment.scheme.default_asn)
            deployment.deploy(internet.stub_asns()[0])
            deployment.rebuild()
            report = internet.reachability(8, sample=20, seed=1)
            runs.append((report.delivery_ratio, report.mean_stretch))
        assert runs[0] == runs[1]


class TestMobilityThenSerialize:
    def test_moved_host_roundtrips(self):
        internet = build_internet()
        deployment = internet.new_deployment(version=8, scheme="default")
        deployment.deploy(deployment.scheme.default_asn)
        deployment.rebuild()
        mobility = MobilityService(deployment)
        mobile = internet.hosts()[0]
        mobility.enable(mobile)
        target = next(a for a in internet.stub_asns()
                      if a != internet.network.node(mobile).domain_id)
        access = sorted(internet.network.domains[target].routers)[0]
        mobility.move(mobile, target, access)

        snapshot = network_to_dict(internet.network)
        clone = network_from_dict(snapshot)
        moved = clone.node(mobile)
        assert moved.domain_id == target
        assert moved.access_router == access
        assert moved.ipv4 == internet.network.node(mobile).ipv4

    def test_address_index_consistent_after_move_and_reload(self):
        internet = build_internet()
        deployment = internet.new_deployment(version=8, scheme="default")
        deployment.deploy(deployment.scheme.default_asn)
        deployment.rebuild()
        mobility = MobilityService(deployment)
        mobile = internet.hosts()[0]
        mobility.enable(mobile)
        target = next(a for a in internet.stub_asns()
                      if a != internet.network.node(mobile).domain_id)
        access = sorted(internet.network.domains[target].routers)[0]
        mobility.move(mobile, target, access)
        clone = network_from_dict(network_to_dict(internet.network))
        for node_id, node in clone.nodes.items():
            assert clone._addr_index[node.ipv4] == node_id
