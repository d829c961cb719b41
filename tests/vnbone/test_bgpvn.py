"""Tests for the layered BGPvN routing mode."""

import pytest

from repro.net import Relationship
from repro.net.address import Prefix
from repro.net.errors import ConvergenceError, DeploymentError, RoutingError
from repro.anycast import DefaultRootedAnycast
from repro.core.evolution import EvolvableInternet
from repro.core.metrics import measure_reachability
from repro.core.orchestrator import Orchestrator
from repro.topogen import InternetSpec
from repro.vnbone import VnDeployment
from repro.vnbone.bgpvn import BgpVnRoute, BgpVnSolver
from repro.vnbone.routing import OwnerEntry
from repro.vnbone.state import VnAction, native_domain_prefix

from tests.conftest import build_two_domain_network
from tests.oracles import checked_vn_rebuilds, vn_fib_entries


def dummy_entry(asn: int) -> OwnerEntry:
    return OwnerEntry(prefix=native_domain_prefix(asn), owner=f"r{asn}",
                      action=VnAction.LOCAL)


def origination(asn: int, metric: float = 0.0) -> BgpVnRoute:
    return BgpVnRoute(prefix=native_domain_prefix(asn), as_path=(asn,),
                      metric=metric, entry=dummy_entry(asn))


class TestSolver:
    def test_line_propagation(self):
        adjacency = {1: {2}, 2: {1, 3}, 3: {2}}
        solver = BgpVnSolver(adjacency, {1: [origination(1)], 2: [], 3: []})
        solver.converge()
        route = solver.routes_of(3)[native_domain_prefix(1)]
        assert route.as_path == (3, 2, 1)

    def test_shortest_path_wins(self):
        adjacency = {1: {2, 3}, 2: {1, 4}, 3: {1, 4}, 4: {2, 3}}
        solver = BgpVnSolver(adjacency, {4: [origination(4)],
                                         1: [], 2: [], 3: []})
        solver.converge()
        route = solver.routes_of(1)[native_domain_prefix(4)]
        assert len(route.as_path) == 3  # via 2 or 3, one hop each

    def test_metric_breaks_length_tie(self):
        prefix = native_domain_prefix(9)
        entry = dummy_entry(9)
        adjacency = {1: {2, 3}, 2: {1}, 3: {1}}
        originations = {
            2: [BgpVnRoute(prefix=prefix, as_path=(2,), metric=50.0,
                           entry=entry)],
            3: [BgpVnRoute(prefix=prefix, as_path=(3,), metric=10.0,
                           entry=entry)],
            1: [],
        }
        solver = BgpVnSolver(adjacency, originations)
        solver.converge()
        assert solver.routes_of(1)[prefix].as_path == (1, 3)

    def test_loop_prevention(self):
        adjacency = {1: {2}, 2: {1}}
        solver = BgpVnSolver(adjacency, {1: [origination(1)], 2: []})
        solver.converge()
        for routes in (solver.routes_of(1), solver.routes_of(2)):
            for route in routes.values():
                assert len(set(route.as_path)) == len(route.as_path)

    def test_partitioned_domains_have_no_route(self):
        adjacency = {1: {2}, 2: {1}, 3: set()}
        solver = BgpVnSolver(adjacency, {1: [origination(1)], 2: [], 3: []})
        solver.converge()
        assert native_domain_prefix(1) not in solver.routes_of(3)

    def test_round_budget(self):
        adjacency = {1: {2}, 2: {1}}
        solver = BgpVnSolver(adjacency, {1: [origination(1)], 2: []},
                             max_rounds=0)
        with pytest.raises(ConvergenceError):
            solver.converge()


@pytest.fixture
def internet():
    return EvolvableInternet.generate(
        InternetSpec(n_tier1=2, n_tier2=4, n_stub=6, hosts_per_stub=1,
                     seed=71), seed=71)


def layered_deployment(internet, adopters):
    scheme = DefaultRootedAnycast(internet.orchestrator, "layered",
                                  default_asn=adopters[0])
    deployment = VnDeployment(internet.orchestrator, scheme, version=8,
                              routing_mode="layered")
    for asn in adopters:
        deployment.deploy(asn)
    deployment.rebuild()
    return deployment


class TestLayeredMode:
    def test_unknown_mode_rejected(self, internet):
        scheme = DefaultRootedAnycast(internet.orchestrator, "bad",
                                      default_asn=internet.tier1_asns()[0])
        with pytest.raises(DeploymentError):
            VnDeployment(internet.orchestrator, scheme, version=8,
                         routing_mode="quantum")

    def test_universal_access(self, internet):
        adopters = [internet.tier1_asns()[0]] + internet.stub_asns()[:2]
        deployment = layered_deployment(internet, adopters)
        pairs = internet.host_pairs(sample=30)
        report = measure_reachability(internet.network, deployment.send,
                                      pairs)
        assert report.delivery_ratio == 1.0, report.failures

    def test_domain_routes_present(self, internet):
        """Every domain holds a BGPvN route for every member's address,
        originated by that member's domain."""
        adopters = [internet.tier1_asns()[0]] + internet.stub_asns()[:2]
        deployment = layered_deployment(internet, adopters)
        solver = deployment.routing._solver
        for asn in adopters:
            for member, state in deployment.states.items():
                route = solver.routes_of(asn).get(
                    Prefix.host(state.vn_address))
                assert route is not None, (asn, member)
                owner_asn = internet.network.node(member).domain_id
                assert route.origin_asn == owner_asn

    def test_member_paths_unsupported(self, internet):
        deployment = layered_deployment(internet, [internet.tier1_asns()[0]])
        with pytest.raises(RoutingError):
            deployment.routing.path("a", "b")

    def test_matches_global_spf_delivery(self, internet):
        """Both modes must satisfy universal access on the same
        adoption pattern (paths may differ; delivery must not)."""
        adopters = [internet.tier1_asns()[0]] + internet.stub_asns()[:2]
        layered = layered_deployment(internet, adopters)
        scheme = DefaultRootedAnycast(internet.orchestrator, "spf9",
                                      default_asn=adopters[0])
        flat = VnDeployment(internet.orchestrator, scheme, version=9)
        for asn in adopters:
            flat.deploy(asn)
        flat.rebuild()
        pairs = internet.host_pairs(sample=25)
        layered_report = measure_reachability(internet.network, layered.send,
                                              pairs)
        flat_report = measure_reachability(internet.network, flat.send, pairs)
        assert layered_report.delivery_ratio == 1.0
        assert flat_report.delivery_ratio == 1.0

    def test_rebuilds_equal_the_layered_reference(self):
        """E15's world: deploy, the tier-1 core link down, one more
        adopter — after every rebuild each member's FIB equals
        ``reference_layered_vn_fibs``."""
        internet = EvolvableInternet.generate(
            InternetSpec(n_tier1=2, n_tier2=4, n_stub=8, hosts_per_stub=2,
                         seed=37), seed=37)
        network, orch = internet.network, internet.orchestrator
        first, second = internet.tier1_asns()
        adopters = [first] + [asn for asn in sorted(network.domains)
                              if asn != first][:4]
        with checked_vn_rebuilds() as vn:
            deployment = layered_deployment(internet, adopters[:4])
            fibs = deployment.vn_fib_sizes()
            link = network.link_between(min(network.domains[first].routers),
                                        min(network.domains[second].routers))
            link.fail()
            orch.notify_link_change(link)
            orch.reconverge()
            deployment.rebuild()
            deployment.deploy(adopters[4])
            deployment.rebuild()
        assert vn["rebuilds"] == 3
        assert vn["members"] > 3 * len(fibs)
        assert deployment.vn_fib_sizes() != fibs

    def test_transit_rows_take_the_cheapest_border(self):
        """Two sessions between the same two domains: each member's
        transit rows leave by the border cheapest from it, whether that
        is its own tunnel or the other border's."""
        network = build_two_domain_network()
        for router_id in ("r1a", "r2a"):
            network.node(router_id).is_border = True
        network.connect_domains(1, 2, "r1a", "r2a", Relationship.PEER,
                                cost=5.0)
        orch = Orchestrator(network)
        orch.converge()
        scheme = DefaultRootedAnycast(orch, "layered", default_asn=1)
        deployment = VnDeployment(orch, scheme, version=8,
                                  routing_mode="layered")
        with checked_vn_rebuilds() as vn:
            for asn in (1, 2):
                deployment.deploy(asn)
            deployment.rebuild()
        assert vn["rebuilds"] == 1
        assert [t.kind for t in deployment.tunnels].count("inter") == 2
        hops = {member: {entry.next_hop for entry in vn_fib_entries(state.fib)
                         if entry.origin == "bgpvn"}
                for member, state in deployment.states.items()}
        assert hops["r1a"] == {"r1b"} and hops["r1b"] == {"r2b"}
