"""End-to-end tests of the paper's four figure walk-throughs.

Each test class sets up the corresponding figure topology and asserts
the *claims the paper makes about it*, driven through the real data
plane (host encapsulation, anycast delivery, vN-Bone tunnels, egress).
"""

import pytest

from repro.core.metrics import vn_coverage, vn_tail_length
from repro.core.orchestrator import Orchestrator
from repro.anycast import DefaultRootedAnycast, GlobalAnycast
from repro.experiments import run
from repro.topogen import figure1, figure2, figure3, figure4
from repro.vnbone import EgressPolicy, VnDeployment, proxies_for_domain


class TestFigure1SeamlessSpread:
    """IPv8 deployed successively in X, then Y, then Z; client C is
    seamlessly redirected to the closest IPv8 provider throughout."""

    def setup(self):
        self.fig = figure1()
        self.orch = Orchestrator(self.fig.network)
        self.orch.converge()
        self.scheme = GlobalAnycast(self.orch, "ipv8")

    def deploy(self, name):
        for router in sorted(self.fig.network.domains[self.fig.asn(name)].routers):
            self.scheme.add_member(router)
        self.orch.reconverge()

    def test_redirection_follows_deployment(self):
        self.setup()
        self.deploy("X")
        first = self.scheme.resolve("client_c")
        assert self.fig.network.node(first).domain_id == self.fig.asn("X")
        self.deploy("Y")
        second = self.scheme.resolve("client_c")
        assert self.fig.network.node(second).domain_id == self.fig.asn("Y")
        self.deploy("Z")
        third = self.scheme.resolve("client_c")
        assert self.fig.network.node(third).domain_id == self.fig.asn("Z")

    def test_redirection_distance_monotone_nonincreasing(self):
        self.setup()
        costs = []
        for name in ("X", "Y", "Z"):
            self.deploy(name)
            trace = self.scheme.probe("client_c")
            costs.append(self.scheme.path_cost(trace))
        assert costs[0] >= costs[1] >= costs[2]

    def test_client_needs_no_reconfiguration(self):
        """The client's only configuration is the well-known anycast
        address, which never changes across deployment stages."""
        self.setup()
        address_before = self.scheme.address
        for name in ("X", "Y", "Z"):
            self.deploy(name)
        assert self.scheme.address == address_before

    def test_registered_experiment_tabulates_the_same(self):
        rows = run("F1").data
        assert [r["redirected_to_domain"] for r in rows] == ["X", "Y", "Z"]
        costs = [r["cost"] for r in rows]
        assert costs == sorted(costs, reverse=True) or costs[0] >= costs[-1]
        assert not any(r["client_reconfigured"] for r in rows)


class TestFigure3EgressSelection:
    """With BGPv(N-1) import, the packet rides the vN-Bone M -> O and
    exits at O (one AS hop from C) instead of exiting at M."""

    def build(self, policy):
        fig = figure3()
        orch = Orchestrator(fig.network)
        orch.converge()
        scheme = DefaultRootedAnycast(orch, "ipvN", default_asn=fig.asn("M"))
        deployment = VnDeployment(orch, scheme, version=8,
                                  egress_policy=policy)
        deployment.deploy(fig.asn("M"))
        deployment.deploy(fig.asn("O"))
        deployment.rebuild()
        return fig, orch, deployment

    def test_exit_immediately_leaves_at_m(self):
        fig, orch, deployment = self.build(EgressPolicy.EXIT_IMMEDIATELY)
        trace = deployment.send("host_m", "client_c")
        assert trace.delivered
        assert fig.network.node(trace.egress_router).domain_id == fig.asn("M")

    def test_bgp_informed_exits_in_o(self):
        fig, orch, deployment = self.build(EgressPolicy.BGP_INFORMED)
        trace = deployment.send("host_m", "client_c")
        assert trace.delivered
        assert fig.network.node(trace.egress_router).domain_id == fig.asn("O")

    def test_bgp_informed_shortens_legacy_tail(self):
        fig, _, naive = self.build(EgressPolicy.EXIT_IMMEDIATELY)
        naive_trace = naive.send("host_m", "client_c")
        fig2, _, informed = self.build(EgressPolicy.BGP_INFORMED)
        informed_trace = informed.send("host_m", "client_c")
        naive_tail = vn_tail_length(fig.network, naive_trace)
        informed_tail = vn_tail_length(fig2.network, informed_trace)
        assert naive_tail is not None and informed_tail is not None
        assert informed_tail < naive_tail

    def test_bgp_informed_increases_vn_coverage(self):
        fig, _, naive = self.build(EgressPolicy.EXIT_IMMEDIATELY)
        fig2, _, informed = self.build(EgressPolicy.BGP_INFORMED)
        naive_cov = vn_coverage(naive.send("host_m", "client_c"))
        informed_cov = vn_coverage(informed.send("host_m", "client_c"))
        assert informed_cov > naive_cov

    def test_registered_experiment_tabulates_the_same(self):
        result = run("F3")
        by_policy = {r["policy"]: r for r in result.data}
        naive = by_policy["exit-immediately"]
        informed = by_policy["bgp-informed"]
        hosted = by_policy["host-advertised"]
        assert all(r["delivered"] for r in result.data)
        assert naive["egress_domain"] == "M"
        assert informed["egress_domain"] == "O"
        assert informed["tail"] < naive["tail"]
        assert informed["coverage"] > naive["coverage"]
        # The rejected design reaches the same exit quality; the paper's
        # objection to it is procedural, not path quality.
        assert hosted["egress_domain"] == "O"


class TestFigure4AdvertisingByProxy:
    """With B and C proxying Z, the path A -> Z rides the vN-Bone;
    without, it exits at A and crosses M and N as IPv(N-1)."""

    def build(self, policy, threshold=2):
        # Threshold 2 lets both B (two IPv(N-1) hops from Z via C) and
        # C (one hop) proxy Z, as in the figure's caption.
        fig = figure4()
        orch = Orchestrator(fig.network)
        orch.converge()
        scheme = DefaultRootedAnycast(orch, "ipvN", default_asn=fig.asn("A"))
        deployment = VnDeployment(orch, scheme, version=8,
                                  egress_policy=policy,
                                  proxy_threshold=threshold)
        for name in ("A", "B", "C"):
            deployment.deploy(fig.asn(name))
        deployment.rebuild()
        return fig, orch, deployment

    def test_proxies_are_b_and_c(self):
        fig, orch, deployment = self.build(EgressPolicy.PROXY)
        proxies = proxies_for_domain(
            fig.network, orch.bgp, 8, fig.asn("Z"), deployment.members(),
            deployment.adopting_asns(), deployment.proxy_threshold)
        proxy_domains = {fig.network.node(p).domain_id for p in proxies}
        assert proxy_domains == {fig.asn("B"), fig.asn("C")}

    def test_without_proxy_path_exits_at_a(self):
        fig, orch, deployment = self.build(EgressPolicy.EXIT_IMMEDIATELY)
        trace = deployment.send("host_a", "host_z")
        assert trace.delivered
        assert fig.network.node(trace.egress_router).domain_id == fig.asn("A")
        # The legacy tail crosses M and N.
        assert fig.asn("M") in trace.domain_path()

    def test_with_proxy_path_rides_vnbone(self):
        fig, orch, deployment = self.build(EgressPolicy.PROXY)
        trace = deployment.send("host_a", "host_z")
        assert trace.delivered
        egress_domain = fig.network.node(trace.egress_router).domain_id
        assert egress_domain in (fig.asn("B"), fig.asn("C"))
        # The legacy chain M - N is avoided entirely.
        assert fig.asn("M") not in trace.domain_path()
        assert fig.asn("N") not in trace.domain_path()

    def test_proxy_shortens_tail(self):
        fig, _, naive = self.build(EgressPolicy.EXIT_IMMEDIATELY)
        naive_tail = vn_tail_length(fig.network,
                                    naive.send("host_a", "host_z"))
        fig2, _, proxied = self.build(EgressPolicy.PROXY)
        proxy_tail = vn_tail_length(fig2.network,
                                    proxied.send("host_a", "host_z"))
        assert proxy_tail < naive_tail

    def test_uncovered_domains_fall_back(self):
        """Destination domains no proxy covers still work via the
        exit-immediately fallback (N is 2 AS hops from every member)."""
        fig, orch, deployment = self.build(EgressPolicy.PROXY, threshold=1)
        fig.network.add_host("host_n", fig.asn("N"), "n1")
        deployment.rebuild()  # the new host's route must converge
        trace = deployment.send("host_a", "host_n")
        assert trace.delivered

    def test_registered_experiment_tabulates_the_same(self):
        result = run("F4")
        by_config = {r["config"]: r for r in result.data}
        assert all(r["delivered"] for r in result.data)
        naive = by_config["no proxy"]
        assert naive["exit"] == "A"
        assert "M" in naive["as_path"] and "N" in naive["as_path"]
        for label in ("proxy, thr=1", "proxy, thr=2"):
            proxied = by_config[label]
            assert proxied["exit"] in ("B", "C")
            assert "M" not in proxied["as_path"]
            assert proxied["tail"] < naive["tail"]
        # thr=2 brings B into the proxy set alongside C.
        assert by_config["proxy, thr=1"]["proxies"] == "C"
        assert by_config["proxy, thr=2"]["proxies"] == "B+C"
