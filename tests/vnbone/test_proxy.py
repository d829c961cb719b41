"""Unit tests for advertising-by-proxy."""

import pytest

from repro.net.errors import ReproError
from repro.vnbone.proxy import ProxyAdvertiser


def advertiser(orch, threshold=1):
    return ProxyAdvertiser(orch.network, orch.bgp, version=8,
                           threshold=threshold)


class TestProxyAdvertiser:
    def test_negative_threshold_rejected(self, converged_hub):
        with pytest.raises(ValueError) as raised:
            ProxyAdvertiser(converged_hub.network, converged_hub.bgp, 8,
                            threshold=-1)
        assert isinstance(raised.value, ReproError)

    def test_adjacent_member_proxies(self, converged_hub):
        proxy = advertiser(converged_hub, threshold=1)
        # Member in W (hub): adjacent to Y and Z, both external.
        proxies = proxy.proxies_for_domain(4, ["w2"], adopting_asns={1})
        assert proxies == ["w2"]

    def test_distant_member_does_not_proxy(self, converged_hub):
        proxy = advertiser(converged_hub, threshold=1)
        # Member in X is 2 AS hops from Z.
        assert proxy.proxies_for_domain(4, ["x2"], adopting_asns={2}) == []

    def test_higher_threshold_widens(self, converged_hub):
        proxy = advertiser(converged_hub, threshold=2)
        assert proxy.proxies_for_domain(4, ["x2"], adopting_asns={2}) == ["x2"]

    def test_coverage_counts(self, converged_hub):
        proxy = advertiser(converged_hub, threshold=1)
        coverage = proxy.coverage(["w2", "x2"], adopting_asns={1, 2})
        # External domains are Y (3) and Z (4); only W's member is
        # adjacent to them.
        assert coverage == {3: 1, 4: 1}

    def test_coverage_zero_when_no_proxies(self, converged_hub):
        proxy = advertiser(converged_hub, threshold=0)
        coverage = proxy.coverage(["x2"], adopting_asns={2})
        assert all(count == 0 for count in coverage.values())

    def test_owner_entries_tagged(self, converged_hub):
        proxy = advertiser(converged_hub, threshold=1)
        entries = proxy.owner_entries(["w2"], adopting_asns={1})
        assert entries
        assert all(e.origin == "proxy" for e in entries)
