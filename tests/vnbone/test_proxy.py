"""Unit tests for advertising-by-proxy."""

import pytest

from repro.anycast import DefaultRootedAnycast
from repro.net.errors import ReproError
from repro.vnbone import (EgressPolicy, VnDeployment, external_owner_entries,
                          proxies_for_domain)


def proxies(orch, members, adopting_asns, threshold=1):
    return proxies_for_domain(orch.network, orch.bgp, 8, 4, members,
                              adopting_asns, threshold)


class TestProxyAdvertiser:
    def test_negative_threshold_rejected(self, converged_hub):
        scheme = DefaultRootedAnycast(converged_hub, "ipv8", default_asn=1)
        with pytest.raises(ValueError) as raised:
            VnDeployment(converged_hub, scheme, version=8,
                         egress_policy=EgressPolicy.PROXY, proxy_threshold=-1)
        assert isinstance(raised.value, ReproError)

    def test_adjacent_member_proxies(self, converged_hub):
        # Member in W (hub): adjacent to Y and Z, both external.
        assert proxies(converged_hub, ["w2"], adopting_asns={1}) == ["w2"]

    def test_distant_member_does_not_proxy(self, converged_hub):
        # Member in X is 2 AS hops from Z.
        assert proxies(converged_hub, ["x2"], adopting_asns={2}) == []

    def test_higher_threshold_widens(self, converged_hub):
        assert proxies(converged_hub, ["x2"], adopting_asns={2},
                       threshold=2) == ["x2"]

    def test_owner_entries_tagged(self, converged_hub):
        entries = external_owner_entries(
            converged_hub.network, converged_hub.bgp, 8, ["w2"],
            EgressPolicy.PROXY, adopting_asns={1}, proxy_threshold=1)
        assert entries
        assert all(e.origin == "proxy" for e in entries)
