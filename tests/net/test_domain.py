"""Unit tests for domains (ISPs) and relationships."""

import pytest

from repro.net.address import Prefix, ipv4
from repro.net.domain import Domain, Relationship
from repro.net.errors import AddressError, DeploymentError, TopologyError


def make_domain(asn=1, plen=24):
    return Domain(asn=asn, name=f"as{asn}",
                  prefix=Prefix(ipv4(f"10.{asn}.{0}.0") if plen == 24
                                else ipv4(f"10.{asn}.0.0"), plen))


class TestAllocation:
    def test_sequential_allocation(self):
        domain = make_domain()
        first = domain.allocate_ipv4()
        second = domain.allocate_ipv4()
        assert first != second
        assert domain.prefix.contains(first)
        assert domain.prefix.contains(second)

    def test_exhaustion(self):
        domain = Domain(asn=1, name="tiny", prefix=Prefix(ipv4("10.0.0.0"), 30))
        for _ in range(3):
            domain.allocate_ipv4()
        with pytest.raises(AddressError):
            domain.allocate_ipv4()

    def test_reserve_specific_address(self):
        domain = make_domain()
        target = ipv4("10.1.0.200")
        assert domain.reserve_ipv4(target) == target
        with pytest.raises(AddressError):
            domain.reserve_ipv4(target)

    def test_reserve_rejects_foreign_address(self):
        with pytest.raises(AddressError):
            make_domain().reserve_ipv4(ipv4("11.0.0.1"))

    def test_allocation_skips_reserved(self):
        domain = Domain(asn=1, name="tiny", prefix=Prefix(ipv4("10.0.0.0"), 30))
        domain.reserve_ipv4(ipv4("10.0.0.1"))
        assert domain.allocate_ipv4() == ipv4("10.0.0.2")


class TestRelationships:
    def test_reverse(self):
        assert Relationship.CUSTOMER.reverse() is Relationship.PROVIDER
        assert Relationship.PROVIDER.reverse() is Relationship.CUSTOMER
        assert Relationship.PEER.reverse() is Relationship.PEER

    def test_set_and_query(self):
        domain = make_domain()
        domain.set_relationship(2, Relationship.CUSTOMER)
        domain.set_relationship(3, Relationship.PEER)
        domain.set_relationship(4, Relationship.PROVIDER)
        assert domain.relationships == {2: Relationship.CUSTOMER,
                                        3: Relationship.PEER,
                                        4: Relationship.PROVIDER}
        assert sorted(domain.neighbor_asns()) == [2, 3, 4]
        assert domain.relationship_with(9) is None

    def test_no_self_relationship(self):
        with pytest.raises(TopologyError):
            make_domain().set_relationship(1, Relationship.PEER)

    def test_positive_asn_required(self):
        with pytest.raises(TopologyError):
            Domain(asn=0, name="bad", prefix=Prefix(ipv4("10.0.0.0"), 16))


class TestDeploymentRecords:
    def test_deploy_version_subset(self):
        domain = make_domain()
        domain.routers.update({"r1", "r2", "r3"})
        domain.deploy_version(8, {"r1", "r2"})
        assert domain.deploys(8)
        assert domain.vn_router_ids(8) == {"r1", "r2"}
        assert not domain.deploys(9)

    def test_deploy_foreign_router_rejected(self):
        domain = make_domain()
        domain.routers.add("r1")
        with pytest.raises(DeploymentError):
            domain.deploy_version(8, {"r1", "ghost"})

    def test_deploy_needs_routers(self):
        domain = make_domain()
        with pytest.raises(DeploymentError):
            domain.deploy_version(8, set())

    def test_deploy_accumulates(self):
        domain = make_domain()
        domain.routers.update({"r1", "r2"})
        domain.deploy_version(8, {"r1"})
        domain.deploy_version(8, {"r2"})
        assert domain.vn_router_ids(8) == {"r1", "r2"}

    def test_undeploy(self):
        domain = make_domain()
        domain.routers.add("r1")
        domain.deploy_version(8, {"r1"})
        domain.undeploy_version(8)
        assert not domain.deploys(8)
        assert domain.vn_router_ids(8) == set()

    def test_vn_router_ids_returns_copy(self):
        domain = make_domain()
        domain.routers.add("r1")
        domain.deploy_version(8, {"r1"})
        snapshot = domain.vn_router_ids(8)
        snapshot.add("fake")
        assert domain.vn_router_ids(8) == {"r1"}
