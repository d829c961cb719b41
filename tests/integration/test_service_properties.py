"""Property-based invariants for the IPvN service extensions.

Multicast: for arbitrary group memberships, one send reaches exactly
the joined receivers, never costs more than unicast fan-out, and
non-receivers never hear the group.

Mobility: through arbitrary move sequences, the pinned identity stays
reachable from an arbitrary correspondent, and every abandoned locator
is dead.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.evolution import EvolvableInternet
from repro.topogen import InternetSpec
from repro.vnbone.mobility import MobilityService
from repro.vnbone.multicast import enable_multicast

SETTINGS = settings(max_examples=8, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def build_internet(seed):
    return EvolvableInternet.generate(
        InternetSpec(n_tier1=2, n_tier2=3, n_stub=6, hosts_per_stub=2,
                     seed=seed), seed=seed)


@SETTINGS
@given(seed=st.integers(min_value=0, max_value=500), data=st.data())
def test_multicast_reaches_exactly_the_joined_set(seed, data):
    internet = build_internet(seed)
    deployment = internet.new_deployment(version=8, scheme="default")
    deployment.deploy(deployment.scheme.default_asn)
    deployment.rebuild()
    service = enable_multicast(deployment)
    hosts = internet.hosts()
    source = data.draw(st.sampled_from(hosts))
    receivers = data.draw(st.sets(st.sampled_from(hosts), min_size=1,
                                  max_size=6))
    group = service.create_group()
    for host in sorted(receivers):
        service.join(group, host)
    service.rebuild()
    trace = service.send(source, group)
    assert trace.delivered_to == receivers, (
        source, receivers - trace.delivered_to, trace.delivered_to - receivers)
    unicast_cost, _ = service.unicast_equivalent_cost(source, group)
    assert trace.transmissions <= unicast_cost


@SETTINGS
@given(seed=st.integers(min_value=0, max_value=500), data=st.data())
def test_mobility_identity_survives_arbitrary_moves(seed, data):
    internet = build_internet(seed)
    deployment = internet.new_deployment(version=8, scheme="default")
    deployment.deploy(deployment.scheme.default_asn)
    deployment.rebuild()
    mobility = MobilityService(deployment)
    hosts = internet.hosts()
    mobile = data.draw(st.sampled_from(hosts))
    corr = data.draw(st.sampled_from([h for h in hosts if h != mobile]))
    identity = mobility.enable(mobile)
    moves = data.draw(st.lists(
        st.sampled_from(sorted(internet.network.domains)), min_size=1,
        max_size=3))
    records = []
    for target in moves:
        if internet.network.node(mobile).domain_id == target:
            continue
        access = sorted(internet.network.domains[target].routers)[0]
        records.append(mobility.move(mobile, target, access))
    trace = mobility.reach(corr, mobile)
    assert trace.delivered and trace.delivered_to == mobile
    assert internet.network.node(mobile).vn_addresses[8] == identity
    for record in records:
        legacy = mobility.ipv4_reach_old_locator(corr, record)
        assert legacy.delivered_to != mobile
