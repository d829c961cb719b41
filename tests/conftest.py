"""Shared fixtures: small hand-built internetworks used across the suite."""

from __future__ import annotations

import os

import pytest

from repro.net import Domain, Network, Prefix, Relationship
from repro.core.orchestrator import Orchestrator

from tests.oracles import paranoid_caches  # noqa: F401  (fixture)

try:  # hypothesis is a dev dependency; the suite must run without it
    from hypothesis import settings as _hyp_settings

    _hyp_settings.register_profile("ci", derandomize=True, deadline=None)
    _hyp_settings.register_profile("dev", deadline=None)
    # The scheduled search: fresh examples each run, ×20 the default
    # 100 (a test that pins its own count scales it by the same factor).
    _hyp_settings.register_profile("deep", deadline=None, max_examples=2000)
    _hyp_settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "ci"))
except ImportError:  # pragma: no cover - exercised only without hypothesis
    pass


def build_two_domain_network() -> Network:
    """Two peering domains, two routers and one host each.

        h1 - r1a - r1b === r2b - r2a - h2
              (AS1)         (AS2)
    """
    net = Network()
    net.add_domain(Domain(asn=1, name="left", prefix=Prefix.parse("10.1.0.0/16")))
    net.add_domain(Domain(asn=2, name="right", prefix=Prefix.parse("10.2.0.0/16")))
    for asn in (1, 2):
        net.add_router(f"r{asn}a", asn)
        net.add_router(f"r{asn}b", asn, is_border=True)
        net.add_link(f"r{asn}a", f"r{asn}b")
        net.add_host(f"h{asn}", asn, f"r{asn}a")
    net.connect_domains(1, 2, "r1b", "r2b", Relationship.PEER)
    return net


def build_chain_network() -> Network:
    """Provider chain Z -> Y -> X -> W with a client in Z (Figure 1 shape)."""
    net = Network()
    for asn, name in enumerate(["W", "X", "Y", "Z"], start=1):
        net.add_domain(Domain(asn=asn, name=name,
                              prefix=Prefix.parse(f"10.{asn}.0.0/16")))
        net.add_router(f"{name.lower()}1", asn, is_border=True)
        net.add_router(f"{name.lower()}2", asn)
        net.add_link(f"{name.lower()}1", f"{name.lower()}2")
    net.connect_domains(4, 3, "z1", "y1", Relationship.PROVIDER)
    net.connect_domains(3, 2, "y1", "x1", Relationship.PROVIDER)
    net.connect_domains(2, 1, "x1", "w1", Relationship.PROVIDER)
    net.add_host("c", 4, "z2")
    net.add_host("hx", 2, "x2")
    return net


def build_hub_network() -> Network:
    """Hub provider W (AS1) with customers X, Y, Z; hosts in X and Z."""
    net = Network()
    for asn, name in enumerate(["W", "X", "Y", "Z"], start=1):
        net.add_domain(Domain(asn=asn, name=name,
                              prefix=Prefix.parse(f"10.{asn}.0.0/16"),
                              tier=1 if name == "W" else 2))
        net.add_router(f"{name.lower()}1", asn, is_border=True)
        net.add_router(f"{name.lower()}2", asn)
        net.add_link(f"{name.lower()}1", f"{name.lower()}2")
    for asn, name in [(2, "x"), (3, "y"), (4, "z")]:
        net.connect_domains(asn, 1, f"{name}1", "w1", Relationship.PROVIDER)
    net.add_host("hx", 2, "x2")
    net.add_host("hz", 4, "z2")
    return net


@pytest.fixture
def two_domain_network() -> Network:
    return build_two_domain_network()


@pytest.fixture
def chain_network() -> Network:
    return build_chain_network()


@pytest.fixture
def hub_network() -> Network:
    return build_hub_network()


@pytest.fixture
def converged_two_domain() -> Orchestrator:
    orch = Orchestrator(build_two_domain_network())
    orch.converge()
    return orch


@pytest.fixture
def converged_chain() -> Orchestrator:
    orch = Orchestrator(build_chain_network())
    orch.converge()
    return orch


@pytest.fixture
def converged_hub() -> Orchestrator:
    orch = Orchestrator(build_hub_network())
    orch.converge()
    return orch
