"""The exact small topologies of the paper's Figures 1-4.

Each builder returns a :class:`FigureTopology` holding the network and
the named nodes the figure talks about, so the corresponding benchmark
reads like the paper's own walk-through.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.net.address import IPv4Address, Prefix
from repro.net.domain import Domain, Relationship
from repro.net.network import Network


@dataclass
class FigureTopology:
    """A figure's network plus its named cast."""

    network: Network
    #: domain name (as in the figure) -> ASN
    domains: Dict[str, int] = field(default_factory=dict)
    #: role name (e.g. "client_C") -> node id
    nodes: Dict[str, str] = field(default_factory=dict)

    def asn(self, name: str) -> int:
        return self.domains[name]


def _add_domain(network: Network, asn: int, name: str, routers: int = 2,
                tier: int = 2) -> List[str]:
    network.add_domain(Domain(asn=asn, name=name,
                              prefix=Prefix(IPv4Address((10 << 24) | (asn << 16)), 16),
                              tier=tier))
    ids = []
    for index in range(routers):
        router_id = f"{name.lower()}{index}"
        # Figure domains are tiny; let any router terminate inter-domain
        # links so the builders can wire them exactly as drawn.
        network.add_router(router_id, asn, is_border=True)
        ids.append(router_id)
    for a, b in zip(ids, ids[1:]):
        network.add_link(a, b)
    return ids


def figure1() -> FigureTopology:
    """Figure 1: ISPs W, X, Y, Z; client C in Z.

    IPv8 is deployed successively in X, then Y, then Z; throughout,
    C must be redirected to the closest IPv8 provider.  The domains
    form a provider chain Z -> Y -> X -> W so that each successive
    deployment is strictly closer to C.
    """
    network = Network()
    fig = FigureTopology(network=network)
    for asn, name in enumerate(["W", "X", "Y", "Z"], start=1):
        _add_domain(network, asn, name, routers=2, tier=1 if name == "W" else 2)
        fig.domains[name] = asn
    network.connect_domains(4, 3, "z0", "y0", Relationship.PROVIDER)  # Z -> Y
    network.connect_domains(3, 2, "y0", "x0", Relationship.PROVIDER)  # Y -> X
    network.connect_domains(2, 1, "x0", "w0", Relationship.PROVIDER)  # X -> W
    client = network.add_host("client_c", 4, "z1")
    fig.nodes["client_C"] = client.node_id
    return fig


def figure2() -> FigureTopology:
    """Figure 2: default domain D; P, Q transit; X, Y, Z clients.

    ISPs Q and D deploy IPvN with D the default domain.  Anycast
    packets from X and Y terminate in D; those from Z are intercepted
    by Q on their way towards D.  Q later peers with Y to advertise its
    anycast route, after which Y's packets reach Q instead of D.
    """
    network = Network()
    fig = FigureTopology(network=network)
    for asn, name in enumerate(["P", "Q", "D", "X", "Y", "Z"], start=1):
        _add_domain(network, asn, name, routers=2,
                    tier=1 if name in ("P", "Q") else 2)
        fig.domains[name] = asn
    p, q, d, x, y, z = (fig.domains[n] for n in ["P", "Q", "D", "X", "Y", "Z"])
    network.connect_domains(p, q, "p0", "q0", Relationship.PEER)
    network.connect_domains(d, p, "d0", "p0", Relationship.PROVIDER)
    network.connect_domains(x, p, "x0", "p0", Relationship.PROVIDER)
    network.connect_domains(y, p, "y0", "p0", Relationship.PROVIDER)
    network.connect_domains(y, q, "y1", "q1", Relationship.PROVIDER)
    network.connect_domains(z, q, "z0", "q0", Relationship.PROVIDER)
    for name in ("X", "Y", "Z"):
        asn = fig.domains[name]
        host = network.add_host(f"host_{name.lower()}", asn, f"{name.lower()}1")
        fig.nodes[f"host_{name}"] = host.node_id
    return fig


def figure3() -> FigureTopology:
    """Figure 3: inter-domain vN-Bone routing with BGPv(N-1) import.

    ISPs M and O deploy IPvN; client C's domain S has not.  S is a
    customer of O, while M reaches S only through O (or through the
    v(N-1)-only transit T).  Without BGPv(N-1) information, M's border
    X exits the vN-Bone immediately and the packet crosses T and O as
    plain IPv(N-1); with it, the packet rides the vN-Bone M -> O and
    exits at O's border Y, one AS hop from C.
    """
    network = Network()
    fig = FigureTopology(network=network)
    for asn, name in enumerate(["T", "M", "O", "S"], start=1):
        _add_domain(network, asn, name, routers=3,
                    tier=1 if name == "T" else 2)
        fig.domains[name] = asn
    t, m, o, s = (fig.domains[n] for n in ["T", "M", "O", "S"])
    network.connect_domains(m, t, "m0", "t0", Relationship.PROVIDER)
    network.connect_domains(o, t, "o0", "t0", Relationship.PROVIDER)
    network.connect_domains(m, o, "m1", "o1", Relationship.PEER)
    network.connect_domains(s, o, "s0", "o2", Relationship.PROVIDER)
    source = network.add_host("host_m", m, "m2")
    client = network.add_host("client_c", s, "s1")
    fig.nodes["host_M"] = source.node_id
    fig.nodes["client_C"] = client.node_id
    fig.nodes["border_X"] = "m1"
    fig.nodes["router_Z"] = "o1"
    fig.nodes["border_Y"] = "o2"
    return fig


def figure4() -> FigureTopology:
    """Figure 4: advertising-by-proxy.

    ISPs A, B, C support IPvN; M, N and Z support only IPv(N-1).
    Without proxy advertisements the path from A to Z leaves the
    vN-Bone at A and crosses M and N as IPv(N-1); with B and C
    advertising their (short) distance to Z into BGPvN, the packet
    rides the vN-Bone A -> B -> C and exits next to Z.
    """
    network = Network()
    fig = FigureTopology(network=network)
    for asn, name in enumerate(["A", "B", "C", "M", "N", "Z"], start=1):
        _add_domain(network, asn, name, routers=2)
        fig.domains[name] = asn
    a, b, c, m, n, z = (fig.domains[x] for x in ["A", "B", "C", "M", "N", "Z"])
    # The IPv(N-1)-only chain A - M - N - Z: M and N are transit
    # providers for the edge domains, peering with each other, so the
    # legacy path A -> M -> N -> Z is valley-free and is the ONLY
    # IPv(N-1) route from A to Z.
    network.connect_domains(a, m, "a0", "m0", Relationship.PROVIDER)
    network.connect_domains(m, n, "m1", "n0", Relationship.PEER)
    network.connect_domains(z, n, "z0", "n1", Relationship.PROVIDER)
    # The IPvN-capable chain A - B - C - Z.  A - B and B - C are peer
    # links, so Z's route (a customer route at C, a peer route at B)
    # is never exported to A: the chain exists for vN-Bone tunnels but
    # carries no IPv(N-1) transit for A, matching the figure's
    # distinction between IPvN and IPv(N-1) inter-domain links.
    network.connect_domains(a, b, "a1", "b0", Relationship.PEER)
    network.connect_domains(b, c, "b1", "c0", Relationship.PEER)
    network.connect_domains(z, c, "z1", "c1", Relationship.PROVIDER)
    source = network.add_host("host_a", a, "a1")
    sink = network.add_host("host_z", z, "z1")
    fig.nodes["host_A"] = source.node_id
    fig.nodes["host_Z"] = sink.node_id
    return fig
