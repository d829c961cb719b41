"""Links: undirected edges between nodes.

A link carries an IGP *cost* (used by intra-domain routing and by
ground-truth shortest paths), a propagation *delay* (used by the event
kernel when protocols exchange messages), and a *scope* marking it as
intra-domain or inter-domain.  Inter-domain links connect border routers
of different domains and are the edges over which BGP sessions run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional, Tuple

from repro.net.errors import TopologyError


class LinkScope(Enum):
    """Whether a link is internal to a domain or crosses domains."""

    INTRA_DOMAIN = "intra"
    INTER_DOMAIN = "inter"


@dataclass
class Link:
    """An undirected edge between two nodes.

    Link identity is the unordered endpoint pair; a :class:`Network`
    refuses parallel links between the same endpoints.
    """

    a: str
    b: str
    cost: float = 1.0
    delay: float = 1.0
    scope: LinkScope = LinkScope.INTRA_DOMAIN
    up: bool = True
    name: str = field(default="")
    #: Invoked with the link whenever ``up`` actually flips;
    #: :meth:`Network.add_link` wires every link to the network's one
    #: shared hook, which bumps the topology version of the world and of
    #: both endpoint domains, so fault injectors that toggle links
    #: directly still invalidate path caches.
    _on_state_change: Optional[Callable[["Link"], None]] = field(
        default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.a == self.b:
            raise TopologyError(f"self-loop link at {self.a!r}")
        # Written so that NaN fails too: shortest-path searches order
        # their heaps by cost and keep their tie-breaks only when every
        # cost is positive.
        if not self.cost > 0:
            raise TopologyError(f"link cost {self.cost} is not positive")
        if not self.delay >= 0:
            raise TopologyError(f"negative link delay {self.delay}")
        if not self.name:
            self.name = f"{self.a}<->{self.b}"

    def endpoints(self) -> Tuple[str, str]:
        """The unordered endpoint pair, canonically sorted."""
        return (self.a, self.b) if self.a <= self.b else (self.b, self.a)

    def other(self, node_id: str) -> str:
        """The endpoint opposite *node_id*."""
        if node_id == self.a:
            return self.b
        if node_id == self.b:
            return self.a
        raise TopologyError(f"{node_id!r} is not an endpoint of {self.name}")

    def fail(self) -> None:
        """Take the link down (failure injection)."""
        if self.up:
            self.up = False
            if self._on_state_change is not None:
                self._on_state_change(self)

    def restore(self) -> None:
        """Bring the link back up."""
        if not self.up:
            self.up = True
            if self._on_state_change is not None:
                self._on_state_change(self)

    def __str__(self) -> str:
        state = "up" if self.up else "DOWN"
        return f"Link({self.name}, cost={self.cost}, {self.scope.value}, {state})"
