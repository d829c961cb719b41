"""Declarative fault schedules.

A :class:`FaultPlan` is data, not behavior: an ordered list of
:class:`FaultEvent` records saying *what* breaks (or heals) and *when*.
Times are scenario-relative: ``at=10.0`` means ten simulated time units
after :meth:`repro.faults.FaultInjector.play` begins (initial protocol
convergence consumes an arbitrary amount of absolute simulation time
first).  Plans are built with a chainable API::

    plan = (FaultPlan()
            .crash_node("r3", at=10.0)
            .message_loss(start=10.0, end=30.0, prob=0.05)
            .recover_node("r3", at=60.0))

and executed by :class:`repro.faults.FaultInjector`.  Keeping the plan
declarative makes fault scenarios serializable (:meth:`FaultPlan.to_json`),
diffable, and reusable across IGP kinds and topologies — the
determinism regression tests lean on exactly that.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Tuple

from repro.net.errors import FaultError, TopologyError
from repro.net.network import Network


class FaultKind(Enum):
    """What a single fault event does."""

    LINK_DOWN = "link-down"
    LINK_UP = "link-up"
    NODE_CRASH = "node-crash"
    NODE_RECOVER = "node-recover"
    LOSS_START = "loss-start"
    LOSS_END = "loss-end"


#: Kinds whose target is a (node_a, node_b) link endpoint pair.
_LINK_KINDS = (FaultKind.LINK_DOWN, FaultKind.LINK_UP)
#: Kinds whose target is a single (node_id,) tuple.
_NODE_KINDS = (FaultKind.NODE_CRASH, FaultKind.NODE_RECOVER)


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault: *kind* applied to *target* at *time*.

    ``loss_prob`` and ``reorder_jitter`` are only meaningful for
    :attr:`FaultKind.LOSS_START` events.
    """

    time: float
    kind: FaultKind
    target: Tuple[str, ...] = ()
    loss_prob: float = 0.0
    reorder_jitter: float = 0.0

    def describe(self) -> str:
        if self.kind in _LINK_KINDS:
            return f"{self.kind.value} {self.target[0]}<->{self.target[1]}"
        if self.kind in _NODE_KINDS:
            return f"{self.kind.value} {self.target[0]}"
        if self.kind is FaultKind.LOSS_START:
            return (f"{self.kind.value} p={self.loss_prob} "
                    f"jitter={self.reorder_jitter}")
        return self.kind.value

    def to_dict(self) -> Dict[str, object]:
        return {"time": self.time, "kind": self.kind.value,
                "target": list(self.target), "loss_prob": self.loss_prob,
                "reorder_jitter": self.reorder_jitter}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FaultEvent":
        try:
            kind = FaultKind(data["kind"])
            return cls(time=float(data["time"]), kind=kind,
                       target=tuple(data.get("target", ())),
                       loss_prob=float(data.get("loss_prob", 0.0)),
                       reorder_jitter=float(data.get("reorder_jitter", 0.0)))
        except (KeyError, ValueError, TypeError) as exc:
            raise FaultError(f"malformed fault event {data!r}: {exc}") from exc


@dataclass
class FaultPlan:
    """An ordered schedule of fault events (see module docstring)."""

    _events: List[FaultEvent] = field(default_factory=list)

    # -- construction (chainable) ------------------------------------------------
    def add(self, event: FaultEvent) -> "FaultPlan":
        self._events.append(event)
        return self

    def link_down(self, a: str, b: str, at: float) -> "FaultPlan":
        """Fail the link between nodes *a* and *b* at time *at*."""
        return self.add(FaultEvent(time=at, kind=FaultKind.LINK_DOWN, target=(a, b)))

    def link_up(self, a: str, b: str, at: float) -> "FaultPlan":
        """Restore the link between nodes *a* and *b* at time *at*."""
        return self.add(FaultEvent(time=at, kind=FaultKind.LINK_UP, target=(a, b)))

    def crash_node(self, node_id: str, at: float) -> "FaultPlan":
        """Crash *node_id* (and fail all its links) at time *at*."""
        return self.add(FaultEvent(time=at, kind=FaultKind.NODE_CRASH,
                                   target=(node_id,)))

    def recover_node(self, node_id: str, at: float) -> "FaultPlan":
        """Recover *node_id* (and its crash-failed links) at time *at*."""
        return self.add(FaultEvent(time=at, kind=FaultKind.NODE_RECOVER,
                                   target=(node_id,)))

    def message_loss(self, start: float, end: float, prob: float,
                     jitter: float = 0.0) -> "FaultPlan":
        """Drop protocol messages with probability *prob* in [start, end).

        *jitter* additionally delays surviving messages by a uniform
        random amount in ``[0, jitter]``, reordering them.
        """
        if end <= start:
            raise FaultError(
                f"message-loss window must have end > start, got [{start}, {end})")
        self.add(FaultEvent(time=start, kind=FaultKind.LOSS_START,
                            loss_prob=prob, reorder_jitter=jitter))
        return self.add(FaultEvent(time=end, kind=FaultKind.LOSS_END))

    # -- access ------------------------------------------------------------------
    def events(self) -> List[FaultEvent]:
        """Events in execution order: by time, insertion order on ties."""
        return sorted(self._events, key=lambda e: e.time)

    def epochs(self) -> List[Tuple[float, List[FaultEvent]]]:
        """Events grouped by identical timestamp, in time order."""
        grouped: List[Tuple[float, List[FaultEvent]]] = []
        for event in self.events():
            if grouped and grouped[-1][0] == event.time:
                grouped[-1][1].append(event)
            else:
                grouped.append((event.time, [event]))
        return grouped

    # -- validation ---------------------------------------------------------------
    def validate(self, network: Network) -> None:
        """Check every event against *network*; raise :class:`FaultError`.

        Catches schedule mistakes before any state is mutated: unknown
        nodes, nonexistent links, negative or non-finite times, and
        out-of-range probabilities.
        """
        for event in self._events:
            if not math.isfinite(event.time) or event.time < 0.0:
                raise FaultError(
                    f"fault time must be finite and >= 0, got {event.time} "
                    f"({event.describe()})")
            if event.kind in _LINK_KINDS:
                if len(event.target) != 2:
                    raise FaultError(
                        f"{event.kind.value} needs a (node, node) target, "
                        f"got {event.target}")
                self._require_node(network, event.target[0])
                self._require_node(network, event.target[1])
                if network.link_between(*event.target) is None:
                    raise FaultError(
                        f"no link {event.target[0]}<->{event.target[1]} to fault")
            elif event.kind in _NODE_KINDS:
                if len(event.target) != 1:
                    raise FaultError(
                        f"{event.kind.value} needs a single-node target, "
                        f"got {event.target}")
                self._require_node(network, event.target[0])
            elif event.kind is FaultKind.LOSS_START:
                if not 0.0 <= event.loss_prob <= 1.0:
                    raise FaultError(
                        f"loss_prob must be in [0, 1], got {event.loss_prob}")
                if event.reorder_jitter < 0.0:
                    raise FaultError(
                        f"reorder_jitter must be >= 0, got {event.reorder_jitter}")

    @staticmethod
    def _require_node(network: Network, node_id: str) -> None:
        try:
            network.node(node_id)
        except TopologyError as exc:
            raise FaultError(f"fault targets unknown node {node_id!r}") from exc

    # -- serialization ---------------------------------------------------------------
    def to_json(self) -> str:
        return json.dumps([event.to_dict() for event in self.events()], indent=2)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FaultError(f"fault plan is not valid JSON: {exc}") from exc
        if not isinstance(data, list):
            raise FaultError("fault plan JSON must be a list of events")
        plan = cls()
        for item in data:
            plan.add(FaultEvent.from_dict(item))
        return plan
