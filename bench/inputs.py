"""Seeded input generation: flows, fault plan, probe plan.

Every input a workload feeds the program is made here from ``--seed``;
the program receives only the generated values.  Each kind of input has
its own random stream, so changing one size leaves the others alone.
"""

from __future__ import annotations

import random
from typing import List, Sequence, Tuple

from repro.faults import FaultPlan
from repro.measure import ProbePlan, ProbeTarget
from repro.net.address import IPv4Address

Pair = Tuple[str, str]

#: Simulated seconds between a fault and its repair, and between pairs;
#: hold-down plus reconvergence takes about 5.
FAULT_GAP = 30.0
PROBE_INTERVAL = 5.0

FLOWS, CHECK, _UNIQUE, _FAULTS, _VANTAGES = range(1, 6)


def _rng(seed: int, stream: int) -> random.Random:
    return random.Random(seed * 1_000_003 + stream)


def host_pairs(hosts: Sequence[str], count: int, seed: int,
               stream: int = FLOWS) -> List[Pair]:
    """*count* ordered host pairs, drawn with replacement.  *stream* is
    :data:`FLOWS` for traffic or :data:`CHECK` for a reachability check."""
    rng = _rng(seed, stream)
    return [tuple(rng.sample(hosts, 2)) for _ in range(count)]  # type: ignore[misc]


def distinct_pairs(hosts: Sequence[str], count: int, seed: int) -> List[Pair]:
    """*count* distinct ordered host pairs (at most every pair there is)."""
    n = len(hosts)
    count = min(count, n * (n - 1))
    picks = _rng(seed, _UNIQUE).sample(range(n * (n - 1)), count)
    pairs: List[Pair] = []
    for pick in picks:
        src, offset = divmod(pick, n - 1)
        dst = offset if offset < src else offset + 1
        pairs.append((hosts[src], hosts[dst]))
    return pairs


def fault_plans(core_links: Sequence[Pair], crash_candidates: Sequence[str],
                link_pairs: int, seed: int
                ) -> Tuple[FaultPlan, FaultPlan, str]:
    """A one-pair warm-up plan, the measured plan, and its crashed node.

    The measured plan is *link_pairs* link down/up pairs, then one node
    crash/recover.  Every fault is repaired before the next one, so each
    second epoch leaves the world whole.  Times are relative to each
    plan's own ``play()``.
    """
    rng = _rng(seed, _FAULTS)
    links = rng.sample(list(core_links), min(link_pairs + 1, len(core_links)))
    warmup = FaultPlan()
    warmup.link_down(*links[0], at=FAULT_GAP)
    warmup.link_up(*links[0], at=2 * FAULT_GAP)
    plan = FaultPlan()
    at = FAULT_GAP
    for a, b in links[1:]:
        plan.link_down(a, b, at=at)
        plan.link_up(a, b, at=at + FAULT_GAP)
        at += 2 * FAULT_GAP
    victim = rng.choice(list(crash_candidates))
    plan.crash_node(victim, at=at)
    plan.recover_node(victim, at=at + FAULT_GAP)
    return warmup, plan, victim


def probe_plan(hosts: Sequence[str], vantages: int, anycast: IPv4Address,
               duration: float, seed: int) -> ProbePlan:
    """*vantages* hosts probing the anycast address for *duration* sim-s."""
    chosen = _rng(seed, _VANTAGES).sample(list(hosts),
                                          min(vantages, len(hosts)))
    return ProbePlan(
        vantages=tuple(chosen),
        targets=(ProbeTarget(name="A_N", dst=anycast, kind="anycast"),),
        interval=PROBE_INTERVAL,
        rounds=int(duration / PROBE_INTERVAL) + 1)
