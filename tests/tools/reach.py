"""List the functions of ``src/repro`` that no entry point calls.

Runs every entry point under one ``sys.setprofile`` hook — the 22
registered experiments at their defaults and at their parameter
extremes, the seven bench workloads in-process at a small scale traced
and untraced, every CLI line and Python block of README.md and
docs/api.md, and every ``examples/*.py`` ``main()`` — then walks
``src/repro`` with ``ast`` and prints each function no call entered,
with its line count.  Exit 1 if one has no reason in :data:`KEEP`, if
a reason names nothing unreached, or if an entry point raised.

    python tests/tools/reach.py
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import re
import runpy
import sys
import tempfile
import threading
from pathlib import Path
from typing import Iterator

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src" / "repro"
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

_ABSTRACT = "abstract hook: every subclass overrides it"
_LAST_MEMBER = "reaction to removing a domain's last anycast member"
_LINK_CHANGE = "reaction to a link change in a distance-vector domain"
_INPUT = "parses or rejects outside input"
_BENCH = "read by bench/harness.py (ROADMAP item 1 decides its fate)"
_GATES = "gate counts docs/performance.md and the gate tests read"
_CLAIM = "a test checks a docs/paper-map.md claim through it"
_TEXT = "str()/repr() for people: tracebacks, debuggers, test failures"
_TO_DICT = "the to_dict serialization contract (docs/api.md)"
_CANCEL = ("the scheduler's cancellation contract; going without it "
           "rewrites schedule/_pop_next, which every workload runs")
_LATER = "not pruned here: ROADMAP items 17 and 5 own it"
_OWN_TESTS = "only its own unit tests call it; ROADMAP item 16 retires both"

#: Unreached on purpose: qualified name (or package) -> one-line reason.
KEEP = {
    "repro.analyze": _LATER,
    "repro.lint": _LATER,
    "repro.obs": _LATER,
    "repro.anycast.service.AnycastScheme.allocate_address": _ABSTRACT,
    "repro.anycast.service.AnycastScheme.on_domain_joined": _ABSTRACT,
    "repro.anycast.service.AnycastScheme.on_domain_left": _ABSTRACT,
    "repro.routing.igp.IgpProtocol.start": _ABSTRACT,
    "repro.routing.igp.IgpProtocol.refresh": _ABSTRACT,
    "repro.routing.igp.IgpProtocol._routes": _ABSTRACT,
    "repro.net.simulator.ClockDriven.on_advance": _ABSTRACT,
    "repro.redirection.lookup.LookupService._serves": _ABSTRACT,
    "repro.redirection.lookup.LookupService._visible_members": _ABSTRACT,
    "repro.anycast.default_routes.DefaultRootedAnycast"
    ".withdraw_from_neighbor": _LAST_MEMBER,
    "repro.anycast.gia.GiaAnycast.on_domain_left": _LAST_MEMBER,
    "repro.anycast.global_routes.GlobalAnycast.on_domain_left": _LAST_MEMBER,
    "repro.bgp.policy.BilateralAgreements.remove": _LAST_MEMBER,
    "repro.routing.distancevector.DistanceVectorRouting._solicit":
        _LINK_CHANGE,
    "repro.routing.distancevector.DistanceVectorRouting._answer_solicit":
        _LINK_CHANGE,
    "repro.routing.distancevector.DistanceVectorRouting"
    "._react_to_link_change": _LINK_CHANGE,
    "repro.routing.igp.IgpProtocol._react_to_link_change": _LINK_CHANGE,
    "repro.net.simulator.EventScheduler._peek_time":
        "reaction to a fault epoch that starts while messages are queued",
    "repro.net.node._rank": "reaction to two protocols offering one prefix",
    "repro.net.node.RouteSource.admin_distance":
        "reaction to two protocols offering one prefix",
    "repro.net.errors.TTLExpiredError.__init__":
        "reaction to a TTL running out on a strict walk",
    "repro.faults.plan.FaultPlan.from_json": _INPUT,
    "repro.faults.plan.FaultPlan.to_json": _INPUT + " (writes what from_json"
                                                    " reads)",
    "repro.faults.plan.FaultEvent.from_dict": _INPUT,
    "repro.faults.plan.FaultEvent.to_dict": _INPUT + " (writes what from_dict"
                                                     " reads)",
    "repro.net.address._reject": _INPUT,
    "repro.schema._walk.mismatch": _INPUT,
    "repro.experiments.base.format_error": _INPUT + " (a fleet cell that "
                                                    "raises)",
    "repro.bgp.egress.grouped_install_enabled": _BENCH,
    "repro.net.fastpath.fastpath_enabled": _BENCH,
    "repro.perf.cache.caching_enabled": _BENCH,
    "repro.bgp.protocol.BgpProtocol.gate_stats": _GATES,
    "repro.routing.igp.IgpProtocol.gate_stats": _GATES,
    "repro.vnbone.routing.VnRouting.gate_stats": _GATES,
    "repro.net.domain.Domain.set_anycast_preference": _CLAIM,
    "repro.net.domain.Domain.clear_anycast_preferences": _CLAIM,
    "repro.routing.igp.IgpProtocol.member_directory": _CLAIM,
    "repro.routing.linkstate.LinkStateRouting.member_directory": _CLAIM,
    "repro.bgp.routes.BgpRoute.__str__": _TEXT,
    "repro.faults.injector.FaultRecord.__str__": _TEXT,
    "repro.net.address.IPv4Address.__repr__": _TEXT,
    "repro.net.address.Prefix.__repr__": _TEXT,
    "repro.net.address.VNAddress.__repr__": _TEXT,
    "repro.net.domain.Domain.__str__": _TEXT,
    "repro.net.forwarding.HopRecord.__str__": _TEXT,
    "repro.net.link.Link.__str__": _TEXT,
    "repro.net.node.Node.__str__": _TEXT,
    "repro.net.packet.IPv4Header.__str__": _TEXT,
    "repro.net.packet.Packet.__str__": _TEXT,
    "repro.net.forwarding.ForwardingTrace.to_dict": _TO_DICT,
    "repro.net.forwarding.HopRecord.to_dict": _TO_DICT,
    "repro.net.forwarding.MulticastTrace.to_dict": _TO_DICT,
    "repro.net.simulator.EventHandle.cancel": _CANCEL,
    "repro.net.simulator.EventHandle.cancelled": _CANCEL,
    "repro.net.simulator.EventHandle.time": _CANCEL,
    "repro.net.simulator.EventScheduler.__len__": _CANCEL,
    "repro.anycast.service.AnycastScheme.describe": _OWN_TESTS,
    "repro.anycast.service.AnycastScheme.members_in_domain": _OWN_TESTS,
    "repro.bgp.policy.BilateralAgreements.clear": _OWN_TESTS,
    "repro.bgp.policy.BilateralAgreements.partners_of": _OWN_TESTS,
    "repro.core.deployment.DeploymentSchedule.edge_first": _OWN_TESTS,
    "repro.core.deployment.DeploymentSchedule.random_order": _OWN_TESTS,
    "repro.core.deployment.ScenarioResult.last": _OWN_TESTS,
    "repro.core.metrics.outcome_histogram": _OWN_TESTS,
    "repro.core.metrics.routing_state_table": _OWN_TESTS,
    "repro.core.metrics.summarize": _OWN_TESTS,
    "repro.net.node.Host.leave_group": _OWN_TESTS,
    "repro.net.packet.Packet.vn_header": _OWN_TESTS,
    "repro.net.simulator.MessageStats.reset": _OWN_TESTS,
    "repro.topogen.intra.grid_domain": _OWN_TESTS,
    "repro.topogen.intra.ring_domain": _OWN_TESTS,
    "repro.topogen.intra.star_domain": _OWN_TESTS,
    "repro.vnbone.bgpvn.LayeredVnRouting.path": _OWN_TESTS,
    "repro.vnbone.deployment.VnDeployment.expand": _OWN_TESTS,
    "repro.vnbone.deployment.VnDeployment.state_of": _OWN_TESTS,
    "repro.vnbone.egress.HostRegistry.advertiser_of": _OWN_TESTS,
    "repro.vnbone.egress.HostRegistry.deregister": _OWN_TESTS,
    "repro.vnbone.egress.HostRegistry.registered_hosts": _OWN_TESTS,
    "repro.vnbone.multicast.VnMulticastService.leave": _OWN_TESTS,
    "repro.vnbone.state.native_domain_prefix": _OWN_TESTS,
}


def _run_entry_points(scratch: str) -> Iterator[tuple]:
    """(label, callable, args, kwargs) for every entry point."""
    from bench.spans import NullRecorder, Recorder
    from bench.workloads import WORKLOADS, Context
    from repro.cli import main
    from repro.experiments import all_specs, run

    low = {"int": 1, "float": None, "str": None}
    for spec in all_specs():
        yield f"experiment {spec.workload_id}", run, (spec.workload_id,), {}
        params = {name: (not p.default if p.kind == "bool" else low[p.kind])
                  for name, p in (spec.params or {}).items()}
        params = {k: v for k, v in params.items() if v is not None}
        if params:
            yield (f"experiment {spec.workload_id} {params}", run,
                   (spec.workload_id,), {"params": params})
    for recorder in (NullRecorder, Recorder):
        for name, workload in WORKLOADS.items():
            ctx = Context(seed=42, scale=0.05, rec=recorder(),
                          out_dir=Path(scratch))
            yield f"bench {name} {recorder.__name__}", workload, (ctx,), {}
    s = scratch
    matrix = str(ROOT / "examples" / "fleet_matrix.json")
    for line in (
            f"topology --save {s}/topo.json", f"topology --load {s}/topo.json",
            "trace", "trace --scheme global --deploy 1 2",
            "reachability --sample 20",
            "reachability --scheme global --sample 20 --json",
            "experiment", "experiment --list", "experiment F1",
            "obs --list", "obs --self-check",
            f"obs anycast_failover --trace {s}/run.jsonl --seed 7 "
            "--param pairs=20",
            f"report {s}/run.jsonl", f"report {s}/run.jsonl --json",
            f"report {s}/run.jsonl --check",
            f"obs rtt_catchment --param serving_victim=true "
            f"--trace {s}/probes.jsonl",
            f"report {s}/probes.jsonl --catchment --check",
            f"report {s}/probes.jsonl --catchment --json",
            "lint src --json", "lint --list-rules",
            "lint src/repro/bgp --rule D3 --rule D4",
            f"fleet --matrix {matrix} --workers 1 --out {s}/serial.json",
            f"fleet --matrix {matrix} --workers 2 --cache-dir {s}/cache "
            f"--out {s}/fanned.json",
            f"fleet --matrix {matrix} --workers 2 --cache-dir {s}/cache "
            f"--out {s}/fanned.json",
            f"fleet --matrix {matrix} --traces {s}/traces --quiet "
            f"--out {s}/traced.json"):
        yield f"repro {line}", main, (line.split(),), {}
    for doc in ("README.md", "docs/api.md"):
        text = (ROOT / doc).read_text(encoding="utf-8")
        for block in re.findall(r"```python\n(.*?)```", text, re.S):
            yield f"{doc} block", exec, (block, {}), {}
    for script in sorted((ROOT / "examples").glob("*.py")):
        main_of = runpy.run_path(str(script))["main"]
        yield f"example {script.name}", main_of, (), {}


def reached_code() -> tuple:
    """(file, first line) of every code object the entry points entered,
    and the labels of the entry points that raised."""
    codes: dict = {}
    failed = []

    def hook(frame, event, arg):
        if event == "call":
            codes[id(frame.f_code)] = frame.f_code

    os.chdir(ROOT)
    sys.setprofile(hook)  # before the imports: registration runs in them
    threading.setprofile(hook)
    with tempfile.TemporaryDirectory(prefix="reach-") as scratch:
        for label, fn, args, kwargs in _run_entry_points(scratch):
            try:
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    fn(*args, **kwargs)
            except SystemExit:  # a CLI line may exit non-zero
                pass
            except Exception as exc:
                print(f"entry point failed: {label}: {exc!r}")
                failed.append(label)
    sys.setprofile(None)
    threading.setprofile(None)
    return ({(os.path.realpath(code.co_filename), code.co_firstlineno)
             for code in codes.values()}, failed)


def defined_functions():
    """Yield (qualified name, file, first line, line count) per def."""
    for path in sorted(SRC.rglob("*.py")):
        module = ".".join(path.relative_to(SRC.parent).with_suffix("").parts)
        module = module.removesuffix(".__init__")
        stack = [(module, ast.parse(path.read_text(encoding="utf-8")))]
        while stack:
            prefix, node = stack.pop()
            for child in ast.iter_child_nodes(node):
                name = f"{prefix}.{getattr(child, 'name', '')}"
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in
                                                  child.decorator_list])
                    yield (name, os.path.realpath(path), first,
                           child.end_lineno - first + 1)
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                      ast.ClassDef)):
                    stack.append((name, child))
                elif not isinstance(child, ast.expr):
                    stack.append((prefix, child))


def _reason(name: str):
    parts = name.split(".")
    for end in range(len(parts), 0, -1):
        if ".".join(parts[:end]) in KEEP:
            return KEEP[".".join(parts[:end])]
    return None


def main() -> int:
    reached, failed = reached_code()
    unreached = [(name, lines) for name, path, first, lines
                 in defined_functions() if (path, first) not in reached]
    missing = 0
    for name, lines in sorted(unreached):
        reason = _reason(name)
        missing += reason is None
        print(f"{lines:5d}  {name}" + (f"  # {reason}" if reason else ""))
    names = {name for name, _ in unreached}
    stale = sorted(key for key in KEEP
                   if not any(n == key or n.startswith(key + ".")
                              for n in names))
    for key in stale:
        print(f"KEEP names nothing unreached: {key}")
    print(f"{len(unreached)} unreached functions, "
          f"{sum(lines for _, lines in unreached)} lines; "
          f"{missing} without a reason")
    return 1 if missing or stale or failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
