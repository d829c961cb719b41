"""Command-line interface: ``python -m repro <command>``.

A thin shell over the library and the one workload registry
(:mod:`repro.experiments`); a scenario is defined there, not here:

* ``topology`` — generate (or load) an internetwork and describe it;
* ``trace`` — deploy IPvN in selected ISPs and trace one packet;
* ``reachability`` — measure universal access over sampled host pairs;
* ``experiment`` — run registered workloads (figures, claims, the
  ``anycast_failover`` and ``rtt_catchment`` scenarios) and print tables;
* ``obs`` — run one registered workload under the observability layer:
  structured JSONL trace plus a metrics summary (scheduler event counts,
  SPF recomputations, per-outcome forwarding counters, ...);
* ``report`` — analyze a JSONL trace offline (:mod:`repro.analyze`):
  per-epoch critical paths, forwarding distributions, blackhole/loop
  detection, and the convergence timeline, as human tables or a
  schema-validated ``repro.report/v1`` document; ``--catchment``
  instead builds the anycast catchment observatory document
  (``repro.catchment/v1``) from the trace's ``probe.rtt`` events;
* ``lint`` — run the determinism & invariant linter
  (:mod:`repro.lint`) over the source tree: the seeded-RNG,
  wall-clock, iteration-order, obs-guard, and public-API rules
  (D1–D5), the whole-program fleet-safety family (P1–P3), and the
  unused-suppression check (W1), in one pass;
* ``fleet`` — fan a declarative ``repro.matrix/v1`` workload matrix
  (:mod:`repro.fleet`) across worker processes and merge the per-cell
  artifacts into one deterministic ``repro.fleet/v1`` report: the same
  matrix yields byte-identical reports at any ``--workers`` count.

Every command is seeded and deterministic; ``--save``/``--load`` move
topologies through the JSON format in :mod:`repro.net.serialize`; all
JSON output goes through the shared ``to_dict()``/``json_safe``
serialization contract.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.core.evolution import EvolvableInternet
from repro.net.errors import ReproError
from repro.net.serialize import load_network, save_network
from repro.topogen import InternetSpec


def _add_topology_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0, help="generator seed")
    parser.add_argument("--tier1", type=int, default=3, help="tier-1 count")
    parser.add_argument("--tier2", type=int, default=6, help="tier-2 count")
    parser.add_argument("--stubs", type=int, default=12, help="stub count")
    parser.add_argument("--hosts", type=int, default=2, help="hosts per stub")
    parser.add_argument("--load", metavar="FILE",
                        help="load a topology JSON instead of generating")


def _build_internet(args: argparse.Namespace) -> EvolvableInternet:
    if args.load:
        return EvolvableInternet(load_network(args.load), seed=args.seed)
    spec = InternetSpec(n_tier1=args.tier1, n_tier2=args.tier2,
                        n_stub=args.stubs, hosts_per_stub=args.hosts,
                        seed=args.seed)
    return EvolvableInternet.generate(spec, seed=args.seed)


def _deploy(internet: EvolvableInternet, args: argparse.Namespace):
    deployment = internet.new_deployment(version=args.version,
                                         scheme=args.scheme)
    adopters = args.deploy
    if not adopters:
        adopters = [getattr(deployment.scheme, "default_asn", None)
                    or internet.tier1_asns()[0]]
    for asn in adopters:
        deployment.deploy(asn)
    deployment.rebuild()
    return deployment


def _add_deploy_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--version", type=int, default=8,
                        help="IPvN version number (default 8)")
    parser.add_argument("--scheme", choices=("default", "global"),
                        default="default", help="anycast scheme")
    parser.add_argument("--deploy", type=int, nargs="*", metavar="ASN",
                        help="adopting ASNs (default: the default ISP)")


def cmd_topology(args: argparse.Namespace) -> int:
    internet = _build_internet(args)
    stats = internet.network.stats()
    print(f"domains: {stats['domains']}  routers: {stats['routers']}  "
          f"hosts: {stats['hosts']}  links: {stats['links']} "
          f"({stats['inter_domain_links']} inter-domain)")
    for asn in sorted(internet.network.domains):
        domain = internet.network.domains[asn]
        rels = ", ".join(f"AS{n}:{r.value}" for n, r in
                         sorted(domain.relationships.items()))
        print(f"  AS{asn} tier{domain.tier} {domain.prefix} "
              f"routers={len(domain.routers)} hosts={len(domain.hosts)} "
              f"[{rels}]")
    if args.save:
        save_network(internet.network, args.save)
        print(f"saved topology to {args.save}")
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    internet = _build_internet(args)
    deployment = _deploy(internet, args)
    hosts = internet.hosts()
    src = args.src or hosts[0]
    dst = args.dst or hosts[-1]
    trace = deployment.send(src, dst)
    print(f"IPv{args.version} {src} -> {dst} via anycast "
          f"{deployment.scheme.address}:")
    print(trace)
    return 0 if trace.delivered else 1


def cmd_reachability(args: argparse.Namespace) -> int:
    internet = _build_internet(args)
    deployment = _deploy(internet, args)
    report = internet.reachability(args.version, sample=args.sample,
                                   seed=args.seed)
    if args.json:
        import json

        print(json.dumps({"adopters": sorted(deployment.adopting_asns()),
                          "report": report.to_dict()},
                         indent=2, sort_keys=True))
        return 0 if report.delivery_ratio == 1.0 else 1
    print(f"adopters: {sorted(deployment.adopting_asns())}")
    print(f"host pairs attempted: {report.attempted}")
    print(f"delivered: {report.delivery_ratio:.1%}")
    if report.mean_stretch is not None:
        print(f"mean stretch: {report.mean_stretch:.2f}  "
              f"median: {report.median_stretch:.2f}  "
              f"max: {report.max_stretch:.2f}")
    for outcome, count in sorted(report.failures.items()):
        print(f"failures[{outcome}]: {count}")
    return 0 if report.delivery_ratio == 1.0 else 1


def cmd_experiment(args: argparse.Namespace) -> int:
    from repro.experiments import available, describe, run

    if args.list or not args.ids:
        for experiment_id in available():
            print(f"{experiment_id:>5}  {describe(experiment_id)}")
        return 0
    for experiment_id in args.ids:
        result = run(experiment_id)
        print(result.table())
        print()
    return 0


#: Counters the self-check requires after a traced anycast_failover run.
_SELF_CHECK_COUNTERS = ("scheduler.events_scheduled", "scheduler.events_fired",
                        "igp.ls.spf_runs", "forwarding.outcome.delivered",
                        "faults.applied", "vnbone.rebuilds")

#: Span kinds the self-check requires in the same run's trace.
_SELF_CHECK_SPANS = ("experiment", "fault.epoch", "fault.apply",
                     "fault.workload", "fault.reconverge", "igp.holddown",
                     "vnbone.rebuild", "orchestrator.reconverge", "forward")


def _parse_params(pairs) -> dict:
    """``k=v`` pairs with JSON-typed values (``k=3`` is an int)."""
    import json

    params = {}
    for pair in pairs or ():
        if "=" not in pair:
            raise SystemExit(f"--param needs k=v, got {pair!r}")
        key, _, raw = pair.partition("=")
        try:
            params[key] = json.loads(raw)
        except json.JSONDecodeError:
            params[key] = raw
    return params


def cmd_obs(args: argparse.Namespace) -> int:
    """Run one experiment under the observability layer.

    Prints a JSON summary (experiment result + metrics snapshot) and,
    with ``--trace``, writes and validates the structured JSONL trace.
    """
    import json

    from repro.experiments import available, describe, run
    from repro.obs import Observability, Tracer, validate_trace

    if args.list:
        for experiment_id in available():
            print(f"{experiment_id:>16}  {describe(experiment_id)}")
        return 0
    if args.self_check:
        return _obs_self_check(args)
    if not args.id:
        print("obs: give an experiment id, --list, or --self-check")
        return 2
    params = _parse_params(args.param)
    tracer = None
    if args.trace:
        tracer = Tracer(args.trace, context={
            "experiment": args.id, "seed": args.seed, "params": params})
    obs = Observability(tracer=tracer)
    result = run(args.id, seed=args.seed, params=params or None, obs=obs)
    obs.close()
    errors = []
    if args.trace:
        errors = validate_trace(args.trace)
    summary = result.to_dict()
    summary["trace_valid"] = not errors if args.trace else None
    if errors:
        summary["trace_errors"] = errors[:10]
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 1 if errors else 0


def _obs_self_check(args: argparse.Namespace) -> int:
    """Smoke-test the observability pipeline end to end (CI hook).

    Traces the acceptance scenario once, then checks the trace schema,
    the span causality invariants (every ``span.end`` has a matching
    ``span.start``, parents precede children, no orphan ``parent_id``),
    that every expected counter moved and span kind appeared, and that
    some ``forward`` event carries ``hops_at`` and every one resolves.
    """
    import json
    import os
    import tempfile
    from collections import Counter

    from repro.analyze import resolve_hops
    from repro.experiments import run
    from repro.obs import (Observability, SPAN_START, Tracer,
                           validate_span_events, validate_trace_lines)

    with tempfile.TemporaryDirectory(prefix="repro-obs-") as scratch:
        path = os.path.join(scratch, "trace.jsonl")
        obs = Observability(tracer=Tracer(path, context={
            "experiment": "anycast_failover", "seed": args.seed,
            "self_check": True}))
        result = run("anycast_failover", seed=args.seed, obs=obs)
        obs.close()
        with open(path, encoding="utf-8") as trace:
            lines = trace.readlines()
    errors = validate_trace_lines(lines)
    span_kinds: Counter = Counter()
    hops_at = 0
    if not errors:  # schema-valid: every line is one JSON object
        events = [json.loads(line) for line in lines]
        errors.extend(validate_span_events(events))
        span_kinds.update(
            event["name"] for event in events
            if event["kind"] == SPAN_START
            and isinstance(event.get("name"), str))
        errors.extend(f"expected span kind {name!r} in the trace"
                      for name in _SELF_CHECK_SPANS if not span_kinds[name])
        hops_at = sum("hops_at" in event for event in events)
        if not hops_at:
            errors.append("expected a forward event with 'hops_at'")
        errors.extend(f"seq {event['seq']}: hops_at does not resolve"
                      for event in resolve_hops(events)
                      if "hops_at" in event)
    counters = result.metrics.get("counters", {})
    errors.extend(f"expected counter {name!r} to be nonzero"
                  for name in _SELF_CHECK_COUNTERS if not counters.get(name))
    status = {"ok": not errors, "trace_events": len(lines),
              "hops_at": hops_at,
              "counters_checked": list(_SELF_CHECK_COUNTERS),
              "spans": sum(span_kinds.values()),
              "span_kinds": dict(sorted(span_kinds.items()))}
    if errors:
        status["errors"] = errors[:10]
    print(json.dumps(status, indent=2, sort_keys=True))
    return 0 if not errors else 1


def cmd_report(args: argparse.Namespace) -> int:
    """Analyze a JSONL trace offline (``repro.report/v1``).

    ``--check`` additionally validates the trace schema, the span
    causality invariants, and the built report document, exiting 1 on
    any problem — the CI report-smoke gate.  ``--catchment`` switches
    the analysis to the anycast catchment observatory: the trace's
    ``probe.rtt`` events and ``fault.apply`` boundaries become a
    ``repro.catchment/v1`` document instead.
    """
    import json

    from repro.analyze import (build_report, catchment_from_trace,
                               render_catchment, render_report,
                               validate_catchment_dict, validate_report_dict)
    from repro.obs import validate_spans, validate_trace

    errors: List[str] = []
    if args.check:
        errors.extend(validate_trace(args.trace))
        errors.extend(validate_spans(args.trace))
    if args.catchment:
        doc = catchment_from_trace(args.trace)
        if args.check:
            errors.extend(validate_catchment_dict(doc))
        rendered = render_catchment(doc)
    else:
        doc = build_report(args.trace)
        if args.check:
            errors.extend(validate_report_dict(doc))
        rendered = render_report(doc)
    if args.json:
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(rendered)
    if errors:
        for problem in errors[:20]:
            print(f"report: {problem}", file=sys.stderr)
        if len(errors) > 20:
            print(f"report: ... {len(errors) - 20} more problems",
                  file=sys.stderr)
        return 1
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    """Run the determinism & invariant linter (the CI correctness gate).

    Exit status 0 means every checked file parsed and no unsuppressed
    finding remains; 1 means findings (or parse errors); 2 means the
    invocation itself was bad (unknown rule, missing path).
    """
    from repro.lint import (lint_paths, render_human, render_json,
                            render_rule_list)

    if args.list_rules:
        print(render_rule_list())
        return 0
    report = lint_paths(args.paths or ["src"], rule_ids=args.rule)
    print(render_json(report) if args.json else render_human(report))
    return 0 if report.ok else 1


def cmd_fleet(args: argparse.Namespace) -> int:
    """Fan a workload matrix across worker processes and merge it.

    Reads a ``repro.matrix/v1`` file, executes every cell (optionally
    cached under ``--cache-dir`` and traced under ``--traces``), writes
    the merged ``repro.fleet/v1`` report, and validates it.  Exit 0
    means every cell succeeded and the report validates; failed cells
    (isolated, never aborting the sweep) exit 1; a malformed matrix or
    invocation exits 2.
    """
    import json

    from repro.fleet import (FleetMatrix, run_fleet, validate_fleet_dict,
                             write_fleet)

    def progress(record: dict) -> None:
        state = "ok" if record["ok"] else f"FAIL ({record['error']})"
        print(f"fleet: {record['name']} {record['workload_id']} "
              f"seed={record['seed']} params={record['params']} {state}",
              file=sys.stderr)

    matrix = FleetMatrix.from_file(args.matrix)
    doc = run_fleet(matrix, workers=args.workers, traces_dir=args.traces,
                    cache_dir=args.cache_dir,
                    progress=None if args.quiet else progress)
    errors = validate_fleet_dict(doc)
    write_fleet(doc, args.out)
    totals: dict = doc["totals"]  # type: ignore[assignment]
    status = {"ok": not errors and not totals["failed"], "out": args.out,
              "spec_hash": doc["spec_hash"], "totals": totals}
    if errors:
        status["errors"] = errors[:10]
    print(json.dumps(status, indent=2, sort_keys=True))
    return 0 if status["ok"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Towards an Evolvable Internet "
                    "Architecture' (SIGCOMM 2005)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_topo = sub.add_parser("topology", help="generate/describe a topology")
    _add_topology_options(p_topo)
    p_topo.add_argument("--save", metavar="FILE", help="save topology JSON")
    p_topo.set_defaults(func=cmd_topology)

    p_trace = sub.add_parser("trace", help="trace one IPvN packet")
    _add_topology_options(p_trace)
    _add_deploy_options(p_trace)
    p_trace.add_argument("--src", help="source host id")
    p_trace.add_argument("--dst", help="destination host id")
    p_trace.set_defaults(func=cmd_trace)

    p_reach = sub.add_parser("reachability",
                             help="measure IPvN universal access")
    _add_topology_options(p_reach)
    _add_deploy_options(p_reach)
    p_reach.add_argument("--sample", type=int, default=100,
                         help="host pairs to sample")
    p_reach.add_argument("--json", action="store_true",
                         help="print the report as JSON")
    p_reach.set_defaults(func=cmd_reachability)

    p_exp = sub.add_parser("experiment",
                           help="run reproduced experiments by id")
    p_exp.add_argument("ids", nargs="*", metavar="ID",
                       help="experiment ids (e.g. F1 E5 E12a); empty lists "
                            "the registry")
    p_exp.add_argument("--list", action="store_true",
                       help="list available experiments")
    p_exp.set_defaults(func=cmd_experiment)

    p_obs = sub.add_parser(
        "obs", help="run an experiment under the observability layer")
    p_obs.add_argument("id", nargs="?", metavar="ID",
                       help="experiment id (e.g. anycast_failover, F1)")
    p_obs.add_argument("--trace", metavar="FILE",
                       help="write the structured JSONL trace here")
    p_obs.add_argument("--seed", type=int, default=None,
                       help="seed threaded to new-style runners")
    p_obs.add_argument("--param", action="append", metavar="K=V",
                       help="experiment parameter (repeatable; JSON values)")
    p_obs.add_argument("--list", action="store_true",
                       help="list available experiments")
    p_obs.add_argument("--self-check", action="store_true",
                       help="smoke-test the observability pipeline (CI)")
    p_obs.set_defaults(func=cmd_obs)

    p_report = sub.add_parser(
        "report", help="analyze a JSONL trace offline (repro.report/v1)")
    p_report.add_argument("trace", metavar="TRACE",
                          help="path to a JSONL trace file")
    p_report.add_argument("--json", action="store_true",
                          help="emit the repro.report/v1 JSON document")
    p_report.add_argument("--check", action="store_true",
                          help="validate trace schema, span invariants, "
                               "and the report document (exit 1 on any)")
    p_report.add_argument("--catchment", action="store_true",
                          help="build the repro.catchment/v1 anycast "
                               "catchment document from the trace's "
                               "probe.rtt events instead")
    p_report.set_defaults(func=cmd_report)

    p_lint = sub.add_parser(
        "lint", help="run the determinism & invariant linter "
                     "(D1-D5, P1-P3, W1)")
    p_lint.add_argument("paths", nargs="*", metavar="PATH",
                        help="files or directories to lint (default: src)")
    p_lint.add_argument("--json", action="store_true",
                        help="emit the repro.lint/v1 JSON report")
    p_lint.add_argument("--rule", action="append", metavar="ID",
                        help="run only this rule (repeatable, e.g. D1 or P1)")
    p_lint.add_argument("--list-rules", action="store_true",
                        help="list rule ids and descriptions")
    p_lint.set_defaults(func=cmd_lint)

    p_fleet = sub.add_parser(
        "fleet", help="fan a workload matrix across worker processes "
                      "(repro.fleet/v1)")
    p_fleet.add_argument("--matrix", required=True, metavar="FILE",
                         help="repro.matrix/v1 JSON file")
    p_fleet.add_argument("--workers", type=int, default=1,
                         help="worker processes (default 1; the merged "
                              "report is byte-identical at any count)")
    p_fleet.add_argument("--out", metavar="FILE", default="FLEET.json",
                         help="merged report path (default FLEET.json)")
    p_fleet.add_argument("--cache-dir", metavar="DIR", default=None,
                         help="resume cache keyed by the matrix spec hash")
    p_fleet.add_argument("--traces", metavar="DIR", default=None,
                         help="write one JSONL trace per cell here")
    p_fleet.add_argument("--quiet", action="store_true",
                         help="suppress per-cell progress on stderr")
    p_fleet.set_defaults(func=cmd_fleet)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Run one command.  A library error (a missing or malformed input
    file, an unknown node, a bad matrix) prints ``<command>: <message>``
    on stderr and exits 2."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
