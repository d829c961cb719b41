"""Command line: the full pass, the driver's single run, and ``compare``.

    python -m bench [--traced] [--seed N] [--seconds S] [--reps R] [--only W ...]
    python -m bench --workload W --seed N --seconds S --trace 0|1
    python -m bench compare A.json B.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from bench.registry import REPS, RUN_SECONDS, workload_names

ROOT = Path(__file__).resolve().parent.parent


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python -m bench",
                                     description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=float(RUN_SECONDS),
                        help="measuring time of one run; sizes scale with it")
    parser.add_argument("--reps", type=int, default=REPS,
                        help="fresh processes per workload")
    parser.add_argument("--traced", action="store_true",
                        help="per-layer attribution run")
    parser.add_argument("--only", nargs="+", choices=workload_names(),
                        metavar="WORKLOAD")
    parser.add_argument("--out", type=Path,
                        help="result file (default bench/out/<time>.json)")
    driver = parser.add_argument_group("single run (benchmark driver)")
    driver.add_argument("--workload", choices=workload_names())
    driver.add_argument("--trace", type=int, choices=(0, 1), default=0)
    tiny = parser.add_argument_group("self-test")
    tiny.add_argument("--cell-budget", type=int)
    tiny.add_argument("--build-budget", type=int)
    tiny.add_argument("--inject-drop", action="store_true")
    return parser


def _child_extra(args: argparse.Namespace) -> List[str]:
    extra: List[str] = []
    if args.cell_budget is not None:
        extra += ["--cell-budget", str(args.cell_budget)]
    if args.build_budget is not None:
        extra += ["--build-budget", str(args.build_budget)]
    if args.inject_drop:
        extra.append("--inject-drop")
    return extra


def _print_untraced(doc: Dict[str, Any]) -> None:
    print(f"{'workload':<12} {'metric':<13} {'unit':<9} {'value':>12} "
          f"{'min':>12} {'max':>12}  n")
    for name, run in doc["workloads"].items():
        sizes = ", ".join(f"{k}={v}" for k, v in run["sizes"].items())
        print(f"# {name}: {run['operation']}; {sizes}; "
              f"{run['samples_per_rep']} timed samples per repetition; "
              f"sim_digest {str(run['sim_digest'])[:12]}"
              + (f"; {run['noisy_reps']} noisy" if run["noisy_reps"] else ""))
        rows = dict(run["end_to_end"], ops_per_calib=run["ops_per_calib"])
        for metric, row in rows.items():
            print(f"{name:<12} {metric:<13} {row['unit']:<9} "
                  f"{row['value']:>12.6g} {row['min']:>12.6g} "
                  f"{row['max']:>12.6g}  {len(row['values'])}")


def _print_traced(doc: Dict[str, Any]) -> None:
    for name, run in doc["workloads"].items():
        print(f"# {name}: spans in {run['spans_file']}")
        for metric, row in run["per_layer"].items():
            print(f"{name:<12} {metric:<34} {row['value']:>14.6g} "
                  f"{row['unit']}")


def _healthy(doc: Dict[str, Any]) -> bool:
    ok = True
    for name, run in doc["workloads"].items():
        if run["failed"]:
            print(f"FAILED: {name}: {run['failed']} of {run['attempted']} "
                  "operations failed", file=sys.stderr)
            ok = False
        stable = run.get("end_to_end", {}).get("sim_stable")
        if stable is not None and stable["value"] != 1.0:
            print(f"FAILED: {name}: repetitions disagree on sim_digest "
                  f"{run['sim_digests']}", file=sys.stderr)
            ok = False
    return ok


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        from bench.compare import main as compare_main
        return compare_main(argv[1:])
    args = _parser().parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        print(f"bench: no program to measure: {src / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from bench import harness

    extra = _child_extra(args)
    if args.workload is not None:
        line = harness.driver_line(args.workload, args.seed, args.seconds,
                                   args.reps, bool(args.trace), extra)
        print(json.dumps(line))
        return 0 if line["correct"] else 1

    doc = harness.full_pass(args.seed, args.seconds, args.reps, args.traced,
                            args.only, extra)
    out = args.out or harness.OUT_DIR / time.strftime(
        "traced-%Y%m%dT%H%M%S.json" if args.traced
        else "result-%Y%m%dT%H%M%S.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    prov = doc["provenance"]
    print(f"# bench {prov['git_revision'][:12]} python {prov['python']} "
          f"nproc {prov['nproc']} seed {prov['seed']} "
          f"seconds {prov['seconds']} reps {prov['reps']} "
          f"switches {prov['switches']}")
    (_print_traced if args.traced else _print_untraced)(doc)
    print(f"# wrote {out}")
    return 0 if _healthy(doc) else 1
