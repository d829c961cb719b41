"""One workload repetition in a fresh process.

``python -m bench.child --workload NAME --seed N --scale X`` runs the
calibration kernel, the workload, the kernel again, and prints one JSON
object on the last line of stdout.  The harness (:mod:`bench.harness`)
is the only caller.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from bench.calib import calibrate
from bench.registry import BUILD_BUDGET, CELL_BUDGET
from bench.spans import NullRecorder, Recorder

#: Taken before anything of ``repro`` is imported (that happens in main).
_STARTED_AT = time.clock_gettime(time.CLOCK_MONOTONIC)


def sim_digest(sim: Dict[str, object]) -> str:
    """sha256 of the canonical JSON of a workload's simulated statistics."""
    text = json.dumps(sim, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench.child")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out-dir", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--inject-drop", action="store_true")
    parser.add_argument("--cell-budget", type=int, default=CELL_BUDGET)
    parser.add_argument("--build-budget", type=int, default=BUILD_BUDGET)
    args = parser.parse_args(argv)

    rec = Recorder() if args.trace else NullRecorder()
    calib: List[float] = []
    with rec.span("bench.run"):
        with rec.span("bench.imports"):
            from bench import workloads
        ctx = workloads.Context(
            seed=args.seed, scale=args.scale, rec=rec, out_dir=args.out_dir,
            cell_budget=args.cell_budget, build_budget=args.build_budget,
            inject_drop=args.inject_drop, setup_only=args.setup_only)
        calibrating_s = 0.0
        if not args.setup_only:
            begun = time.perf_counter()
            calib.append(rec.call("bench.calib", calibrate))
            calibrating_s = time.perf_counter() - begun
        try:
            outcome = workloads.WORKLOADS[args.workload](ctx)
        except workloads.SetupDone:
            print(json.dumps({"ready_at": ctx.ready_at}))
            return 0
        calib.append(rec.call("bench.calib", calibrate))
    finished_at = time.clock_gettime(time.CLOCK_MONOTONIC)

    result: Dict[str, object] = {
        "workload": args.workload, "seed": args.seed, "scale": args.scale,
        "traced": bool(args.trace),
        # The first calibration ran inside the set-up window.
        "ready_at": ctx.ready_at - calibrating_s,
        "calib_s": calib,
        "op_seconds": outcome.op_seconds,
        "other_seconds": outcome.other_seconds,
        "ops_per_sample": outcome.ops_per_sample,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": outcome.attempted, "failed": outcome.failed,
        "sim_digest": sim_digest(outcome.sim),
        "sizes": outcome.sizes,
        "counts": outcome.counts,
    }
    if isinstance(rec, Recorder):
        from bench.attribution import per_layer
        result["per_layer"] = per_layer(
            rec, outcome, statistics.median(calib), finished_at - _STARTED_AT)
        result["self_by_layer_s"] = rec.self_by_layer()
        spans_path = args.out_dir / f"{args.workload}.spans.jsonl"
        rec.write(spans_path)
        result["spans_file"] = str(spans_path)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
