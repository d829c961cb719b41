"""Runs workload repetitions in fresh processes and aggregates them.

Never more than one busy process: children run one after another.  A
run of a workload is ``reps`` repetitions at the same seed (their
``sim_digest`` must agree — that is ``sim_stable``) plus set-up-only
processes until there are :data:`~bench.registry.SETUP_SAMPLES` set-up
times.  A
traced run is one traced repetition plus an untraced reference of the
same size for the tracing overhead.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from bench.calib import NOISE_LIMIT
from bench.registry import (BOUNDED_END_TO_END, END_TO_END, PER_LAYER,
                            RUN_SECONDS,
                            SETUP_SAMPLES, WORKLOADS, workload_names)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / "bench" / "out"
RESULT_SCHEMA = "bench.result/v1"
#: Size of the plain ``ua_traffic`` process that ``traced_ua``'s traced
#: run compares with, relative to the run: its packets all cost the same.
PLAIN_SCALE = 0.3
#: The contract gives a run 180 s; a child that takes longer is stuck.
CHILD_TIMEOUT_S = 170

#: A child's JSON result.
Rep = Dict[str, Any]


class BenchError(Exception):
    """A workload process failed to produce a result."""


def _child(workload: str, seed: int, scale: float, trace: bool = False,
           extra: Sequence[str] = (), hash_seed: int = 1) -> Rep:
    """Run one workload process; its result plus ``setup_s``.

    *hash_seed* fixes ``PYTHONHASHSEED``: the repetitions of a run use
    different ones, so ``sim_stable`` still catches hash-order dependence,
    but the same ones in every run, so timings do not move with it.
    """
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed),
               PYTHONPATH=os.pathsep.join([str(SRC), str(ROOT)]))
    argv = [sys.executable, "-m", "bench.child", "--workload", workload,
            "--seed", str(seed), "--scale", repr(scale),
            "--trace", str(int(trace)), "--out-dir", str(OUT_DIR), *extra]
    spawned_at = time.clock_gettime(time.CLOCK_MONOTONIC)
    done = subprocess.run(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          text=True, timeout=CHILD_TIMEOUT_S, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchError(f"{workload}: child exited {done.returncode}")
    rep: Rep = json.loads(lines[-1])
    rep["setup_s"] = rep["ready_at"] - spawned_at
    calib: List[float] = rep.get("calib_s", [])
    if calib:
        rep["noisy"] = abs(calib[1] - calib[0]) / min(calib) > NOISE_LIMIT
    return rep


def _rates(samples: Sequence[float], other: Sequence[float],
           ops_per_sample: int) -> Dict[str, float]:
    """Throughput and median operation time of one timed phase."""
    operations = len(samples) * ops_per_sample
    return {"ops_per_s": operations / (sum(samples) + sum(other)),
            "op_p50_ms": statistics.median(samples) / ops_per_sample * 1e3}


def _rep_rates(rep: Rep) -> Dict[str, float]:
    return _rates(rep["op_seconds"], rep["other_seconds"],
                  rep["ops_per_sample"])


def _fastest(reps: Sequence[Rep], key: str) -> List[float]:
    """Per sample, the fastest time among the repetitions.

    Repetitions at one seed do identical work, so an operation's fastest
    time is the one the machine disturbed least.
    """
    return [min(column) for column in zip(*(rep[key] for rep in reps))]


def _summary(values: Sequence[float], unit: str,
             value: Optional[float] = None) -> Dict[str, object]:
    """A result row: the run's *value* (default: the median of the per-
    repetition *values*) and the range both lie in."""
    if value is None:
        value = statistics.median(values)
    return {"value": value, "min": min(*values, value),
            "max": max(*values, value), "values": list(values), "unit": unit}


def run_workload(workload: str, seed: int, seconds: float, reps: int,
                 extra: Sequence[str] = (), rerun_noisy: bool = False
                 ) -> Dict[str, Any]:
    """An untraced run: the six end-to-end metrics of *workload*.

    ``ops_per_s`` and ``op_p50_ms`` are computed over each operation's
    fastest time among the repetitions (``values`` keeps the per-
    repetition figures); the other metrics are medians.
    """
    scale = seconds / RUN_SECONDS
    runs = [_child(workload, seed, scale, extra=extra, hash_seed=index + 1)
            for index in range(reps)]
    if rerun_noisy and any(r["noisy"] for r in runs):
        # The calibration kernel says the machine was disturbed: one more
        # repetition gives every operation another chance at a clean time.
        runs.append(_child(workload, seed, scale, extra=extra,
                           hash_seed=reps + 1))
    setups = [r["setup_s"] for r in runs]
    for index in range(len(runs), SETUP_SAMPLES):
        setups.append(_child(workload, seed, scale,
                             extra=["--setup-only", *extra],
                             hash_seed=index + 1)["setup_s"])
    digests = sorted({r["sim_digest"] for r in runs})
    first = runs[0]
    steady = _rates(_fastest(runs, "op_seconds"),
                    _fastest(runs, "other_seconds"), first["ops_per_sample"])
    per_rep = [_rep_rates(r) for r in runs]
    calib = statistics.median(c for r in runs for c in r["calib_s"])
    rows = {
        "setup_s": _summary(setups, "s"),
        "ops_per_s": _summary([r["ops_per_s"] for r in per_rep], "1/s",
                              steady["ops_per_s"]),
        "op_p50_ms": _summary([r["op_p50_ms"] for r in per_rep], "ms",
                              steady["op_p50_ms"]),
        "peak_rss_mb": _summary([r["peak_rss_mb"] for r in runs], "MB"),
        "failed_share": _summary([r["failed"] / r["attempted"] for r in runs],
                                 "fraction"),
        "sim_stable": _summary([1.0 if len(digests) == 1 else 0.0], "0/1"),
    }
    return {
        "operation": next(w.operation for w in WORKLOADS
                          if w.name == workload),
        "sizes": first["sizes"],
        "samples_per_rep": len(first["op_seconds"]),
        "operations_per_rep": (len(first["op_seconds"])
                               * first["ops_per_sample"]),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "sim_digest": digests[0] if len(digests) == 1 else None,
        "sim_digests": digests,
        "reps": len(runs),
        "noisy_reps": sum(1 for r in runs if r["noisy"]),
        "calib_s": calib,
        "end_to_end": {m.name: rows[m.name] for m in END_TO_END},
        # Operations per calibration-kernel time: survives a machine change.
        "ops_per_calib": _summary(
            [r["ops_per_s"] * calib for r in per_rep], "ratio",
            steady["ops_per_s"] * calib),
    }


def run_traced(workload: str, seed: int, seconds: float,
               extra: Sequence[str] = ()) -> Dict[str, Any]:
    """A traced run: every per-layer metric of *workload*."""
    scale = seconds / RUN_SECONDS
    traced = _child(workload, seed, scale, True, extra)
    reference = _child(workload, seed, scale, False, extra)
    layers: Dict[str, float] = traced["per_layer"]
    traced_rate = _rep_rates(traced)["ops_per_s"]
    reference_rate = _rep_rates(reference)["ops_per_s"]
    layers["bench.trace_overhead_ratio"] = reference_rate / traced_rate
    layers["obs.emit_overhead_ratio"] = 0.0
    if workload == "traced_ua":
        # Program tracing off vs on, both without the benchmark's spans,
        # over the traffic part of the phase only.
        plain = _child("ua_traffic", seed, scale * PLAIN_SCALE, False, extra)
        traffic = _rates(reference["op_seconds"], [],
                         reference["ops_per_sample"])
        layers["obs.emit_overhead_ratio"] = (
            _rep_rates(plain)["ops_per_s"] / traffic["ops_per_s"])
    return {
        "sizes": traced["sizes"],
        "attempted": traced["attempted"], "failed": traced["failed"],
        "sim_digest": traced["sim_digest"],
        "traced_ops_per_s": traced_rate,
        "reference_ops_per_s": reference_rate,
        "self_by_layer_s": traced["self_by_layer_s"],
        "spans_file": os.path.relpath(traced["spans_file"], ROOT),
        "per_layer": {m.name: {"value": layers[m.name], "unit": m.unit}
                      for m in PER_LAYER},
    }


def driver_line(workload: str, seed: int, seconds: float, reps: int,
                trace: bool, extra: Sequence[str] = ()) -> Dict[str, object]:
    """The result object the benchmark contract asks for."""
    if trace:
        run = run_traced(workload, seed, seconds, extra)
        metrics = run["per_layer"]
        correct = run["failed"] == 0
    else:
        run = run_workload(workload, seed, seconds, reps, extra)
        e2e = run["end_to_end"]
        metrics = {m.name: {"value": e2e[m.name]["value"], "unit": m.unit}
                   for m in BOUNDED_END_TO_END}
        correct = run["failed"] == 0 and e2e["sim_stable"]["value"] == 1.0
    return {"correct": correct, "attempted": run["attempted"],
            "failed": run["failed"], "metrics": metrics}


def provenance(seed: int, seconds: float, reps: int, traced: bool
               ) -> Dict[str, object]:
    """What ran: revision, interpreter, machine, the program's switches."""
    from repro.bgp.egress import grouped_install_enabled
    from repro.net.fastpath import fastpath_enabled
    from repro.net.simulator import EventScheduler
    from repro.perf.cache import caching_enabled
    git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                         stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         check=False)
    return {
        "git_revision": git.stdout.strip() or "unknown",
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "switches": {"caching_enabled": caching_enabled(),
                     "fastpath_enabled": fastpath_enabled(),
                     "grouped_install_enabled": grouped_install_enabled(),
                     "scheduler_queue": EventScheduler().queue_kind},
        "seed": seed, "seconds": seconds, "reps": reps, "traced": traced,
    }


def full_pass(seed: int, seconds: float, reps: int, traced: bool,
              only: Optional[Sequence[str]] = None,
              extra: Sequence[str] = ()) -> Dict[str, object]:
    """Every workload (or *only*), as one result document."""
    results: Dict[str, object] = {}
    for name in only or workload_names():
        results[name] = (run_traced(name, seed, seconds, extra) if traced
                         else run_workload(name, seed, seconds, reps, extra,
                                           rerun_noisy=True))
        print(f"  {name}: done", file=sys.stderr, flush=True)
    return {"schema": RESULT_SCHEMA,
            "provenance": provenance(seed, seconds, reps, traced),
            "workloads": results}
