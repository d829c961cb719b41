"""``python -m bench compare A.json B.json``: is B worse than A?

One row per (workload, end-to-end metric): both values with the min and
max over their repetitions, the ratio B/A, and a verdict by the metric's
bound —

* ``regressed`` / ``improved``: B's value is worse / better than A's by
  more than the bound;
* ``unchanged``: within the bound;
* ``unresolved``: either side's own spread (max − min over its value)
  is wider than the bound and the two ranges overlap, so the runs cannot
  tell — unless every run of B reads better than every run of A.

``failed_share`` and ``sim_stable`` have a bound of 0: any worsening is a
regression.  Differing ``sim_digest``\\ s are listed on their own: a pure
speed-up must leave them identical.  Exits 1 on any regression.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from bench.registry import END_TO_END, Metric


def _worsening(metric: Metric, a: float, b: float) -> float:
    """How much worse *b* is than *a*, as a share of *a* (negative: better)."""
    delta = (b - a) if metric.better == "lower" else (a - b)
    if a == 0.0:
        return 0.0 if delta == 0.0 else (1.0 if delta > 0 else -1.0)
    return delta / abs(a)


def _spread(row: Dict[str, Any]) -> float:
    value = row["value"]
    return (row["max"] - row["min"]) / abs(value) if value else 0.0


def verdict(metric: Metric, a: Dict[str, Any], b: Dict[str, Any]) -> str:
    worse = _worsening(metric, a["value"], b["value"])
    if metric.bound == 0.0:
        return ("regressed" if worse > 0 else
                "improved" if worse < 0 else "unchanged")
    overlap = a["min"] <= b["max"] and b["min"] <= a["max"]
    if overlap and max(_spread(a), _spread(b)) > metric.bound:
        return "unresolved"
    if worse > metric.bound:
        return "regressed"
    if worse < -metric.bound:
        return "improved"
    return "unchanged"


def compare(a: Dict[str, Any], b: Dict[str, Any]
            ) -> Tuple[List[Dict[str, Any]], List[str]]:
    """Rows for every (workload, metric) in both files, and the workloads
    whose ``sim_digest`` differs."""
    rows: List[Dict[str, Any]] = []
    digests: List[str] = []
    for name, run_a in a["workloads"].items():
        run_b = b["workloads"].get(name)
        if run_b is None or "end_to_end" not in run_a \
                or "end_to_end" not in run_b:
            continue
        if run_a["sim_digest"] != run_b["sim_digest"]:
            digests.append(name)
        for metric in END_TO_END:
            row_a = run_a["end_to_end"][metric.name]
            row_b = run_b["end_to_end"][metric.name]
            rows.append({
                "workload": name, "metric": metric.name, "unit": metric.unit,
                "a": row_a, "b": row_b,
                "ratio": (row_b["value"] / row_a["value"]
                          if row_a["value"] else None),
                "verdict": verdict(metric, row_a, row_b)})
    return rows, digests


def _cell(row: Dict[str, Any]) -> str:
    return f"{row['value']:.5g} [{row['min']:.5g}, {row['max']:.5g}]"


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: python -m bench compare A.json B.json", file=sys.stderr)
        return 2
    docs = [json.loads(Path(path).read_text()) for path in argv]
    rows, digests = compare(*docs)
    if not rows:
        print("no workload with end-to-end metrics in both files",
              file=sys.stderr)
        return 2
    print(f"{'workload':<12} {'metric':<13} {'A value [min, max]':<34} "
          f"{'B value [min, max]':<34} {'B/A':>8}  verdict")
    for row in rows:
        ratio = "-" if row["ratio"] is None else f"{row['ratio']:.4f}"
        print(f"{row['workload']:<12} {row['metric']:<13} "
              f"{_cell(row['a']):<34} {_cell(row['b']):<34} {ratio:>8}  "
              f"{row['verdict']}")
    print(f"# ratios are B/A with A = {argv[0]} as the base")
    for name in digests:
        print(f"# sim_digest differs on {name}: simulated behaviour changed")
    regressed = [r for r in rows if r["verdict"] == "regressed"]
    unresolved = sum(1 for r in rows if r["verdict"] == "unresolved")
    print(f"# {len(regressed)} regressed, {unresolved} unresolved, "
          f"{len(digests)} digest changes")
    return 1 if regressed else 0
