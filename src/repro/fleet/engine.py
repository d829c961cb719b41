"""The multiprocess sweep engine: fan a matrix, merge the artifacts.

:func:`run_fleet` enumerates a :class:`~repro.fleet.spec.FleetMatrix`
into cells, executes each through the one workload surface
(:func:`repro.experiments.base.run`) — inline, or fanned across a
``multiprocessing`` pool — and merges the per-cell artifacts into one
``repro.fleet/v1`` report.

Design constraints, all load-bearing:

* **Determinism.**  The merged report depends only on the matrix and
  the base seed — never on worker count, scheduling order, or wall
  clock.  Cell seeds derive from ``(cell_index, base_seed)``; cells are
  merged in index order regardless of completion order; metric keys
  carrying the ``wall_`` marker (wall-clock timings) are stripped from
  artifacts; trace paths are stored as the deterministic per-cell file
  name.  ``--workers 1`` and ``--workers 8`` therefore produce
  byte-identical reports.
* **Isolation.**  A crashing cell yields a failed record with the
  deterministic ``"TypeName: message"`` error string; the other cells
  still run and the merge still happens.
* **Resumability.**  With a cache directory, each finished cell is
  written to ``<cache_dir>/<spec_hash>/<cell>.json`` and re-used on the
  next invocation of the same matrix; editing the matrix changes the
  spec hash and so invalidates exactly its own cache.
"""

from __future__ import annotations

import importlib
import json
import multiprocessing
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.experiments.base import format_error, run
from repro.fleet.spec import FleetCell, FleetMatrix
from repro.net.errors import FleetError
from repro.obs import Observability
from repro.obs.tracer import WALL_PREFIX, Tracer
from repro.schema import CELL, validate

#: Schema tag of the merged cross-scenario report.
FLEET_SCHEMA = "repro.fleet/v1"

#: One worker payload: the cell, the matrix's import list, and the
#: traces directory (``None`` disables per-cell tracing).
_Payload = Tuple[FleetCell, Tuple[str, ...], Optional[str]]

#: Progress callback: called with each cell record as it is merged.
ProgressFn = Callable[[Dict[str, object]], None]


def _ensure_registry(imports: Iterable[str]) -> None:
    """Populate the workload registry in this process.

    Importing :mod:`repro.experiments` registers the built-in suite;
    the matrix's ``imports`` then register any matrix-local workloads.
    Both are idempotent, so repeating this in every worker (mandatory
    under the spawn start method, harmless under fork) is safe.
    """
    importlib.import_module("repro.experiments")
    for module in imports:
        try:
            importlib.import_module(module)
        except ImportError as exc:
            raise FleetError(f"matrix imports: cannot import {module!r} "
                             f"({exc})") from exc


def _strip_wall_metrics(
        metrics: Dict[str, object]) -> Dict[str, object]:
    """Drop metrics whose names carry the ``wall_`` marker.

    The repo-wide convention names every wall-clock-derived field with
    a ``wall_`` segment (``scheduler.drain_wall_ms``,
    ``igp.converge_wall_ms``); everything else — event counts, convergence
    epochs, queue depths — is seed-deterministic and safe to merge
    byte-stably.  The snapshot is nested one level (``counters`` /
    ``gauges`` / ``histograms`` families), so the filter applies to the
    member names inside each family.
    """
    stripped: Dict[str, object] = {}
    for family, members in metrics.items():
        if WALL_PREFIX in family:
            continue
        if isinstance(members, dict):
            members = {name: value for name, value in members.items()
                       if WALL_PREFIX not in name}
        stripped[family] = members
    return stripped


def execute_cell(cell: FleetCell, imports: Sequence[str] = (),
                 traces_dir: Optional[str] = None) -> Dict[str, object]:
    """Run one cell to a merged-report record (never raises).

    Any exception — schema violation, runner crash, missing workload —
    becomes a failed record with a deterministic error string, so one
    bad cell cannot abort the sweep.
    """
    record: Dict[str, object] = {
        "index": cell.index, "name": cell.name,
        "workload_id": cell.workload_id, "seed": cell.seed,
        "params": dict(cell.params), "repeat": cell.repeat,
        "ok": False, "artifact": None, "error": None,
    }
    try:
        _ensure_registry(imports)
        obs: Optional[Observability] = None
        if traces_dir is not None:
            tracer = Tracer.for_cell(cell.name, traces_dir, context={
                "cell": cell.name, "workload": cell.workload_id,
                "seed": cell.seed, "params": dict(cell.params)})
            obs = Observability(tracer=tracer)
        try:
            result = run(cell.workload_id, seed=cell.seed,
                         params=dict(cell.params), obs=obs)
        finally:
            if obs is not None:
                obs.close()
        artifact = result.to_dict()
        metrics = artifact.get("metrics")
        if isinstance(metrics, dict):
            artifact["metrics"] = _strip_wall_metrics(metrics)
        # The deterministic relative name, not the absolute target the
        # tracer wrote to: reports must not embed invocation paths.
        artifact["trace_path"] = (f"{cell.name}.jsonl"
                                  if traces_dir is not None else None)
        record["ok"] = True
        record["artifact"] = artifact
    except Exception as exc:  # noqa: BLE001 — isolation is the contract
        record["error"] = format_error(exc)
    return record


def _execute_payload(payload: _Payload) -> Dict[str, object]:
    """Pool entry point (module-level, hence picklable under spawn)."""
    cell, imports, traces_dir = payload
    return execute_cell(cell, imports=imports, traces_dir=traces_dir)


# -- per-cell cache -------------------------------------------------------------

def _cache_path(cache_dir: str, spec_hash: str, cell: FleetCell) -> Path:
    return Path(cache_dir) / spec_hash / f"{cell.name}.json"


def _load_cached(cache_dir: str, spec_hash: str,
                 cell: FleetCell) -> Optional[Dict[str, object]]:
    """The cached record for *cell*, or ``None``.

    A file that is missing, unreadable, not a well-formed record of
    this very cell, or that says neither how the cell succeeded nor how
    it failed is a miss: the cell runs again and the file is rewritten.
    """
    path = _cache_path(cache_dir, spec_hash, cell)
    try:
        with path.open(encoding="utf-8") as handle:
            record = json.load(handle)
    except (OSError, ValueError):  # bad JSON and bad UTF-8 are ValueErrors
        return None
    if (validate(CELL, record) or _cell_problems(record)
            or record["name"] != cell.name or record["seed"] != cell.seed):
        return None
    return record


def _store_cached(cache_dir: str, spec_hash: str, cell: FleetCell,
                  record: Dict[str, object]) -> None:
    path = _cache_path(cache_dir, spec_hash, cell)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, sort_keys=True,
                               separators=(",", ":")) + "\n",
                    encoding="utf-8")


# -- the sweep ------------------------------------------------------------------

def _pool_context() -> multiprocessing.context.BaseContext:
    """fork when the platform offers it (cheap, registry pre-warmed),
    spawn otherwise; workers rebuild the registry either way."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:
        return multiprocessing.get_context("spawn")


def run_fleet(matrix: FleetMatrix, *, workers: int = 1,
              traces_dir: Optional[str] = None,
              cache_dir: Optional[str] = None,
              progress: Optional[ProgressFn] = None) -> Dict[str, object]:
    """Execute every cell of *matrix* and merge the ``repro.fleet/v1`` doc.

    *workers* ``<= 1`` runs inline through the identical cell path the
    pool workers use.  *traces_dir* enables per-cell JSONL traces;
    *cache_dir* enables the spec-hash-keyed resume cache.  *progress*
    is invoked once per cell, in index order, as records merge.
    """
    if workers < 1:
        raise FleetError(f"workers: expected >= 1, got {workers}")
    _ensure_registry(matrix.imports)
    preflight = matrix.validate_against_registry()
    if preflight:
        raise FleetError("matrix does not fit the workload registry: "
                         + "; ".join(preflight))

    spec_hash = matrix.spec_hash()
    cells = matrix.cells()
    records: Dict[int, Dict[str, object]] = {}
    pending: List[FleetCell] = []
    for cell in cells:
        cached = (None if cache_dir is None
                  else _load_cached(cache_dir, spec_hash, cell))
        if cached is not None:
            cached["cached"] = True
            records[cell.index] = cached
        else:
            pending.append(cell)

    payloads: List[_Payload] = [(cell, matrix.imports, traces_dir)
                                for cell in pending]
    if workers <= 1 or len(pending) <= 1:
        fresh = [_execute_payload(payload) for payload in payloads]
    else:
        context = _pool_context()
        with context.Pool(processes=min(workers, len(pending))) as pool:
            fresh = pool.map(_execute_payload, payloads)
    for cell, record in zip(pending, fresh):
        record["cached"] = False
        if cache_dir is not None:
            _store_cached(cache_dir, spec_hash, cell, record)
        records[cell.index] = record

    merged = [records[cell.index] for cell in cells]
    if progress is not None:
        for record in merged:
            progress(record)
    return _merge(matrix, spec_hash, merged)


def _merge(matrix: FleetMatrix, spec_hash: str,
           records: List[Dict[str, object]]) -> Dict[str, object]:
    """Fold cell records into the ``repro.fleet/v1`` document.

    ``cached`` is a per-invocation fact, not a property of the sweep,
    so it is dropped here — resumed and cold runs merge identically.
    """
    by_workload: Dict[str, Dict[str, int]] = {}
    ok = 0
    cleaned: List[Dict[str, object]] = []
    for record in records:
        record = {key: value for key, value in record.items()
                  if key != "cached"}
        cleaned.append(record)
        workload_id = str(record["workload_id"])
        bucket = by_workload.setdefault(workload_id,
                                        {"cells": 0, "ok": 0, "failed": 0})
        bucket["cells"] += 1
        if record["ok"]:
            ok += 1
            bucket["ok"] += 1
        else:
            bucket["failed"] += 1
    return {"schema": FLEET_SCHEMA,
            "matrix": matrix.to_dict(),
            "spec_hash": spec_hash,
            "cells": cleaned,
            "totals": {"cells": len(cleaned), "ok": ok,
                       "failed": len(cleaned) - ok,
                       "by_workload": {name: by_workload[name]
                                       for name in sorted(by_workload)}}}


# -- validation and serialization -----------------------------------------------

def _cell_problems(record: Dict[str, object]) -> List[str]:
    """What the table cannot say about one cell record: a successful
    cell carries its artifact, a failed one its error string."""
    if record.get("ok"):
        if record.get("artifact") is None:
            return ["ok cell has no artifact"]
    elif not isinstance(record.get("error"), str):
        return ["failed cell has no error string"]
    return []


def validate_fleet_dict(doc: object) -> List[str]:
    """Validate a ``repro.fleet/v1`` document; returns error strings.

    The shape — envelope, embedded matrix, every cell record and each
    successful cell's ``repro.experiment/v1`` artifact — is checked
    against :data:`repro.schema.SCHEMAS`; on top of that, cells must be
    in ``index`` order, carry an artifact or an error string as their
    ``ok`` says, and add up to ``totals``.
    """
    errors = validate(FLEET_SCHEMA, doc)
    if not isinstance(doc, dict):
        return errors
    cells = doc.get("cells")
    if not isinstance(cells, list):
        cells = []
    ok = 0
    for position, record in enumerate(cells):
        if not isinstance(record, dict):
            continue
        label = f"cells[{position}]"
        if record.get("index") != position:
            errors.append(f"{label}.index: {record.get('index')!r} is out "
                          f"of order (expected {position})")
        errors.extend(f"{label}: {problem}"
                      for problem in _cell_problems(record))
        ok += bool(record.get("ok"))
    totals = doc.get("totals")
    if isinstance(totals, dict):
        expected = {"cells": len(cells), "ok": ok, "failed": len(cells) - ok}
        for name, value in expected.items():
            if totals.get(name) != value:
                errors.append(f"totals.{name}: {totals.get(name)!r} != "
                              f"{value} (recomputed)")
    return errors


def fleet_to_json(doc: Dict[str, object]) -> str:
    """The canonical byte form (sorted keys, 2-space indent, final NL).

    Both the CLI and the CI smoke job compare reports with byte
    equality, so there is exactly one serializer.
    """
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def write_fleet(doc: Dict[str, object], path: str) -> None:
    """Write the merged report in canonical byte form."""
    target = Path(path)
    if target.parent != Path(""):
        target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(fleet_to_json(doc), encoding="utf-8")
