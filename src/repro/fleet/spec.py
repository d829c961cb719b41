"""Declarative sweep matrices: the ``repro.matrix/v1`` format.

A :class:`FleetMatrix` names one or more registered workloads, a base
seed, a set of parameter *axes* (each a list of values for one declared
workload param), and a repeat count.  Its cells are the Cartesian
product ``workloads x axes x repeats``, enumerated in a canonical
order, each with a deterministic seed derived from ``(cell_index,
base_seed)`` — so any worker, in any process, at any parallelism,
derives the same plan.

The JSON file format (``docs/fleet.md``)::

    {
      "schema": "repro.matrix/v1",
      "workloads": ["anycast_failover"],
      "base_seed": 7,
      "axes": {"n_stub": [4, 6], "pairs": [4, 8]},
      "repeats": 2,
      "imports": []
    }

``workload`` (singular, a string) is accepted as shorthand for a
one-element ``workloads``.  ``imports`` lists modules every worker
imports before running, so matrices can sweep workloads registered
outside :mod:`repro.experiments` (e.g. test-local ones).

:meth:`FleetMatrix.spec_hash` is the sha256 of the canonical JSON form;
the fleet engine keys its per-cell result cache by it, so editing any
part of the matrix invalidates exactly that matrix's cache.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Tuple

from repro.net.errors import FleetError

#: Schema tag of the matrix document.
MATRIX_SCHEMA = "repro.matrix/v1"

#: Axis values must be JSON scalars (matching the Param kinds).
_SCALAR_TYPES = (int, float, bool, str)

#: Derived per-cell seeds live in the positive int32 range, which every
#: topology generator and RNG helper in the tree accepts.
_SEED_SPACE = 2 ** 31 - 1


def cell_seed(cell_index: int, base_seed: int) -> int:
    """The deterministic seed of cell *cell_index* under *base_seed*.

    A keyed 8-byte blake2b digest of ``"<base_seed>:<cell_index>"`` —
    stable across processes, platforms, and Python versions (unlike
    ``hash()``), and decorrelated between adjacent cells.
    """
    payload = f"{base_seed}:{cell_index}".encode("ascii")
    digest = hashlib.blake2b(payload, digest_size=8).digest()
    return int.from_bytes(digest, "big") % _SEED_SPACE


@dataclass(frozen=True)
class FleetCell:
    """One planned unit of work: a workload at one parameter point."""

    index: int
    workload_id: str
    seed: int
    params: Dict[str, object]
    repeat: int = 0

    @property
    def name(self) -> str:
        """The cell's canonical label (trace/cache file stem)."""
        return f"cell-{self.index:04d}"


@dataclass(frozen=True)
class FleetMatrix:
    """A declarative sweep: workloads x parameter axes x repeats."""

    workloads: Tuple[str, ...]
    base_seed: int = 0
    axes: Dict[str, Tuple[object, ...]] = field(default_factory=dict)
    repeats: int = 1
    imports: Tuple[str, ...] = ()

    # -- construction -------------------------------------------------------
    @classmethod
    def from_dict(cls, doc: object) -> "FleetMatrix":
        """Parse and structurally validate a ``repro.matrix/v1`` dict."""
        if not isinstance(doc, dict):
            raise FleetError(
                f"matrix: expected object, got {type(doc).__name__}")
        schema = doc.get("schema", MATRIX_SCHEMA)
        if schema != MATRIX_SCHEMA:
            raise FleetError(f"matrix schema: expected {MATRIX_SCHEMA!r}, "
                             f"got {schema!r}")
        workloads = cls._parse_workloads(doc)
        base_seed = doc.get("base_seed", 0)
        if not isinstance(base_seed, int) or isinstance(base_seed, bool):
            raise FleetError("matrix base_seed: expected int")
        axes = cls._parse_axes(doc.get("axes", {}))
        repeats = doc.get("repeats", 1)
        if (not isinstance(repeats, int) or isinstance(repeats, bool)
                or repeats < 1):
            raise FleetError("matrix repeats: expected int >= 1")
        imports = doc.get("imports", [])
        if (not isinstance(imports, list)
                or not all(isinstance(m, str) for m in imports)):
            raise FleetError("matrix imports: expected array of module names")
        return cls(workloads=workloads, base_seed=base_seed, axes=axes,
                   repeats=repeats, imports=tuple(imports))

    @staticmethod
    def _parse_workloads(doc: Mapping[str, object]) -> Tuple[str, ...]:
        if "workloads" in doc and "workload" in doc:
            raise FleetError("matrix: give workload or workloads, not both")
        raw = doc.get("workloads", doc.get("workload"))
        if isinstance(raw, str):
            raw = [raw]
        if (not isinstance(raw, list) or not raw
                or not all(isinstance(w, str) for w in raw)):
            raise FleetError("matrix workloads: expected a workload id or a "
                             "non-empty array of ids")
        return tuple(raw)

    @staticmethod
    def _parse_axes(raw: object) -> Dict[str, Tuple[object, ...]]:
        if not isinstance(raw, dict):
            raise FleetError("matrix axes: expected object")
        axes: Dict[str, Tuple[object, ...]] = {}
        for name in sorted(raw):
            values = raw[name]
            if not isinstance(name, str):
                raise FleetError(f"matrix axes: axis name {name!r} is not a "
                                 "string")
            if not isinstance(values, list) or not values:
                raise FleetError(f"matrix axes.{name}: expected a non-empty "
                                 "array of values")
            for value in values:
                if not isinstance(value, _SCALAR_TYPES):
                    raise FleetError(
                        f"matrix axes.{name}: value {value!r} is not a "
                        "JSON scalar")
            axes[name] = tuple(values)
        return axes

    @classmethod
    def from_file(cls, path: str) -> "FleetMatrix":
        try:
            with open(path, encoding="utf-8") as handle:
                doc = json.load(handle)
        except (OSError, UnicodeDecodeError) as exc:
            raise FleetError(f"matrix file {path!r}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise FleetError(f"matrix file {path!r}: invalid JSON "
                             f"({exc})") from exc
        return cls.from_dict(doc)

    # -- canonical form ------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """The canonical JSON form (axes sorted by name)."""
        return {"schema": MATRIX_SCHEMA,
                "workloads": list(self.workloads),
                "base_seed": self.base_seed,
                "axes": {name: list(self.axes[name])
                         for name in sorted(self.axes)},
                "repeats": self.repeats,
                "imports": list(self.imports)}

    def spec_hash(self) -> str:
        """sha256 of the canonical JSON form — the cell-cache key."""
        canonical = json.dumps(self.to_dict(), sort_keys=True,
                               separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    # -- enumeration ---------------------------------------------------------
    def cells(self) -> List[FleetCell]:
        """Every cell, in canonical order with derived seeds.

        Order: workloads as listed, then the Cartesian product of axes
        (axis names sorted, values in listed order), then repeats.  The
        cell index is the position in this enumeration, and the cell
        seed is :func:`cell_seed` of ``(index, base_seed)``.
        """
        axis_names = sorted(self.axes)
        combos = list(itertools.product(
            *(self.axes[name] for name in axis_names))) or [()]
        cells: List[FleetCell] = []
        index = 0
        for workload_id in self.workloads:
            for combo in combos:
                for repeat in range(self.repeats):
                    cells.append(FleetCell(
                        index=index, workload_id=workload_id,
                        seed=cell_seed(index, self.base_seed),
                        params=dict(zip(axis_names, combo)),
                        repeat=repeat))
                    index += 1
        return cells

    def validate_against_registry(self) -> List[str]:
        """Check every workload exists and every axis fits its schema.

        Call after applying ``imports`` (the modules that register
        matrix-local workloads).  Returns error strings.
        """
        from repro.experiments.base import get_spec
        from repro.net.errors import ReproError

        errors: List[str] = []
        for workload_id in self.workloads:
            try:
                spec = get_spec(workload_id)
            except ReproError as exc:
                errors.append(str(exc))
                continue
            for name in sorted(self.axes):
                for value in self.axes[name]:
                    errors.extend(spec.validate_params({name: value}))
        return errors
