"""The shape of every versioned artifact, written once.

:data:`SCHEMAS` maps each document tag to a plain-data spec and
:func:`validate` walks a parsed JSON value against one.  A spec is

* a leaf kind — :data:`NUMBER` (int or float, never bool), :data:`INT`,
  :data:`STRING`, :data:`BOOL`, :data:`ANY`;
* a tag of :data:`SCHEMAS` — an embedded document of that schema, whose
  ``schema`` entry must equal the tag;
* ``{key: spec}`` — an object with those keys.  A key wrapped in
  :class:`Opt` may be absent; keys the spec does not name are tolerated;
* ``[spec]`` — a list of that spec;
* :class:`MapOf` — an object with free string keys, every value one spec;
* :class:`Nullable` — ``null`` or the wrapped spec.

A key is required exactly when the validators this table replaced
required it; what an emitter writes beyond that is declared ``Opt``, so
older documents keep validating.  Checks that relate one field to
another (a fleet report's recomputed totals, say) live beside the
``validate_*_dict`` function of the document they belong to.

This module imports nothing from the rest of :mod:`repro`.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Tuple

NUMBER, INT, STRING, BOOL, ANY = "number", "int", "string", "bool", "any"

_LEAF_TYPES: Dict[str, Tuple[type, ...]] = {
    NUMBER: (int, float), INT: (int,), STRING: (str,), BOOL: (bool,)}


class MapOf(NamedTuple):
    """An object with arbitrary string keys and uniform values."""
    value: object


class Nullable(NamedTuple):
    """``null`` or *spec*."""
    spec: object


class Opt(NamedTuple):
    """Marks an object key that may be absent."""
    spec: object


_COUNTS = MapOf(INT)
_DIST = {"count": NUMBER, "min": NUMBER, "max": NUMBER, "mean": NUMBER,
         "stddev": NUMBER}
_DROPS = {"count": NUMBER, "by_outcome": _COUNTS,
          "examples": [{"outcome": Opt(STRING), "t": Opt(NUMBER),
                        "drop_reason": Opt(STRING)}]}
_DELIVERY = {"attempted": NUMBER, "delivered": NUMBER,
             "delivery_ratio": Opt(NUMBER), "outcomes": _COUNTS}
#: One catchment change: a shift (across a fault boundary) or a flap.
_CHANGE = {"t": Opt(NUMBER), "vantage": Opt(STRING), "target": Opt(STRING),
           "from": Opt(STRING), "to": Opt(STRING)}

#: One ``cells[]`` record of a fleet report; also the resume-cache file.
CELL = {
    "index": INT, "name": STRING, "workload_id": STRING, "seed": INT,
    "params": MapOf(ANY), "repeat": INT, "ok": BOOL,
    "artifact": Opt(Nullable("repro.experiment/v1")),
    "error": Opt(Nullable(STRING)),
}

SCHEMAS: Dict[str, Dict[str, object]] = {
    "repro.experiment/v1": {
        "schema": STRING, "experiment_id": STRING, "title": STRING,
        "header": STRING, "rows": [STRING], "data": ANY, "footer": STRING,
        "seed": Nullable(INT), "params": MapOf(ANY), "metrics": MapOf(ANY),
        "trace_path": Nullable(STRING),
    },
    # As embedded in a fleet report; ``FleetMatrix.from_dict`` parses
    # (and defaults) the stand-alone file form.
    "repro.matrix/v1": {
        "schema": STRING, "workloads": Opt([STRING]), "base_seed": Opt(INT),
        "axes": Opt(MapOf([ANY])), "repeats": Opt(INT),
        "imports": Opt([STRING]),
    },
    "repro.fleet/v1": {
        "schema": STRING, "matrix": "repro.matrix/v1", "spec_hash": STRING,
        "cells": [CELL],
        "totals": {
            "cells": INT, "ok": INT, "failed": INT,
            "by_workload": Opt(MapOf({"cells": Opt(INT), "ok": Opt(INT),
                                      "failed": Opt(INT)}))},
    },
    "repro.report/v1": {
        "schema": STRING,
        "run": {"context": MapOf(ANY), "events": NUMBER,
                "trace_schema": Opt(Nullable(STRING)),
                "complete": Opt(BOOL)},
        "spans": {"structural": NUMBER, "unclosed": NUMBER,
                  "by_name": _COUNTS},
        "forwarding": {"packets": NUMBER, "outcomes": _COUNTS,
                       "distributions": MapOf(_DIST),
                       "blackholes": _DROPS, "loops": _DROPS},
        "probes": {"count": NUMBER, "outcomes": _COUNTS, "stretch": _DIST,
                   "encapsulations": _DIST, "delay_stretch": Opt(_DIST)},
        "epochs": [{
            # Copied from the trace's ``fault.epoch`` span as found.
            "epoch": Opt(ANY), "faults": Opt(ANY),
            "reconverged_at": Opt(ANY), "reconvergence_time": Opt(ANY),
            "t0": Opt(Nullable(NUMBER)), "t_end": Opt(Nullable(NUMBER)),
            "first_recovered_delivery_t": Opt(Nullable(NUMBER)),
            "critical_path": {
                "igp_holddown": NUMBER, "igp_flood_spf": NUMBER,
                "bgp_resync": NUMBER, "vnbone_rebuild": NUMBER,
                "other": Nullable(NUMBER), "total": Nullable(NUMBER)},
            "transient": Opt(Nullable(_DELIVERY)),
            "recovered": Opt(Nullable(_DELIVERY)),
        }],
        "timeline": [{"t": NUMBER, "sample": Opt(INT),
                      "counters": MapOf(ANY), "gauges": MapOf(ANY)}],
    },
    "repro.catchment/v1": {
        "schema": STRING,
        "run": {"context": MapOf(ANY)},
        "probes": {"count": NUMBER, "delivered": NUMBER, "lost": NUMBER,
                   "vantages": [STRING], "targets": [STRING]},
        "epochs": [{
            "epoch": NUMBER,
            "t_start": Opt(Nullable(NUMBER)), "t_end": Opt(Nullable(NUMBER)),
            "boundaries": [STRING], "probes": NUMBER, "delivered": NUMBER,
            "catchment": MapOf(MapOf(STRING)), "shifts": [_CHANGE],
            "convergence_time": Opt(Nullable(NUMBER)),
        }],
        "shifts": {"count": NUMBER},
        "flaps": {"count": NUMBER, "events": [_CHANGE]},
        "rtt": _DIST,
        "rtt_inflation": {"count": NUMBER, "min": NUMBER, "max": NUMBER,
                          "mean": NUMBER, "p50": NUMBER, "p90": NUMBER,
                          "p99": NUMBER},
    },
    "repro.lint/v1": {
        "schema": STRING, "ok": BOOL, "files_checked": INT,
        "counts": {"total": INT, "unsuppressed": INT, "suppressed": INT,
                   "by_rule": _COUNTS},
        "findings": [{"path": STRING, "line": INT, "col": INT,
                      "rule": STRING, "message": STRING,
                      "suppressed": BOOL}],
        "parse_errors": [{"path": STRING, "error": STRING}],
    },
}


def _walk(spec: object, value: object, path: str, errors: List[str],
          or_null: str = "") -> None:
    def mismatch(expected: str) -> None:
        got = "null" if value is None else type(value).__name__
        errors.append(f"{path or 'document'}: expected {expected}{or_null}, "
                      f"got {got}")

    if isinstance(spec, Nullable):
        if value is not None:
            _walk(spec.spec, value, path, errors, " or null")
    elif isinstance(spec, str):
        if spec in SCHEMAS:
            _walk(SCHEMAS[spec], value, path, errors, or_null)
            tag = value.get("schema") if isinstance(value, dict) else None
            if isinstance(tag, str) and tag != spec:
                errors.append(f"{path + '.' if path else ''}schema: "
                              f"expected {spec!r}, got {tag!r}")
        # bool is an int to Python but not to JSON.
        elif spec != ANY and (not isinstance(value, _LEAF_TYPES[spec])
                              or (spec != BOOL and isinstance(value, bool))):
            mismatch(spec)
    elif isinstance(spec, list):
        if isinstance(value, list):
            for n, item in enumerate(value):
                _walk(spec[0], item, f"{path}[{n}]", errors)
        else:
            mismatch("list")
    elif not isinstance(value, dict):
        mismatch("object")
    elif isinstance(spec, MapOf):
        for key, item in value.items():
            if not isinstance(key, str):
                errors.append(f"{path or 'document'}: key {key!r} is not a "
                              "string")
            _walk(spec.value, item, f"{path}.{key}" if path else str(key),
                  errors)
    elif isinstance(spec, dict):
        for key, sub in spec.items():
            child = f"{path}.{key}" if path else key
            if key in value:
                _walk(sub.spec if isinstance(sub, Opt) else sub, value[key],
                      child, errors)
            elif not isinstance(sub, Opt):
                errors.append(f"{child}: missing")


def validate(spec: object, doc: object) -> List[str]:
    """Problems ``"<path>: <problem>"`` of *doc* against *spec*.

    *spec* is usually a tag of :data:`SCHEMAS`.  Empty means valid.
    *doc* may be any parsed JSON value; a wrong type is a problem,
    never an exception.
    """
    errors: List[str] = []
    _walk(spec, doc, "", errors)
    return errors


__all__ = ["ANY", "BOOL", "CELL", "INT", "MapOf", "NUMBER", "Nullable",
           "Opt", "SCHEMAS", "STRING", "validate"]
