"""The shared JSON-safety contract for reports, results, and trace events.

Every ``to_dict()`` in the library (``ExperimentResult``,
``ReachabilityReport``, ``FaultEpochReport``, ``MulticastTrace``, trace
events, ...) routes its values through :func:`json_safe` so that the
CLI, the fleet, and the JSONL tracer all serialize the same way:

* mappings keep their keys (coerced to ``str``), values recurse;
* lists/tuples become lists; sets become *sorted* lists (stable output);
* a tuple whose type defines ``__str__`` is a value record (an address,
  prefix or header) and renders by ``str()`` — told apart by that, as
  ``repro.net`` imports this module and cannot be imported here;
* enums collapse to their ``value``;
* objects exposing ``to_dict()`` are asked to serialize themselves;
* everything else that is not a JSON scalar falls back to ``str()``.
"""

from __future__ import annotations

import enum
from typing import Any

_SCALARS = (str, int, float, bool, type(None))


def json_safe(value: Any) -> Any:
    """Recursively convert *value* into JSON-serializable builtins."""
    if isinstance(value, enum.Enum):
        return json_safe(value.value)
    if isinstance(value, _SCALARS):
        return value
    if isinstance(value, dict):
        return {str(key): json_safe(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        if type(value).__str__ is not object.__str__:
            return str(value)
        return [json_safe(item) for item in value]
    if isinstance(value, (set, frozenset)):
        return sorted(json_safe(item) for item in value)
    to_dict = getattr(value, "to_dict", None)
    if callable(to_dict):
        return json_safe(to_dict())
    return str(value)
