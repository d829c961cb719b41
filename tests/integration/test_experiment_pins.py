"""Every registered experiment's table and data, pinned by digest.

A change that is not meant to alter results must leave every registered
experiment — the E/F figures and claims plus ``anycast_failover`` and
``rtt_catchment`` — byte-identical at its default seed and params.  The
committed ``experiment_pins.json`` holds, per experiment, the sha256 of
``table()`` and of the canonical JSON of ``json_safe(data)``.

The digests must be the same under every supported Python (3.10–3.12).
Python 3.12's ``sum()`` of floats is compensated, so a mean can differ
in its last bits from 3.11's.  The canonical data JSON (sorted keys)
therefore has every decimal number in its text rewritten at 10
significant digits — inside strings too, since some data carries the
``repr`` of a result object.  Tables print rounded figures and are
hashed as printed.

A change that means to move a result rewrites the file on purpose::

    PYTHONPATH=src python tests/integration/test_experiment_pins.py

and its diff names the experiments that moved.
"""

import hashlib
import json
import re
from pathlib import Path
from typing import Dict, List

import pytest

from repro.experiments import all_specs, run
from repro.obs.serialize import json_safe

PINS_PATH = Path(__file__).with_name("experiment_pins.json")

#: A decimal number in JSON text, exponent included.
_DECIMAL = re.compile(r"\d+\.\d+(?:[eE][-+]?\d+)?")


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _round_decimal(match):
    return f"{float(match.group()):.10g}"


def experiment_digests(experiment_id: str) -> Dict[str, str]:
    """The pinned digests of one run at the default seed and params."""
    result = run(experiment_id)
    data = json.dumps(json_safe(result.data), sort_keys=True,
                      separators=(",", ":"))
    data = _DECIMAL.sub(_round_decimal, data)
    return {"table": _sha256(result.table()), "data": _sha256(data)}


def _load_pins() -> Dict[str, Dict[str, str]]:
    return json.loads(PINS_PATH.read_text(encoding="utf-8"))


def package_experiments() -> List[str]:
    """The ids ``repro.experiments`` registers (tests register more)."""
    return [spec.workload_id for spec in all_specs()
            if spec.runner.__module__.startswith("repro.experiments.")]


def test_every_registered_experiment_is_pinned():
    assert sorted(_load_pins()) == package_experiments()


@pytest.mark.parametrize("experiment_id", sorted(_load_pins()))
def test_experiment_output_is_pinned(experiment_id):
    assert experiment_digests(experiment_id) == _load_pins()[experiment_id]


if __name__ == "__main__":
    pins = {experiment_id: experiment_digests(experiment_id)
            for experiment_id in package_experiments()}
    PINS_PATH.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n",
                         encoding="utf-8")
    print(f"wrote {len(pins)} pins to {PINS_PATH}")
