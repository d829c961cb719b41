"""S-rules: schema drift between artifact emitters and validators.

The repo maintains five hand-rolled versioned artifact schemas
(``repro.experiment/v1``, ``repro.fleet/v1``, ``repro.report/v1``,
``repro.trace/v2``, ``repro.matrix/v1``), each
with an emitter building a dict literal and a validator checking it
structurally.  An edit that lands on only one side — a new emitted key
nobody validates, or a newly-required key no emitter produces — used to
surface only when a CI smoke job deserialized a real artifact.  These
rules diff the two sides statically using the pass-1 index:

* **S1** — an emitter for schema ``X`` omits a key its paired
  validator dereferences unconditionally.
* **S2** — an emitter for schema ``X`` produces a key its paired
  validator never references (skipped when the validator iterates the
  whole document — an open schema).

Emitters with ``**`` spreads or computed keys are skipped (their key
set is a lower bound); schemas with only one side present are skipped
(nothing to diff).
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Tuple

from repro.analysis.findings import Finding
from repro.analysis.project import EmitterInfo, ProjectIndex, ValidatorInfo
from repro.analysis.rules import ProjectRule


def _pairs(index: ProjectIndex) -> Iterator[Tuple[str, EmitterInfo,
                                                  ValidatorInfo]]:
    """Every (schema, emitter, validator) pair present on both sides."""
    for schema in sorted(set(index.emitters) & set(index.validators)):
        for emitter in index.emitters[schema]:
            for validator in index.validators[schema]:
                yield schema, emitter, validator


def _validator_label(index: ProjectIndex, validator: ValidatorInfo) -> str:
    info = index.functions.get(validator.function)
    name = info.qual if info is not None else validator.function
    return f"{validator.module}.{name}"


class EmitterMissingKeyRule(ProjectRule):
    """S1: emitters produce every key their validator requires."""

    rule_id = "S1"
    title = "emitters carry all validator-required keys"

    def check(self, index: ProjectIndex) -> Iterator[Finding]:
        for schema, emitter, validator in _pairs(index):
            if emitter.dynamic:
                continue
            missing = sorted(validator.required - emitter.keys)
            for key in missing:
                yield self.finding(
                    index, emitter.path, emitter.node,
                    f"emitter for '{schema}' omits key '{key}', which "
                    f"validator {_validator_label(index, validator)} "
                    "requires unconditionally; every artifact it emits "
                    "would fail validation")


class EmitterUnknownKeyRule(ProjectRule):
    """S2: emitters produce no keys their validator never checks."""

    rule_id = "S2"
    title = "emitted keys are known to the validator"

    def check(self, index: ProjectIndex) -> Iterator[Finding]:
        for schema, emitter, validator in _pairs(index):
            if emitter.dynamic or validator.open_schema:
                continue
            unknown = sorted(emitter.keys - validator.all_known())
            for key in unknown:
                yield self.finding(
                    index, emitter.path, emitter.node,
                    f"emitter for '{schema}' produces key '{key}' that "
                    f"validator {_validator_label(index, validator)} never "
                    "references; the schema contract drifted on one side "
                    "only (extend the validator or drop the key)")


S_RULES: Tuple[ProjectRule, ...] = (EmitterMissingKeyRule(),
                                    EmitterUnknownKeyRule())
