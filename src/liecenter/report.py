"""Structured pass/fail records for every identity the suites check.

A claim either holds exactly (``verified``), holds in a corrected or
sign-adjusted form that is spelled out in its note (``derived-with-note``),
is out of computational reach and explicitly recorded as such
(``asserted-not-verified``), or fails with a witness (``failed``).
Three constructors make every claim: :func:`check` decides verified,
derived-with-note or failed from a verdict and a note (the one rule),
:func:`identity` checks an exact identity from its residual, which is zero
exactly when the identity holds, and :func:`asserted` records what is out of
reach.  A failing Cartan-eigenvalue claim (``poisson.eigenvalue_claim``)
carries the residual ``eigenvalue λ``, or the witness ``not an eigenvector``.
Three claims are built as ``Claim`` directly, since the rule would change
their pinned passing bytes: ``charp._signed_claim``'s "sign +1" and
``pbw.z_lift_audit``'s ``naive`` are verified with a note, and
``charp.frobenius_membership_suite``'s ``non-member`` with its witness.
Reports serialize deterministically: identical configurations produce
byte-identical JSON.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

VERIFIED = "verified"
DERIVED_WITH_NOTE = "derived-with-note"
ASSERTED_NOT_VERIFIED = "asserted-not-verified"
FAILED = "failed"

_PASSING = {VERIFIED, DERIVED_WITH_NOTE, ASSERTED_NOT_VERIFIED}


@dataclass
class Claim:
    claim_id: str
    statement: str
    status: str
    residual: Optional[str] = None
    witness: Optional[str] = None
    note: Optional[str] = None

    @property
    def passed(self) -> bool:
        return self.status in _PASSING

    def to_dict(self) -> dict:
        out = {
            "claim_id": self.claim_id,
            "statement": self.statement,
            "status": self.status,
        }
        if self.residual is not None:
            out["residual"] = self.residual
        if self.witness is not None:
            out["witness"] = self.witness
        if self.note is not None:
            out["note"] = self.note
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "Claim":
        if data["status"] not in _PASSING | {FAILED}:
            raise ValueError(f"claim field 'status' is not a known status: {data['status']!r}")
        return cls(
            claim_id=data["claim_id"],
            statement=data["statement"],
            status=data["status"],
            residual=data.get("residual"),
            witness=data.get("witness"),
            note=data.get("note"),
        )


def asserted(claim_id: str, statement: str, note: str = None) -> Claim:
    return Claim(claim_id, statement, ASSERTED_NOT_VERIFIED, note=note)


def check(claim_id: str, statement: str, ok: bool, residual: str = None, witness: str = None, note: str = None) -> Claim:
    """The claim rule: when ok, derived-with-note if the claim carries a note
    (the corrected form that holds) and verified otherwise; when not ok,
    failed, carrying its residual, witness and note as evidence."""
    if ok:
        return Claim(claim_id, statement, DERIVED_WITH_NOTE if note else VERIFIED, note=note)
    return Claim(claim_id, statement, FAILED, residual=residual, witness=witness, note=note)


def identity(claim_id: str, statement: str, residual, note: str = None) -> Claim:
    """An exact identity, from its residual: a polynomial or an element of
    the enveloping algebra that is zero exactly when the identity holds, and
    is the failing claim's evidence."""
    return check(claim_id, statement, residual.is_zero, residual=str(residual), note=note)


@dataclass
class SuiteResult:
    name: str
    claims: list[Claim] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.claims)

    def counts(self) -> dict:
        out = {VERIFIED: 0, DERIVED_WITH_NOTE: 0, ASSERTED_NOT_VERIFIED: 0, FAILED: 0}
        for c in self.claims:
            out[c.status] += 1
        return out

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "counts": self.counts(),
            "claims": [c.to_dict() for c in self.claims],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SuiteResult":
        return cls(data["name"], [Claim.from_dict(c) for c in data["claims"]])


CORRECTION_FIELDS = ("lhs", "rhs", "value", "original")


@dataclass
class VerificationReport:
    config: dict
    suites: list[SuiteResult] = field(default_factory=list)
    corrections_sha256: Optional[str] = None
    # the overlaid bracket entries, each {lhs, rhs, value, original}
    corrections: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(s.ok for s in self.suites)

    def summary(self) -> dict:
        total = {VERIFIED: 0, DERIVED_WITH_NOTE: 0, ASSERTED_NOT_VERIFIED: 0, FAILED: 0}
        for s in self.suites:
            for k, v in s.counts().items():
                total[k] += v
        total["suites"] = len(self.suites)
        return total

    def to_dict(self) -> dict:
        out = {
            "config": self.config,
            "corrections_sha256": self.corrections_sha256,
            "summary": self.summary(),
            "suites": [s.to_dict() for s in self.suites],
        }
        if self.corrections:  # absent, not empty, so reports without an overlay keep their bytes
            out["corrections"] = self.corrections
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_dict(cls, data: dict) -> "VerificationReport":
        if not isinstance(data["config"], dict):
            raise ValueError("report field 'config' must be an object")
        corrections = data.get("corrections", [])
        if not isinstance(corrections, list) or not all(
            isinstance(c, dict) and all(isinstance(c.get(k), str) for k in CORRECTION_FIELDS)
            for c in corrections
        ):
            raise ValueError(
                "report field 'corrections' must be a list of objects with string "
                + ", ".join(repr(k) for k in CORRECTION_FIELDS)
            )
        return cls(
            config=data["config"],
            suites=[SuiteResult.from_dict(s) for s in data["suites"]],
            corrections_sha256=data.get("corrections_sha256"),
            corrections=corrections,
        )

    def to_markdown(self) -> str:
        lines = ["# Verification report", ""]
        lines.append("## Configuration")
        for key in sorted(self.config):
            lines.append(f"- `{key}`: `{self.config[key]}`")
        if self.corrections_sha256:
            lines.append(f"- corrections overlay sha256: `{self.corrections_sha256}`")
        for c in self.corrections:
            lines.append(
                f"- correction: `[{c['lhs']}, {c['rhs']}] = {c['value']}`, was `{c['original']}`"
            )
        lines.append("")
        summary = self.summary()
        lines.append("## Summary")
        lines.append(
            f"- suites: {summary['suites']}, verified: {summary[VERIFIED]}, "
            f"derived-with-note: {summary[DERIVED_WITH_NOTE]}, "
            f"asserted-not-verified: {summary[ASSERTED_NOT_VERIFIED]}, "
            f"failed: {summary[FAILED]}"
        )
        lines.append("")
        for suite in self.suites:
            lines.append(f"## Suite `{suite.name}` — {'PASS' if suite.ok else 'FAIL'}")
            lines.append("")
            lines.append("| claim | statement | status | detail |")
            lines.append("|---|---|---|---|")
            for c in suite.claims:
                detail = []
                if c.note:
                    detail.append(f"note: {c.note}")
                if c.residual:
                    detail.append(f"residual: `{c.residual}`")
                if c.witness:
                    detail.append(f"witness: `{c.witness}`")
                lines.append(
                    f"| `{c.claim_id}` | {c.statement} | {c.status} | {'; '.join(detail)} |"
                )
            lines.append("")
        return "\n".join(lines)
