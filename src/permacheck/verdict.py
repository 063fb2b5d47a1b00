"""Tri-state verdicts with structured witnesses.

Every checkable claim in the library resolves to holds, fails (with a
witness), or inconclusive.  The Green recognizer additionally uses the
qualified state ``holds-up-to-density-factor`` (see green.is_green).
"""

from __future__ import annotations

from dataclasses import dataclass

HOLDS = "holds"
FAILS = "fails"
INCONCLUSIVE = "inconclusive"
HOLDS_UP_TO_DENSITY = "holds-up-to-density-factor"

_STATUSES = (HOLDS, FAILS, INCONCLUSIVE, HOLDS_UP_TO_DENSITY)


@dataclass(frozen=True)
class Verdict:
    """Outcome of a single check.

    witness is a JSON-serializable dict present exactly when the verdict
    is ``fails``; detail is free-form human context.
    """

    status: str
    witness: dict | None = None
    detail: str = ""

    # status constants, mirrored as class attributes for call sites
    HOLDS = HOLDS
    FAILS = FAILS
    INCONCLUSIVE = INCONCLUSIVE
    HOLDS_UP_TO_DENSITY = HOLDS_UP_TO_DENSITY

    def __post_init__(self):
        if self.status not in _STATUSES:
            raise ValueError(f"unknown verdict status {self.status!r}")
        if self.status == FAILS and self.witness is None:
            raise ValueError("failing verdict requires a witness")
        if self.status == HOLDS and self.witness is not None:
            raise ValueError("holding verdict must not carry a witness")

    @property
    def holds(self) -> bool:
        return self.status == HOLDS

    @property
    def fails(self) -> bool:
        return self.status == FAILS

    @staticmethod
    def ok(detail: str = "") -> "Verdict":
        return Verdict(HOLDS, None, detail)

    @staticmethod
    def fail(witness: dict, detail: str = "") -> "Verdict":
        return Verdict(FAILS, witness, detail)

    @staticmethod
    def unknown(detail: str = "") -> "Verdict":
        return Verdict(INCONCLUSIVE, None, detail)

    def to_dict(self) -> dict:
        out = {"status": self.status}
        if self.witness is not None:
            out["witness"] = self.witness
        if self.detail:
            out["detail"] = self.detail
        return out
