"""Outcome type for executable property checks.

A ``Proved`` verdict is only ever produced by exhaustive or symbolic
reasoning, and every ``Refuted`` verdict carries a witness that re-checks
as a violation.  ``Unfalsified``, with its sample count, comes only from
``theorems.counterexample_search``: the property checkers never sample.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional


class Status(Enum):
    PROVED = "Proved"
    REFUTED = "Refuted"
    UNFALSIFIED = "Unfalsified"


@dataclass(frozen=True)
class Verdict:
    status: Status
    witness: Optional[tuple] = None
    samples: Optional[int] = None

    def __post_init__(self):
        if self.status is Status.REFUTED and self.witness is None:
            raise ValueError("a refutation must carry a witness")
        if self.status is Status.UNFALSIFIED and self.samples is None:
            raise ValueError("an unfalsified verdict must record a sample count")
        if self.status is not Status.UNFALSIFIED and self.samples is not None:
            raise ValueError("only unfalsified verdicts carry sample counts")

    @property
    def proved(self) -> bool:
        return self.status is Status.PROVED

    @property
    def refuted(self) -> bool:
        return self.status is Status.REFUTED

    @property
    def unfalsified(self) -> bool:
        return self.status is Status.UNFALSIFIED


def proved(witness: tuple | None = None) -> Verdict:
    return Verdict(Status.PROVED, witness=witness)


def refuted(witness: tuple) -> Verdict:
    return Verdict(Status.REFUTED, witness=tuple(witness))


def unfalsified(samples: int) -> Verdict:
    return Verdict(Status.UNFALSIFIED, samples=samples)
