"""Shared pass/fail rows for identity verifiers.

Failures are data, not exceptions: each check yields an
:class:`IdentityResult` carrying the first failing degree and a witness
term so a broken identity can be located immediately.
"""

from __future__ import annotations

from typing import NamedTuple

from .pseries import TruncatedSeries, series_str


class IdentityResult(NamedTuple):
    identity: str
    law: str
    order: int
    passed: bool
    first_failing_degree: int | None = None
    witness_term: str | None = None

    def to_json(self) -> dict:
        return {
            "identity": self.identity,
            "law": self.law,
            "order": self.order,
            "status": "pass" if self.passed else "fail",
            "first_failing_degree": self.first_failing_degree,
            "witness_term": self.witness_term,
        }


def check_zero(identity: str, law: str, difference: TruncatedSeries) -> IdentityResult:
    """Report whether a difference series vanishes at its trusted order."""
    if difference.is_zero():
        return IdentityResult(identity, law, difference.order, True)
    degree = difference.lowest_degree()
    witness = series_str(difference.homogeneous_part(degree))
    return IdentityResult(identity, law, difference.order, False, degree, witness)


def check_equal(identity: str, law: str, order: int, got, expected,
                witness: str) -> IdentityResult:
    """Report whether two values are equal; a mismatch fails at degree 0
    with the witness text."""
    if got == expected:
        return IdentityResult(identity, law, order, True)
    return IdentityResult(identity, law, order, False, 0, witness)
