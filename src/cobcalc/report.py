"""Shared pass/fail rows for identity verifiers.

Failures are data, not exceptions: each check yields an
:class:`IdentityResult` carrying the first failing degree and a witness
term so a broken identity can be located immediately.

With ``localize`` this is the base layer, which loads no series code:
``check_zero`` renders its witness with ``str``, which for a
``TruncatedSeries`` is ``pseries.series_str``.
"""

from __future__ import annotations

from collections import namedtuple


class IdentityResult(namedtuple("IdentityResult", "identity law order passed "
                                "first_failing_degree witness_term",
                                defaults=(None, None))):
    __slots__ = ()

    def to_json(self) -> dict:
        return {
            "identity": self.identity,
            "law": self.law,
            "order": self.order,
            "status": "pass" if self.passed else "fail",
            "first_failing_degree": self.first_failing_degree,
            "witness_term": self.witness_term,
        }


def check_zero(identity: str, law: str, difference) -> IdentityResult:
    """Report whether a difference series vanishes at its trusted order."""
    if difference.is_zero():
        return IdentityResult(identity, law, difference.order, True)
    degree = difference.lowest_degree()
    witness = str(difference.homogeneous_part(degree))
    return IdentityResult(identity, law, difference.order, False, degree, witness)


def check_equal(identity: str, law: str, order: int, got, expected,
                witness: str) -> IdentityResult:
    """Report whether two values are equal; a mismatch fails at degree 0
    with the witness text."""
    if got == expected:
        return IdentityResult(identity, law, order, True)
    return IdentityResult(identity, law, order, False, 0, witness)
