"""The benchmark's workloads and the correctness gate on their output.

Each workload is one fixed ``python -m cobcalc ... --format json``
invocation.  The gate decides from the exit code and the JSON payload
alone whether an invocation produced the expected mathematical content;
the expected values in ``expected.json`` were recorded once from the
seed commit and hold for every correct version of the program.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

#: Integral multiplicative parameters the seed chooses from for
#: ``integral_in_A``; seed 0 gives beta = 1.  All pass at order 20, so a
#: claim can be rechecked on a beta it was not tuned on.
BETAS = (1, -1, 2, -2, 3)

EXPECTED = json.loads((Path(__file__).with_name("expected.json")).read_text())


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    words: tuple[str, ...]     # subcommand words before the law and size
    size_flag: str
    size: int
    laws: tuple[str, ...] = ()  # the seed picks one; none: no --law flag

    def argv(self, seed: int) -> list[str]:
        """Arguments after ``python -m cobcalc``."""
        law = ["--law", self.laws[seed % len(self.laws)]] if self.laws else []
        return [*self.words, *law, self.size_flag, str(self.size), "--format", "json"]


# Sizes give invocations of about 1 s.  Single invocations on a shared
# 2-core host vary by about 20%, so a run needs 20 or more of them for a
# steady median; the larger sizes (orders 11/14/24, --max 19) allowed 5-12.
WORKLOADS = {w.name: w for w in (
    Workload("universal_exact",
             "identity checks over polynomial coefficients: CoeffPoly mul and "
             "phi_series dominate; intlattice and localize idle",
             ("verify", "exact"), "--order", 9, ("miscenko",)),
    Workload("universal_tables",
             "beta table: law construction (per-degree inverse solve, "
             "reversion) dominates, then b_series and divided differences",
             ("beta",), "--order", 12, ("miscenko",)),
    Workload("integral_in_A",
             "scalar coefficients bypass the monomial merge; from_log "
             "cross-check and IntegerLattice echelon builds; seed picks beta",
             ("verify", "all"), "--order", 20,
             tuple(f"mult:{beta}" for beta in BETAS)),
    Workload("chi_recursion",
             "pure localize: Grassmannian Schubert-cell enumeration behind "
             "an lru_cache, no series work",
             ("chi", "recursion"), "--max", 17),
)}


def beta_digest(entries: list[dict]) -> str:
    """sha256 of the (i, j, value) triples of a beta table, in order."""
    triples = [[e["i"], e["j"], e["value"]] for e in entries]
    return hashlib.sha256(json.dumps(triples).encode()).hexdigest()


def check_output(workload: Workload, argv: list[str], exit_code: int,
                 stdout: str) -> str | None:
    """None if the invocation is correct, else the reason it is not."""
    if exit_code != 0:
        return f"exit code {exit_code}"
    try:
        payload = json.loads(stdout)
    except ValueError:
        return "stdout is not a JSON payload"
    if not isinstance(payload, dict):
        return "payload is not a JSON object"
    size = int(argv[argv.index(workload.size_flag) + 1])
    expected = EXPECTED[workload.name]
    try:
        if workload.name == "universal_tables":
            return _check_beta(payload, size, expected)
        if workload.name == "chi_recursion":
            return _check_chi(payload, size, expected)
        return _check_rows(payload, argv[argv.index("--law") + 1], size, expected)
    except (KeyError, TypeError, ValueError) as exc:
        return f"malformed payload: {exc!r}"


def _check_rows(payload: dict, law: str, order: int, expected: dict) -> str | None:
    rows = payload["results"]
    if not rows:
        return "no result rows"
    failed = [r["identity"] for r in rows if r["status"] != "pass"]
    if failed:
        return f"rows not passing: {failed}"
    if payload["status"] != "pass":
        return f"payload status {payload['status']!r}"
    names = sorted(r["identity"] for r in rows)
    if names != sorted(expected["identities"]):
        return f"identity set differs from the expected {len(expected['identities'])} rows"
    orders = {r["order"] for r in rows}
    if orders != {order} or payload["order"] != order:
        return f"rows checked at orders {sorted(orders)}, requested {order}"
    if payload["law"] != law:
        return f"payload law {payload['law']!r}, requested {law!r}"
    return None


def _check_beta(payload: dict, order: int, expected: dict) -> str | None:
    entries = payload["beta"]
    if not entries:
        return "empty beta table"
    if payload["order"] != order:
        return f"payload order {payload['order']}, requested {order}"
    want = expected["beta_sha256"].get(str(order))
    if beta_digest(entries) != want:
        return "beta table digest differs from the recorded one"
    return None


def _check_chi(payload: dict, max_total: int, expected: dict) -> str | None:
    cases = payload["cases"]
    if not cases:
        return "no cases checked"
    if payload["status"] != "pass" or payload["failures"]:
        return f"recursion status {payload['status']!r}"
    want = expected["cases"].get(str(max_total))
    if cases != want:
        return f"{cases} cases checked, expected {want}"
    return None
