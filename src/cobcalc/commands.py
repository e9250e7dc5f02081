"""Payload builders of the command-line subcommands.

One function per subcommand, named after it, takes the parsed arguments and
returns ``(payload, ok)``: the JSON object to render and whether every
requested check passed.  ``cli`` imports this module only once the
arguments are accepted, so ``--help`` and usage errors load no series code.
Every subcommand loads the whole series stack, because the benchmark's
tracer (``perfbench/tracer.py``) looks up each module it wraps after a run;
only ``chi simplicial`` loads ``pathlib``, to read its ``--file``.  The
stack keeps its scalars as integer pairs, so ``fractions`` (and with it
``decimal`` and ``numbers``) loads only where a Fraction is made: for a
``mult:BETA`` law whose BETA is not an integer, which is parsed as one.
"""

from __future__ import annotations

from . import localize, pontclass
from .fgl import alpha_table, parse_law


def _law_payload_entries(table) -> list[dict]:
    return [{"i": i, "j": j, "value": str(table[(i, j)])}
            for i, j in sorted(table, key=lambda ij: (sum(ij), ij))]


def expand(args) -> tuple[dict, bool]:
    law = parse_law(args.law, args.order)
    return {
        "law": law.tag,
        "order": args.order,
        "alpha": _law_payload_entries(alpha_table(law)),
    }, True


def beta(args) -> tuple[dict, bool]:
    law = parse_law(args.law, args.order)
    b = pontclass.b_series(law)
    return {
        "law": law.tag,
        "order": args.order,
        "beta": _law_payload_entries(
            {(k, l): c for (k, l), c in b.terms.items() if k >= 1 and l >= 1}),
    }, True


def verify(args) -> tuple[dict, bool]:
    which = pontclass.normalize_suite_name(args.identity)
    rows = pontclass.verify_identity_suite(args.law, which, args.order)
    ok = all(r.passed for r in rows)
    return {
        "suite": which,
        "law": args.law,
        "order": args.order,
        "status": "pass" if ok else "fail",
        "results": [r.to_json() for r in rows],
    }, ok


def chi(args) -> tuple[dict, bool]:
    if args.mode == "grass":
        value = localize.chi_grassmann(args.n, args.k)
        return {"mode": "grass", "n": args.n, "k": args.k, "chi": value}, True
    if args.mode == "recursion":
        rows = localize.localization_recursion_report(args.max)
        failures = [r.to_json() for r in rows if not r.passed]
        ok = not failures
        return {
            "mode": "recursion",
            "max": args.max,
            "cases": len(rows),
            "status": "pass" if ok else "fail",
            "failures": failures,
        }, ok
    from pathlib import Path
    path = Path(args.file)
    complex_ = localize.load_complex_text(path.read_text())
    chi = complex_.euler_characteristic()
    sd_chi = complex_.barycentric_subdivision().euler_characteristic()
    ok = chi == sd_chi
    fv = complex_.f_vector()
    return {
        "mode": "simplicial",
        "file": str(path),
        "f_vector": {str(d): fv[d] for d in sorted(fv)},
        "chi": chi,
        "chi_subdivided": sd_chi,
        "status": "pass" if ok else "fail",
    }, ok


def index(args) -> tuple[dict, bool]:
    check = (localize.klein_index_check if args.which == "klein"
             else localize.rp2_decomposition_check)
    summary, rows = check()
    ok = all(r.passed for r in rows)
    return {
        "check": args.which,
        "summary": summary,
        "status": "pass" if ok else "fail",
        "results": [r.to_json() for r in rows],
    }, ok
