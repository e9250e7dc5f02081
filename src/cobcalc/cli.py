"""Batch command-line front end.

Subcommands: expand, beta, verify IDENTITY, chi grass|recursion|simplicial,
index klein|rp2.  JSON is the machine format; text output is rendered from
the same JSON object, never computed separately.  Exit code 0 means every
requested check passed, so the verification subcommands can gate CI runs.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import localize, pontclass
from .fgl import alpha_table, parse_law


#: Size caps, so that no invocation runs unbounded.  Each sits above every
#: size the benchmark, the tests and ``scripts/verify_all.py`` use.
MAX_ORDER = 24          # expand, beta, verify: --order
MAX_RECURSION = 20      # chi recursion: --max (2,850 cases)
MAX_GRASS_N = 24        # chi grass: --n (at most C(24, 12) = 2,704,156 k-subsets)


#: (flag, least, most) per subcommand, checked before any work is done.  A
#: size below the least would check nothing (verify at order 0, chi recursion
#: with no case) or could not build its table; None means no minimum.
LIMITS = {
    "expand": ("--order", 1, MAX_ORDER),
    "beta": ("--order", 2, MAX_ORDER),
    "verify": ("--order", 1, MAX_ORDER),
    "chi grass": ("--n", None, MAX_GRASS_N),
    "chi recursion": ("--max", 2, MAX_RECURSION),
}


def _check_limits(args) -> None:
    command = " ".join(filter(None, (args.command, getattr(args, "mode", None))))
    if command not in LIMITS:
        return
    flag, least, most = LIMITS[command]
    value = getattr(args, flag.lstrip("-"))
    if least is not None and value < least:
        raise ValueError(f"{command}: {flag} must be >= {least}, got {value}")
    if value > most:
        raise ValueError(f"{command}: {flag} must be <= {most}, got {value}")


def _law_payload_entries(table) -> list[dict]:
    return [{"i": i, "j": j, "value": str(table[(i, j)])}
            for i, j in sorted(table, key=lambda ij: (sum(ij), ij))]


def _cmd_expand(args) -> tuple[dict, bool]:
    law = parse_law(args.law, args.order)
    return {
        "law": law.tag,
        "order": args.order,
        "alpha": _law_payload_entries(alpha_table(law)),
    }, True


def _cmd_beta(args) -> tuple[dict, bool]:
    law = parse_law(args.law, args.order)
    b = pontclass.b_series(law)
    return {
        "law": law.tag,
        "order": args.order,
        "beta": _law_payload_entries(
            {(k, l): c for (k, l), c in b.terms.items() if k >= 1 and l >= 1}),
    }, True


def _cmd_verify(args) -> tuple[dict, bool]:
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


def _cmd_chi(args) -> tuple[dict, bool]:
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
    complex_ = localize.load_complex(args.file)
    chi = complex_.euler_characteristic()
    sd_chi = complex_.barycentric_subdivision().euler_characteristic()
    ok = chi == sd_chi
    fv = complex_.f_vector()
    return {
        "mode": "simplicial",
        "file": str(args.file),
        "f_vector": {str(d): fv[d] for d in sorted(fv)},
        "chi": chi,
        "chi_subdivided": sd_chi,
        "status": "pass" if ok else "fail",
    }, ok


def _cmd_index(args) -> tuple[dict, bool]:
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


def render_text(obj: dict) -> str:
    """Human-readable view of the JSON payload (single source of truth)."""
    lines: list[str] = []
    for key, val in obj.items():
        if isinstance(val, list):
            if not val:
                lines.append(f"{key}: (none)")
                continue
            lines.append(f"{key}:")
            for item in val:
                lines.append("  " + "  ".join(f"{k}={v}" for k, v in item.items()))
        elif isinstance(val, dict):
            lines.append(f"{key}: " + " ".join(f"{k}={v}" for k, v in val.items()))
        else:
            lines.append(f"{key}: {val}")
    return "\n".join(lines)


def _add_output_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", choices=("json", "text"), default="text")
    sub.add_argument("--out", type=Path, default=None,
                     help="write the report to this path instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cobcalc",
        description="Exact formal-group-law series tables, identity suites, "
                    "and Euler-characteristic localization checks.")
    subs = parser.add_subparsers(dest="command", required=True)

    expand = subs.add_parser("expand", help="alpha coefficient table of a law")
    expand.add_argument("--law", default="miscenko",
                        help="miscenko | additive | mult:BETA")
    expand.add_argument("--order", type=int, default=10)
    _add_output_flags(expand)
    expand.set_defaults(run=_cmd_expand)

    beta = subs.add_parser("beta", help="beta table of the addition series")
    beta.add_argument("--law", default="miscenko")
    beta.add_argument("--order", type=int, default=10)
    _add_output_flags(beta)
    beta.set_defaults(run=_cmd_beta)

    verify = subs.add_parser("verify", help="run an identity suite")
    verify.add_argument("identity",
                        help="axioms | lemma6.1 | phi-factorization | "
                             "two-series-hom | lemma6.2 | u-equals-ubar-in-A | "
                             "thm6.6-in-A | assoc-in-A | exact | in-A | all")
    verify.add_argument("--law", default="miscenko")
    verify.add_argument("--order", type=int, default=10)
    _add_output_flags(verify)
    verify.set_defaults(run=_cmd_verify)

    chi = subs.add_parser("chi", help="Euler-characteristic computations")
    chi_subs = chi.add_subparsers(dest="mode", required=True)
    grass = chi_subs.add_parser("grass", help="chi of a real Grassmannian")
    grass.add_argument("--n", type=int, required=True)
    grass.add_argument("--k", type=int, required=True)
    _add_output_flags(grass)
    grass.set_defaults(run=_cmd_chi)
    recursion = chi_subs.add_parser("recursion",
                                    help="exhaustive localization recursion")
    recursion.add_argument("--max", type=int, default=10,
                           help="check all n1 + n2 up to this total")
    _add_output_flags(recursion)
    recursion.set_defaults(run=_cmd_chi)
    simplicial = chi_subs.add_parser("simplicial",
                                     help="chi of a complex from a file")
    simplicial.add_argument("--file", type=Path, required=True,
                            help="one simplex per line, space-separated labels")
    _add_output_flags(simplicial)
    simplicial.set_defaults(run=_cmd_chi)

    index = subs.add_parser("index", help="index-ledger example checks")
    index.add_argument("which", choices=("klein", "rp2"))
    _add_output_flags(index)
    index.set_defaults(run=_cmd_index)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_limits(args)
        payload, ok = args.run(args)
        text = (json.dumps(payload, indent=2) if args.format == "json"
                else render_text(payload))
        if args.out is not None:
            args.out.write_text(text + "\n")
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.out is None:
        print(text)
    if not ok:
        failures = [r for r in payload.get("results", payload.get("failures", []))
                    if r.get("status") == "fail"]
        if failures:
            first = failures[0]
            print(f"first failure: {json.dumps(first)}", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
