"""Batch command-line front end.

Subcommands: expand, beta, verify IDENTITY, chi grass|recursion|simplicial,
index klein|rp2.  JSON is the machine format; text output is rendered from
the same JSON object, never computed separately.  Exit code 0 means every
requested check passed, so the verification subcommands can gate CI runs.

``main(argv)`` is ``execute(parse(argv))``.  This module imports no series
code: ``execute`` imports ``commands``, which loads it, only after argparse
has accepted the arguments, so ``--help`` and usage errors exit without it.
Paths are parsed as strings, and ``pathlib`` loads only to write ``--out``.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys


#: Size caps, so that no invocation runs unbounded.  Each sits above every
#: size the benchmark, the tests and ``scripts/verify_all.py`` use.
MAX_ORDER = 24          # expand, beta, verify: --order
MAX_RECURSION = 20      # chi recursion: --max (2,850 cases)
MAX_GRASS_N = 24        # chi grass: --n (at most C(24, 12) = 2,704,156 k-subsets)


#: (flag, least, most) per subcommand, checked before any work is done.  A
#: size below the least would check nothing (verify at order 0, chi recursion
#: with no case), could not build its table or names no space (R^-1).
LIMITS = {
    "expand": ("--order", 1, MAX_ORDER),
    "beta": ("--order", 2, MAX_ORDER),
    "verify": ("--order", 1, MAX_ORDER),
    "chi grass": ("--n", 0, MAX_GRASS_N),
    "chi recursion": ("--max", 2, MAX_RECURSION),
}


def _check_limits(args) -> None:
    command = " ".join(filter(None, (args.command, getattr(args, "mode", None))))
    if command not in LIMITS:
        return
    flag, least, most = LIMITS[command]
    value = getattr(args, flag.lstrip("-"))
    if value < least:
        raise ValueError(f"{command}: {flag} must be >= {least}, got {value}")
    if value > most:
        raise ValueError(f"{command}: {flag} must be <= {most}, got {value}")


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
    sub.add_argument("--out", default=None,
                     help="write the report to this path instead of stdout")


def parse(argv=None) -> argparse.Namespace:
    """Parse ``argv``; argparse exits on ``--help`` and on usage errors."""
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

    beta = subs.add_parser("beta", help="beta table of the addition series")
    beta.add_argument("--law", default="miscenko")
    beta.add_argument("--order", type=int, default=10)
    _add_output_flags(beta)

    verify = subs.add_parser("verify", help="run an identity suite")
    verify.add_argument("identity",
                        help="axioms | lemma6.1 | phi-factorization | "
                             "two-series-hom | lemma6.2 | u-equals-ubar-in-A | "
                             "thm6.6-in-A | assoc-in-A | exact | in-A | all")
    verify.add_argument("--law", default="miscenko")
    verify.add_argument("--order", type=int, default=10)
    _add_output_flags(verify)

    chi = subs.add_parser("chi", help="Euler-characteristic computations")
    chi_subs = chi.add_subparsers(dest="mode", required=True)
    grass = chi_subs.add_parser("grass", help="chi of a real Grassmannian")
    grass.add_argument("--n", type=int, required=True)
    grass.add_argument("--k", type=int, required=True)
    _add_output_flags(grass)
    recursion = chi_subs.add_parser("recursion",
                                    help="exhaustive localization recursion")
    recursion.add_argument("--max", type=int, default=10,
                           help="check all n1 + n2 up to this total")
    _add_output_flags(recursion)
    simplicial = chi_subs.add_parser("simplicial",
                                     help="chi of a complex from a file")
    simplicial.add_argument("--file", required=True,
                            help="one simplex per line, space-separated labels")
    _add_output_flags(simplicial)

    index = subs.add_parser("index", help="index-ledger example checks")
    index.add_argument("which", choices=("klein", "rp2"))
    _add_output_flags(index)

    return parser.parse_args(argv)


def execute(args: argparse.Namespace) -> int:
    """Run one parsed invocation, importing the series code, and return its
    exit code."""
    from . import commands

    try:
        _check_limits(args)
        out = args.out is not None and os.path.abspath(args.out)
        if out and (os.path.isdir(out) or not os.path.isdir(os.path.dirname(out))):
            code = errno.EISDIR if os.path.isdir(out) else errno.ENOENT
            raise OSError(code, os.strerror(code), args.out)
        payload, ok = getattr(commands, args.command)(args)
        text = (json.dumps(payload, indent=2) if args.format == "json"
                else render_text(payload))
        if args.out is not None:
            from pathlib import Path
            Path(args.out).write_text(text + "\n")
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


def main(argv=None) -> int:
    return execute(parse(argv))
