"""Traced in-process run: spans around the calls into each cobcalc layer.

The program itself is not changed.  ``Tracer.installed`` replaces each
function listed in ``WRAPPED`` on every module of the package that binds
it (``pontclass`` and ``cli`` import several ``fgl`` functions by name),
runs the CLI's ``main`` in this process, and restores the originals.

Each wrapped call is a span (id, parent id, name, start, end) kept in
memory and written out when the run ends.  Self time is a span's
duration minus the time covered by its child spans.  The coefficient-ring
operations run millions of times, so they are folded into one record of
calls and self time per name instead of a record per call, and
``mono_mul`` is only counted.  Trivial accessors and constructors are not
wrapped; their time counts toward the calling span.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import statistics
import sys
import time
import traceback
from math import comb
from pathlib import Path

from workloads import check_output

SPAN, HOT, COUNT = "span", "hot", "count"

#: (module under cobcalc, attribute path, span name, kind).  The layer of
#: a span is the part of its name before the first dot.
WRAPPED = [
    ("coeffring", "mono_mul", "coeffring.mono_mul", COUNT),
    *[("coeffring", f"CoeffPoly.{m}", f"coeffring.{n}", HOT) for m, n in (
        ("__mul__", "mul"), ("__add__", "add"), ("__sub__", "sub"),
        ("__neg__", "neg"), ("scale", "scale"))],
    *[("pseries", f"TruncatedSeries.{m}", f"pseries.{m.strip('_')}", SPAN) for m in (
        "__mul__", "__add__", "__sub__", "__neg__", "__pow__", "__eq__",
        "scale", "times_monomial", "truncate", "rename", "extend", "restrict",
        "partial_derivative", "evaluate", "substitute", "divided_by_variable",
        "divided_difference", "reciprocal", "reversion")],
    ("pseries", "series_str", "pseries.series_str", SPAN),
    *[("fgl", f, f"fgl.{f}", SPAN) for f in (
        "miscenko_log", "additive_log", "multiplicative_log", "from_log",
        "from_f", "miscenko_law", "additive_law", "multiplicative_law",
        "parse_law", "cp_series", "n_series", "a_series", "alpha_table",
        "alpha_series", "verify_axioms")],
    *[("pontclass", f, f"pontclass.{f}", SPAN) for f in (
        "phi_series", "delta_d_series", "b_series", "cor63_series",
        "verify_identity_suite")],
    ("pontclass", "QuotientRingA.__init__", "pontclass.quotient_build", SPAN),
    ("pontclass", "QuotientRingA.reduce", "pontclass.reduce", SPAN),
    ("pontclass", "QuotientRingA.two_series", "pontclass.two_series", SPAN),
    ("intlattice", "IntegerLattice.__init__", "intlattice.build", SPAN),
    ("intlattice", "IntegerLattice.reduce", "intlattice.reduce", SPAN),
    *[("localize", f, f"localize.{f}", SPAN) for f in (
        "chi_grassmann", "localization_sum", "localization_recursion_report")],
    ("report", "check_zero", "cli.check_zero", SPAN),
    ("cli", "main", "cli.main", SPAN),
    # cli renders the JSON payload through its own ``json`` binding.
    ("cli", "json.dumps", "cli.render", SPAN),
]

LAYERS = ("coeffring", "pseries", "fgl", "pontclass", "intlattice",
          "localize", "cli")

#: Series that depend only on the law (and n); repeated calls are repeated work.
DERIVED = ("fgl.n_series", "fgl.a_series", "fgl.alpha_series",
           "pontclass.phi_series", "pontclass.delta_d_series",
           "pontclass.b_series")

#: Per-layer metrics and their units.  Metrics whose unit is not "s" are
#: deterministic and must repeat exactly across traced repetitions.
UNITS = {
    "coeffring.mul_calls": "count", "coeffring.mono_mul_calls": "count",
    "coeffring.add_calls": "count", "coeffring.mul_self_s": "s",
    "coeffring.add_self_s": "s",
    "pseries.mul_calls": "count", "pseries.mul_terms_out": "count",
    "pseries.mul_self_s": "s", "pseries.evaluate_calls": "count",
    "pseries.evaluate_self_s": "s", "pseries.reversion_calls": "count",
    "pseries.reversion_s": "s", "pseries.divided_difference_calls": "count",
    "pseries.divided_difference_s": "s",
    "fgl.law_builds": "count", "fgl.law_build_s": "s",
    "fgl.verify_axioms_s": "s", "fgl.crosscheck_s": "s",
    "fgl.n_series_calls": "count", "fgl.a_series_calls": "count",
    "fgl.derived_unique_ratio": "ratio",
    "pontclass.phi_calls": "count", "pontclass.phi_s": "s",
    "pontclass.suite_s": "s", "pontclass.b_series_calls": "count",
    "pontclass.b_series_s": "s", "pontclass.delta_d_calls": "count",
    "pontclass.delta_d_s": "s", "pontclass.quotient_builds": "count",
    "pontclass.quotient_build_s": "s", "pontclass.reduce_calls": "count",
    "pontclass.reduce_s": "s",
    "intlattice.build_s": "s", "intlattice.rows_in": "count",
    "intlattice.ncols": "count", "intlattice.pivots": "count",
    "intlattice.reduce_calls": "count", "intlattice.reduce_s": "s",
    "localize.recursion_s": "s", "localize.cases": "count",
    "localize.chi_calls": "count", "localize.chi_cache_hit_ratio": "ratio",
    "localize.partitions_enumerated": "count",
    "cli.render_s": "s", "cli.payload_bytes": "bytes",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.spans": "count", "trace.traced_s": "s", "trace.untraced_s": "s",
    "trace.overhead_ratio": "ratio", "trace.unclaimed_s": "s",
}

#: Untraced and traced repetitions per run: at least MIN_PAIRS of each, and
#: at most MAX_PAIRS while the run's seconds last.
MIN_PAIRS, MAX_PAIRS = 2, 5

#: Unclaimed time is spent in ``cli.main`` itself rather than in a wrapped
#: function it calls.  It may be at most UNCLAIMED_SHARE of the traced wall
#: time plus UNCLAIMED_FIXED_S, about four times what building and running
#: the argument parser takes.
UNCLAIMED_SHARE, UNCLAIMED_FIXED_S = 0.1, 0.01


class Tracer:
    """Spans and counters of one traced repetition."""

    def __init__(self, run_id: int):
        self.run_id = run_id
        self.spans: list[tuple] = []   # (span id, parent id, name, start, end, self s)
        self.hot: dict[str, list] = {}    # name -> [calls, self s]
        self.counts: dict[str, list] = {}  # name -> [calls]
        self.tallies = dict.fromkeys(
            ("pseries.mul_terms_out", "intlattice.rows_in", "intlattice.ncols",
             "intlattice.pivots", "localize.cases"), 0)
        self.derived_keys: list[tuple] = []
        self.chi_args: set[tuple[int, int]] = set()
        self._stack: list[list] = [[0.0, 0]]   # frames: [child s, span id]
        self._ids = itertools.count(1)

    # -- wrappers ------------------------------------------------------------

    def _span(self, fn, name):
        stack, spans, ids, clock = self._stack, self.spans, self._ids, time.perf_counter
        post = self._post_hook(name)

        def traced(*args, **kwargs):
            parent = stack[-1][1]
            frame = [0.0, next(ids)]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                stack[-1][0] += end - start
                spans.append((frame[1], parent, name, start, end,
                              end - start - frame[0]))
            if post is not None:
                post(args, result)
            return result
        return traced

    def _hot(self, fn, name):
        stack, clock = self._stack, time.perf_counter
        cell = self.hot.setdefault(name, [0, 0.0])

        def traced(*args):
            frame = [0.0, stack[-1][1]]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args)
            finally:
                elapsed = clock() - start
                stack.pop()
                stack[-1][0] += elapsed
                cell[0] += 1
                cell[1] += elapsed - frame[0]
        return traced

    def _count(self, fn, name):
        cell = self.counts.setdefault(name, [0])

        def counted(*args):
            cell[0] += 1
            return fn(*args)
        return counted

    def _post_hook(self, name):
        tallies = self.tallies
        if name in DERIVED:
            keys = self.derived_keys

            def derived(args, result):
                law = args[0]
                keys.append((name, law.tag, law.order, *args[1:]))
            return derived
        if name == "pseries.mul":
            def terms_out(args, result):
                if result is not NotImplemented:
                    tallies["pseries.mul_terms_out"] += len(result.terms)
            return terms_out
        if name == "intlattice.build":
            def lattice(args, result):
                tallies["intlattice.rows_in"] += len(args[1])
                tallies["intlattice.ncols"] += args[2]
                tallies["intlattice.pivots"] += len(args[0].pivots)
            return lattice
        if name == "localize.chi_grassmann":
            return lambda args, result: self.chi_args.add(args)
        if name == "localize.localization_recursion_report":
            def cases(args, result):
                tallies["localize.cases"] += len(result)
            return cases
        return None

    # -- installation --------------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Install every wrapper for the duration of the block."""
        restore: list[tuple[object, str, object]] = []
        make = {SPAN: self._span, HOT: self._hot, COUNT: self._count}
        package = {name: mod for name, mod in sys.modules.items()
                   if name == "cobcalc" or name.startswith("cobcalc.")}
        try:
            for module, path, name, kind in WRAPPED:
                *owner_path, attr = path.split(".")
                owner = package[f"cobcalc.{module}"]
                for part in owner_path:
                    owner = getattr(owner, part)
                original = vars(owner)[attr]
                wrapped = make[kind](original, name)
                # A module-level function may be imported by name elsewhere.
                owners = ([m for m in package.values() if m is not None]
                          if owner is package[f"cobcalc.{module}"] else [owner])
                for holder in owners:
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            restore.append((holder, key, value))
                            setattr(holder, key, wrapped)
            yield self
        finally:
            for holder, key, value in reversed(restore):
                setattr(holder, key, value)

    # -- metrics -------------------------------------------------------------

    def metrics(self, chi_cache_info) -> dict[str, float]:
        """Per-layer metrics of this repetition (without the trace.* ones
        that compare repetitions)."""
        calls: dict[str, int] = {}
        own_by_name: dict[str, float] = {}
        self_s = dict.fromkeys(LAYERS, 0.0)
        by_id: dict[int, tuple[int, str]] = {}
        by_name: dict[str, list[tuple[int, float]]] = {}
        for span_id, parent, name, start, end, own in self.spans:
            calls[name] = calls.get(name, 0) + 1
            own_by_name[name] = own_by_name.get(name, 0.0) + own
            self_s[name.split(".", 1)[0]] += own
            by_id[span_id] = (parent, name)
            by_name.setdefault(name, []).append((parent, end - start))
        for name, (n, own) in self.hot.items():
            calls[name] = n
            self_s[name.split(".", 1)[0]] += own

        def inclusive(name: str, parents: tuple[str, ...] = ()) -> float:
            """Summed duration of the outermost spans of this name (only
            those directly under a span named in ``parents``, if given)."""
            total = 0.0
            for parent, duration in by_name.get(name, ()):
                if parents and by_id.get(parent, (0, ""))[1] not in parents:
                    continue
                ancestor = parent
                while ancestor in by_id and by_id[ancestor][1] != name:
                    ancestor = by_id[ancestor][0]
                if ancestor not in by_id:
                    total += duration
            return total

        derived_calls = len(self.derived_keys)
        lookups = chi_cache_info.hits + chi_cache_info.misses
        out = {
            "coeffring.mul_calls": calls.get("coeffring.mul", 0),
            "coeffring.mono_mul_calls": self.counts["coeffring.mono_mul"][0],
            "coeffring.add_calls": calls.get("coeffring.add", 0),
            "coeffring.mul_self_s": self.hot["coeffring.mul"][1],
            "coeffring.add_self_s": self.hot["coeffring.add"][1],
            "pseries.mul_calls": calls.get("pseries.mul", 0),
            "pseries.mul_terms_out": self.tallies["pseries.mul_terms_out"],
            "pseries.mul_self_s": own_by_name.get("pseries.mul", 0.0),
            "pseries.evaluate_calls": calls.get("pseries.evaluate", 0),
            "pseries.evaluate_self_s": own_by_name.get("pseries.evaluate", 0.0),
            "pseries.reversion_calls": calls.get("pseries.reversion", 0),
            "pseries.reversion_s": inclusive("pseries.reversion"),
            "pseries.divided_difference_calls": calls.get("pseries.divided_difference", 0),
            "pseries.divided_difference_s": inclusive("pseries.divided_difference"),
            "fgl.law_builds": calls.get("fgl.parse_law", 0),
            "fgl.law_build_s": inclusive("fgl.parse_law"),
            "fgl.verify_axioms_s": inclusive("fgl.verify_axioms"),
            "fgl.crosscheck_s": inclusive(
                "fgl.from_log", ("fgl.additive_law", "fgl.multiplicative_law")),
            "fgl.n_series_calls": calls.get("fgl.n_series", 0),
            "fgl.a_series_calls": calls.get("fgl.a_series", 0),
            "fgl.derived_unique_ratio": (len(set(self.derived_keys)) / derived_calls
                                         if derived_calls else 0.0),
            "pontclass.phi_calls": calls.get("pontclass.phi_series", 0),
            "pontclass.phi_s": inclusive("pontclass.phi_series"),
            "pontclass.suite_s": inclusive("pontclass.verify_identity_suite"),
            "pontclass.b_series_calls": calls.get("pontclass.b_series", 0),
            "pontclass.b_series_s": inclusive("pontclass.b_series"),
            "pontclass.delta_d_calls": calls.get("pontclass.delta_d_series", 0),
            "pontclass.delta_d_s": inclusive("pontclass.delta_d_series"),
            "pontclass.quotient_builds": calls.get("pontclass.quotient_build", 0),
            "pontclass.quotient_build_s": inclusive("pontclass.quotient_build"),
            "pontclass.reduce_calls": calls.get("pontclass.reduce", 0),
            "pontclass.reduce_s": inclusive("pontclass.reduce"),
            "intlattice.build_s": inclusive("intlattice.build"),
            "intlattice.rows_in": self.tallies["intlattice.rows_in"],
            "intlattice.ncols": self.tallies["intlattice.ncols"],
            "intlattice.pivots": self.tallies["intlattice.pivots"],
            "intlattice.reduce_calls": calls.get("intlattice.reduce", 0),
            "intlattice.reduce_s": inclusive("intlattice.reduce"),
            "localize.recursion_s": inclusive("localize.localization_recursion_report"),
            "localize.cases": self.tallies["localize.cases"],
            "localize.chi_calls": calls.get("localize.chi_grassmann", 0),
            "localize.chi_cache_hit_ratio": (chi_cache_info.hits / lookups
                                             if lookups else 0.0),
            "localize.partitions_enumerated": sum(comb(n, k) for n, k in self.chi_args),
            "cli.render_s": inclusive("cli.render"),
            **{f"{layer}.self_s": self_s[layer] for layer in LAYERS},
            "trace.spans": len(self.spans),
            "trace.unclaimed_s": own_by_name.get("cli.main", 0.0),
        }
        return out

    def write(self, path: Path) -> None:
        """Append this repetition's spans and folded records as TSV."""
        new = not path.exists()
        with path.open("a") as out:
            if new:
                out.write("run_id\tspan_id\tparent_id\tname\tstart\tend\tself_s\n")
            for span_id, parent, name, start, end, own in self.spans:
                out.write(f"{self.run_id}\t{span_id}\t{parent}\t{name}\t"
                          f"{start:.9f}\t{end:.9f}\t{own:.9f}\n")
            for name, (n, own) in sorted(self.hot.items()):
                out.write(f"{self.run_id}\tfolded\t{n}\t{name}\t\t\t{own:.9f}\n")
            for name, (n,) in sorted(self.counts.items()):
                out.write(f"{self.run_id}\tcounted\t{n}\t{name}\t\t\t\n")


def invoke(cli, argv: list[str]) -> tuple[float, int, str]:
    """Run ``cli.main(argv)`` in this process: (wall s, exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:   # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:   # a crash fails the gate like a child's exit code 1
            traceback.print_exc()
            code = 1
        wall = time.perf_counter() - start
    return wall, code, out.getvalue()


def traced_run(workload, seed: int, seconds: float,
               spans_path: Path) -> tuple[dict, list[str], int, int]:
    """Alternating untraced and traced in-process repetitions of one workload,
    until ``seconds`` have passed (at least ``MIN_PAIRS``, at most ``MAX_PAIRS``).

    Returns (metrics, problems, attempted, failed); a problem is any
    failed correctness gate or broken trace invariant.
    """
    from cobcalc import cli, localize

    chi = localize.chi_grassmann
    argv = workload.argv(seed)
    problems: list[str] = []
    failed = 0

    def one(tracer: Tracer | None):
        nonlocal failed
        chi.cache_clear()
        if tracer is None:
            wall, code, stdout = invoke(cli, argv)
        else:
            with tracer.installed():
                wall, code, stdout = invoke(cli, argv)
        reason = check_output(workload, argv, code, stdout)
        if reason:
            failed += 1
            problems.append(reason)
        return wall, stdout.encode()

    started = time.perf_counter()
    untraced: list[float] = []
    reps: list[dict] = []
    spans_path.unlink(missing_ok=True)
    while len(reps) < MIN_PAIRS or (len(reps) < MAX_PAIRS and time.perf_counter()
                                    - started + untraced[-1] + reps[-1]["trace.traced_s"]
                                    <= seconds):
        untraced_wall, untraced_out = one(None)
        untraced.append(untraced_wall)
        tracer = Tracer(len(reps) + 1)
        wall, out = one(tracer)
        if out != untraced_out:
            problems.append(f"traced repetition {tracer.run_id} printed other bytes")
        cache = chi.cache_info()
        if cache.misses != len(tracer.chi_args):
            problems.append("chi_grassmann cache misses differ from the distinct "
                            "(n, k) it was called with")
        metrics = tracer.metrics(cache)
        metrics["cli.payload_bytes"] = len(out)
        metrics["trace.traced_s"] = wall
        # cli.main is itself a span, so the layer self times sum to its
        # duration by construction; this only checks the span bookkeeping.
        # Whether the layers cover the run is the unclaimed check below.
        layers_s = sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
        if abs(layers_s - wall) > max(wall - untraced_wall, 0.0) + 1e-3:
            problems.append(f"layer self times sum to {layers_s:.4f} s, traced "
                            f"wall {wall:.4f} s, untraced {untraced_wall:.4f} s")
        if metrics["trace.unclaimed_s"] > UNCLAIMED_SHARE * wall + UNCLAIMED_FIXED_S:
            problems.append(f"{metrics['trace.unclaimed_s']:.4f} s of the traced "
                            f"{wall:.4f} s is in cli.main itself, claimed by no "
                            f"wrapped function")
        tracer.write(spans_path)
        reps.append(metrics)

    result = {}
    for name, unit in UNITS.items():
        if name in ("trace.traced_s", "trace.untraced_s", "trace.overhead_ratio"):
            continue
        values = [rep[name] for rep in reps]
        if unit == "s":
            result[name] = statistics.median(values)
        elif len(set(values)) == 1:
            result[name] = values[0]
        else:
            problems.append(f"{name} differs across traced repetitions: {values}")
            result[name] = statistics.median(values)
    traced = statistics.median(rep["trace.traced_s"] for rep in reps)
    result["trace.traced_s"] = traced
    result["trace.untraced_s"] = statistics.median(untraced)
    result["trace.overhead_ratio"] = traced / result["trace.untraced_s"]
    return result, problems, len(untraced) + len(reps), failed
