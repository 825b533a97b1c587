"""Per-layer spans, recorded from outside the program.

Each probe wraps one public function (or ``XPolynomial`` operator) of a
layer.  Call sites import by name (``from .geom import a_explicit``), so a
wrapper replaces the original in every ``geomstir`` module namespace that
holds it; operators are replaced on the class.  A wrapper sits outside any
``lru_cache``, so its call count includes cache hits.

A span is (name, parent, start, end).  Spans are kept in flat arrays in
memory and summarised, or written out, once the traced segment is over.  A
span's self time is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

# layer -> (probe, targets) in module.attribute or module.Class.method form
LAYERS = {
    "stirling": (
        ("stirling_rec", ("geomstir.stirling.stirling_rec",)),
        ("stirling_explicit", ("geomstir.stirling.stirling_explicit",)),
        ("param_swap_rhs", ("geomstir.stirling.param_swap_rhs",)),
    ),
    "xpoly": (
        ("new", ("geomstir.xpoly.XPolynomial.__init__",)),
        ("mul", ("geomstir.xpoly.XPolynomial.__mul__",
                 "geomstir.xpoly.XPolynomial.__rmul__")),
        ("add", ("geomstir.xpoly.XPolynomial.__add__",
                 "geomstir.xpoly.XPolynomial.__radd__",
                 "geomstir.xpoly.XPolynomial.__sub__",
                 "geomstir.xpoly.XPolynomial.__rsub__")),
        ("eval", ("geomstir.xpoly.XPolynomial.__call__",)),
    ),
    "series": (
        ("mul", ("geomstir.series.series_mul",)),
        ("inverse", ("geomstir.series.series_geom_inverse",)),
        ("pow", ("geomstir.series.series_int_pow",)),
        ("exp", ("geomstir.series.series_exp",)),
        ("binomial", ("geomstir.series.binomial_series",)),
        ("gff", ("geomstir.series.gff",)),
    ),
    "geom": (
        ("a_explicit", ("geomstir.geom.a_explicit",)),
        ("a_egf", ("geomstir.geom.a_egf",)),
        ("a_recurrence", ("geomstir.geom.a_recurrence",)),
        ("a_eval", ("geomstir.geom.a_eval",)),
    ),
    "exppoly": (
        ("s_exp_explicit", ("geomstir.exppoly.s_exp_explicit",)),
        ("s_exp_eval", ("geomstir.exppoly.s_exp_eval",)),
        ("s_exp_egf", ("geomstir.exppoly.s_exp_egf",)),
        ("lemma34_sides", ("geomstir.exppoly.lemma34_sides",)),
    ),
    "euler": (
        ("euler_via_a", ("geomstir.euler.euler_via_a",)),
        ("euler_egf", ("geomstir.euler.euler_egf",)),
        ("euler_explicit", ("geomstir.euler.euler_explicit",)),
        ("euler_polynomial", ("geomstir.euler.euler_polynomial",)),
    ),
    "oracle": (
        ("count_bpa", ("geomstir.oracle.count_bpa",)),
        ("partitions_with_parts", ("geomstir.oracle.partitions_with_parts",)),
    ),
    "asymptotics": (
        ("w_coefficient", ("geomstir.asymptotics.w_coefficient",)),
        ("hsu_expansion", ("geomstir.asymptotics.hsu_expansion",)),
    ),
    "harness": (("run_suite", ("geomstir.harness.run_suite",)),),
    "cli": (("main", ("geomstir.cli.main",)),),
}

# the lru_cache'd routes whose hit ratio is reported
CACHED = ("geom.a_explicit", "geom.a_egf", "geom.a_recurrence")
# probes whose first argument is a Stirling parameter triple
_STIRLING_ARG = {"stirling.stirling_rec", "stirling.stirling_explicit",
                 "stirling.param_swap_rhs"}
# probes reported by self time only
_SELF_ONLY = {"harness.run_suite", "cli.main"}

# Which end-to-end metric each layer's numbers should move, on which
# workload.  Written down before measuring; printed with every traced run.
MOVES = {
    "stirling": "wall_s on tabulate-deep (table builds) and verify-wide (133k "
                "reads, mostly hashing the Fraction key); no change on series-deep",
    "xpoly": "wall_s on series-deep and verify-wide, then tabulate-deep",
    "series": "wall_s on series-deep, then verify-wide; no change on tabulate-deep",
    "geom": "wall_s and peak_rss_mb on verify-wide",
    "exppoly": "wall_s on verify-wide and series-deep",
    "euler": "wall_s on series-deep",
    "oracle": "wall_s on verify-wide (count) and tabulate-deep (partitions)",
    "asymptotics": "wall_s on tabulate-deep (W(n,j) is recomputed for every lambda)",
    "harness": "wall_s on verify-wide",
    "cli": "wall_s on tabulate-deep; setup_s on all",
    "trace": "none; it qualifies the per-layer numbers",
}


def probes() -> list[tuple[str, tuple[str, ...]]]:
    return [(f"{layer}.{name}", targets)
            for layer, entries in LAYERS.items() for name, targets in entries]


def metric_names() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for layer, entries in LAYERS.items():
        for name, _ in entries:
            probe = f"{layer}.{name}"
            if probe not in _SELF_ONLY:
                out.append((f"{probe}.calls", "count", "lower"))
            out.append((f"{probe}.self_s", "s", "lower"))
            if probe in CACHED:
                out.append((f"{probe}.hit_ratio", "ratio", "higher"))
        if layer == "stirling":
            out.append(("stirling.distinct_params", "count", "lower"))
        if layer == "harness":
            out.append(("harness.points", "count", "higher"))
        if layer == "cli":
            out.append(("cli.out_bytes", "count", "lower"))
        out.append((f"{layer}.self_s", "s", "lower"))
    out.append(("trace.overhead_s", "s", "lower"))
    return out


def _resolve(target: str):
    """(owner, attribute, original) for a dotted target."""
    parts = target.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        mod = sys.modules.get(".".join(parts[:cut]))
        if mod is not None:
            owner = mod
            for attr in parts[cut:-1]:
                owner = getattr(owner, attr)
            return owner, parts[-1], getattr(owner, parts[-1])
    raise LookupError(f"cannot resolve {target}")


class Recorder:
    """Spans of one traced segment, in flat arrays."""

    def __init__(self):
        self.labels: list[str] = [label for label, _ in probes()]
        self.name = array("i")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.stirling_params: set = set()
        self.points = 0
        self.cached = {}

    def _wrap(self, fn, label: str):
        nid = self.labels.index(label)
        name, parent, start, end, stack = (self.name, self.parent, self.start,
                                           self.end, self.stack)
        clock = time.perf_counter
        seen = self.stirling_params if label in _STIRLING_ARG else None
        count_points = label == "harness.run_suite"
        rec = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            i = len(name)
            name.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            if seen is not None:
                seen.add(args[0])
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if count_points:
                rec.points += sum(ident.points for ident in result.identities)
            return result

        return span

    def install(self):
        """Replace every probe target, in every namespace that holds it."""
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "geomstir" or n.startswith("geomstir."))]
        for label, targets in probes():
            for target in targets:
                owner, attr, original = _resolve(target)
                if label in CACHED:
                    self.cached[label] = original
                wrapper = self._wrap(original, label)
                if isinstance(owner, type):
                    setattr(owner, attr, wrapper)
                    continue
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)

    def cache_counts(self) -> dict[str, tuple[int, int]]:
        return {label: (fn.cache_info().hits, fn.cache_info().misses)
                for label, fn in self.cached.items()}

    def summary(self) -> dict:
        """Per-probe calls and self time, and the root spans' total time."""
        n = len(self.name)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        self_s = list(dur)
        roots = 0.0
        for i in range(n):
            p = self.parent[i]
            if p < 0:
                roots += dur[i]
            else:
                self_s[p] -= dur[i]
        calls = [0] * len(self.labels)
        self_by = [0.0] * len(self.labels)
        for i in range(n):
            calls[self.name[i]] += 1
            self_by[self.name[i]] += self_s[i]
        return {
            "calls": dict(zip(self.labels, calls)),
            "self_s": dict(zip(self.labels, self_by)),
            "roots_s": roots,
            "stirling_params": len(self.stirling_params),
            "points": self.points,
        }

    def write(self, path: str, segment: int, append: bool):
        """Write the spans as tab-separated lines."""
        with open(path, "a" if append else "w") as fh:
            if not append:
                fh.write("segment\tspan\tparent\tname\tstart_s\tend_s\n")
            fh.writelines(
                f"{segment}\t{i}\t{self.parent[i]}\t{self.labels[self.name[i]]}\t"
                f"{self.start[i]:.9f}\t{self.end[i]:.9f}\n"
                for i in range(len(self.name)))
