"""Outside-in tracing of the qpairs layers for the benchmark's traced passes.

`Tracer.install()` replaces the public entry points of each layer (``poly``,
``series``, ``builders``, ``oracle``, ``harness``, ``cli``) with wrappers
that time a span around each call and count work at the boundary. Nothing
in the program changes: the wrappers live here and are put in place by
attribute assignment, on every name a function is reached by (``harness``
imports ``poch_inf``, ``lambert_sum`` and ``phi1`` by name, and the
reflected operators alias the forward ones).

Spans are aggregated in memory by (name, parent name). A span's self time is
its duration minus the durations of its direct child spans. Time spent in a
function that has no wrapper (``ParamPoly.eval``, ``QSeries.__add__``, ...)
is self time of the nearest wrapped caller.

Each command of a pass runs in its own process, so `Tracer.raw()` hands out
one process's aggregates and `metrics()` adds several up into the per-layer
metrics. This module imports qpairs only inside `Tracer.install()`, so the
benchmark driver can use `metrics()` without it.
"""

from __future__ import annotations

import bisect
import time
from typing import Callable, Dict, List, Optional, Tuple

from workloads import CHECKS

BUILDER_FNS = (
    "rank_gf", "rank_gf_lambert", "n2v", "durfee_rhs", "spt_gf", "spt_gf_direct",
    "symmetrized_moment_series", "lambert_sum", "pochhammer", "poch_inf", "phi1",
    "geometric_inverse", "jacobi_J", "build",
)
CACHES = (  # (metric prefix, module, lru_cache attribute)
    ("builders.poch_inf", "builders", "_poch_inf_cached"),
    ("oracle.partitions", "oracle", "partitions"),
    ("oracle.rank_table", "oracle", "rank_table"),
    ("oracle.spt_table", "oracle", "spt_table"),
    ("oracle.marked_rows", "oracle", "_marked_rows"),
)


class Tracer:
    """Spans and counts of one process."""

    def __init__(self) -> None:
        self.stack: List[list] = []  # frames: [name, child seconds]
        self.spans: Dict[Tuple[str, Optional[str]], list] = {}  # -> [calls, total_s, self_s]
        self.counts: Dict[str, int] = {
            "poly.mul.term_pairs": 0, "poly.peak_terms": 0,
            "series.mul.pairs_visited": 0, "series.mul.pairs_useful": 0,
            "series.truncate.seen": 0, "series.truncate.dropped": 0,
            "oracle.enumerate_durfee.symbols": 0,
        }
        self.durfee_kn = set()

    # -- spans ------------------------------------------------------------

    def wrap(self, name: str, fn: Callable, note: Optional[Callable] = None) -> Callable:
        """A wrapper timing ``fn`` as span ``name``; ``note(args, result)``
        counts work at the boundary after a successful call."""
        stack, spans, clock = self.stack, self.spans, time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += dt
                key = (name, parent[0] if parent is not None else None)
                agg = spans.get(key)
                if agg is None:
                    spans[key] = agg = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += dt
                agg[2] += dt - frame[1]
            if note is not None:
                note(args, result)
            return result

        return wrapper

    def _patch(self, owner, attr: str, wrapper: Callable) -> None:
        """Replace ``owner.attr`` and every module-level alias of it."""
        original = getattr(owner, attr)
        setattr(owner, attr, wrapper)
        for mod in self.modules:
            for alias, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, alias, wrapper)

    # -- counting notes -----------------------------------------------------

    def _note_poly_mul(self, args, result) -> None:
        a, b = args
        n = len(a.terms) * (len(b.terms) if isinstance(b, self.poly_type) else 1)
        c = self.counts
        c["poly.mul.term_pairs"] += n
        if len(result.terms) > c["poly.peak_terms"]:
            c["poly.peak_terms"] = len(result.terms)

    def _note_poly_add(self, args, result) -> None:
        c = self.counts
        if len(result.terms) > c["poly.peak_terms"]:
            c["poly.peak_terms"] = len(result.terms)

    def _note_series_mul(self, args, result) -> None:
        a, b = args
        if not isinstance(b, self.series_type):
            return  # scalar or coefficient multiple: no pair products
        order = min(a.order + b.valuation, b.order + a.valuation)
        exps = sorted(b.coeffs)
        useful = sum(bisect.bisect_right(exps, order - i) for i in a.coeffs)
        self.counts["series.mul.pairs_visited"] += len(a.coeffs) * len(exps)
        self.counts["series.mul.pairs_useful"] += useful

    def _note_truncate(self, args, result) -> None:
        s, order = args
        self.counts["series.truncate.seen"] += len(s.coeffs)
        self.counts["series.truncate.dropped"] += sum(1 for n in s.coeffs if n > order)

    def _note_durfee(self, args, result) -> None:
        self.durfee_kn.add((args[0], args[1]))
        self.counts["oracle.enumerate_durfee.symbols"] += len(result)

    def _check_wrapper(self, fn: Callable) -> Callable:
        wrap = self.wrap

        def run_check(check_id, *args, **kwargs):
            return wrap(f"harness.{check_id}", fn)(check_id, *args, **kwargs)

        return run_check

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        from qpairs import builders, cli, harness, oracle, poly, series

        self.modules = (poly, series, builders, oracle, harness, cli)
        mods = {"builders": builders, "oracle": oracle}
        self.caches = {name: getattr(mods[mod], attr) for name, mod, attr in CACHES}
        P = self.poly_type = poly.ParamPoly
        Q = self.series_type = series.QSeries
        mul = self.wrap("poly.mul", P.__mul__, self._note_poly_mul)
        add = self.wrap("poly.add", P.__add__, self._note_poly_add)
        for attr, w in (("__mul__", mul), ("__rmul__", mul), ("__add__", add), ("__radd__", add)):
            setattr(P, attr, w)
        smul = self.wrap("series.mul", Q.__mul__, self._note_series_mul)
        Q.__mul__ = Q.__rmul__ = smul
        Q.invert = self.wrap("series.invert", Q.invert)
        for attr in ("substitute_param", "eval_param", "d_dparam"):
            setattr(Q, attr, self.wrap("series.substitute", getattr(Q, attr)))
        Q.truncate = self.wrap("series.truncate", Q.truncate, self._note_truncate)
        Q.equal_to_order = self.wrap("series.compare", Q.equal_to_order)
        for fn in BUILDER_FNS:
            self._patch(builders, fn, self.wrap(f"builders.{fn}", getattr(builders, fn)))
        self._patch(oracle, "enumerate_durfee",
                    self.wrap("oracle.enumerate_durfee", oracle.enumerate_durfee,
                              self._note_durfee))
        for fn in ("durfee_rank_poly", "durfee_fullrank_poly", "durfee_stats_poly"):
            self._patch(oracle, fn, self.wrap("oracle.durfee_poly", getattr(oracle, fn)))
        self._patch(oracle, "rank_table", self.wrap("oracle.rank_table", oracle.rank_table))
        self._patch(harness, "run_check", self._check_wrapper(harness.run_check))
        self._patch(cli, "main", self.wrap("cli.main", cli.main))

    # -- results ------------------------------------------------------------

    def raw(self) -> dict:
        """Everything traced in this process, in a form that adds up across
        processes (see `metrics`)."""
        caches = {}
        for name, cached in self.caches.items():
            info = cached.cache_info()
            caches[name] = [info.hits, info.misses, info.currsize]
        return {
            "spans": [[name, parent, *agg] for (name, parent), agg in self.spans.items()],
            "counts": dict(self.counts),
            "durfee_kn": sorted(self.durfee_kn),
            "caches": caches,
        }


def metrics(raws: List[dict], scales: List[float]) -> Dict[str, float]:
    """The per-layer metrics of one or more traced processes. The span times
    of ``raws[i]`` are multiplied by ``scales[i]``, its speed scale."""
    spans: Dict[str, list] = {}
    for raw, scale in zip(raws, scales):
        for name, _parent, calls, total, self_s in raw["spans"]:
            agg = spans.setdefault(name, [0, 0.0, 0.0])
            agg[0] += calls
            agg[1] += total * scale
            agg[2] += self_s * scale

    def calls(name):
        return spans.get(name, [0])[0]

    def total_s(name):
        return spans.get(name, [0, 0.0])[1]

    def self_s(name):
        return spans.get(name, [0, 0.0, 0.0])[2]

    c = {k: sum(r["counts"][k] for r in raws) for k in raws[0]["counts"]}
    c["poly.peak_terms"] = max(r["counts"]["poly.peak_terms"] for r in raws)
    m: Dict[str, float] = {}
    m["poly.mul.calls"] = calls("poly.mul")
    m["poly.mul.term_pairs"] = c["poly.mul.term_pairs"]
    m["poly.mul.self_s"] = self_s("poly.mul")
    m["poly.add.calls"] = calls("poly.add")
    m["poly.add.self_s"] = self_s("poly.add")
    m["poly.peak_terms"] = c["poly.peak_terms"]
    m["series.mul.calls"] = calls("series.mul")
    m["series.mul.self_s"] = self_s("series.mul")
    m["series.mul.useful_frac"] = _frac(c["series.mul.pairs_useful"],
                                        c["series.mul.pairs_visited"])
    m["series.invert.calls"] = calls("series.invert")
    m["series.invert.self_s"] = self_s("series.invert")
    m["series.substitute.self_s"] = self_s("series.substitute")
    m["series.truncate.dropped_frac"] = _frac(c["series.truncate.dropped"],
                                              c["series.truncate.seen"])
    m["series.compare.self_s"] = self_s("series.compare")
    for fn in BUILDER_FNS:
        m[f"builders.{fn}.calls"] = calls(f"builders.{fn}")
        m[f"builders.{fn}.self_s"] = self_s(f"builders.{fn}")
    m["oracle.enumerate_durfee.calls"] = calls("oracle.enumerate_durfee")
    m["oracle.enumerate_durfee.distinct_kn"] = len(
        {tuple(kn) for r in raws for kn in r["durfee_kn"]})
    m["oracle.enumerate_durfee.symbols"] = c["oracle.enumerate_durfee.symbols"]
    m["oracle.enumerate_durfee.self_s"] = self_s("oracle.enumerate_durfee")
    m["oracle.durfee_poly.self_s"] = self_s("oracle.durfee_poly")
    m["oracle.rank_table.self_s"] = self_s("oracle.rank_table")
    for name, _, _ in CACHES:
        hits, misses, size = (sum(r["caches"][name][i] for r in raws) for i in range(3))
        m[f"{name}.cache_hits"] = hits
        m[f"{name}.cache_misses"] = misses
        m[f"{name}.cache_size"] = size
    for check in CHECKS:
        m[f"harness.{check}.s"] = total_s(f"harness.{check}")
    m["cli.self_s"] = self_s("cli.main")
    return m


def _frac(num: int, den: int) -> float:
    return num / den if den else 0.0
