"""Listing references for the counted oracle tables.

Each function builds its table by listing every object and tallying its
statistics with the oracle's own definitions, the way the oracle did
before it counted.  They are exponential in n; the tests compare the
counted tables with them at small n.
"""

from __future__ import annotations

from collections import Counter

from qpairs import ParamPoly, oracle


def rank_table(n_max):
    out = {}
    for n in range(n_max + 1):
        tally = Counter()
        for lam, mu in oracle.overpartition_pairs(n):
            tally[oracle.pair_stats(lam, mu) + (oracle.pair_rank(lam, mu),)] += 1
        out[n] = dict(tally)
    return out


def spt_table(n_max):
    out = {}
    for n in range(n_max + 1):
        tally = Counter()
        for lam, mu in oracle.overpartition_pairs(n):
            w = oracle.spt_weight(lam, mu)
            if w:
                tally[oracle.pair_stats(lam, mu)] += w
        out[n] = dict(tally)
    return out


def durfee_tally(k, n):
    """From each listed pair of rows, without building its symbols."""
    tally = Counter()
    for _, top, bottom, decorations in oracle._durfee_rows(k, n):
        rho = oracle.rank_vector(k, top, bottom)
        for (r, s), group in decorations.items():
            tally[r, s, rho] += len(group)
    return tally


def rank_poly(k, tally):
    """A tally by (r, s, rank vector) as the poly `oracle.durfee_rank_poly` returns."""
    params = ("d", "e") + tuple(f"x{j + 1}" for j in range(k))
    return ParamPoly(params, {(r, s) + rho: c for (r, s, rho), c in tally.items()})


def durfee_pairs(k, n_max):
    """The row pairs of weight w and side S with S + w <= n_max, counted by
    (S, w, rank vector): at weight n = S + w a pair carries only the empty
    decoration."""
    tally = Counter()
    for n in range(n_max + 1):
        for S, top, bottom, _ in oracle._durfee_rows(k, n):
            w = sum(v for v, _ in top + bottom)
            if w == n - S:
                tally[S, w, oracle.rank_vector(k, top, bottom)] += 1
    return tally
