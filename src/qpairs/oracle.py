"""Brute-force combinatorial reference counts.

Everything here enumerates objects directly (overpartition pairs, marked
Durfee symbols) and tallies statistics, with no q-series machinery, so
the results are an independent check on the analytic builders.  The
enumerators are exponential in n and are intended for small n only.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from typing import Callable, Dict, Iterable, Iterator, List, Tuple

from .poly import ParamPoly, Scalar

# an overpartition: parts in weakly decreasing order plus the set of
# part values whose first occurrence is overlined
Overpartition = Tuple[Tuple[int, ...], frozenset]


@lru_cache(maxsize=None)
def partitions(n: int, max_part: int | None = None) -> Tuple[Tuple[int, ...], ...]:
    """All partitions of n with parts at most max_part, weakly decreasing."""
    if max_part is None or max_part > n:
        max_part = n
    if n == 0:
        return ((),)
    out: List[Tuple[int, ...]] = []
    for first in range(max_part, 0, -1):
        for rest in partitions(n - first, first):
            out.append((first,) + rest)
    return tuple(out)


def overpartitions(n: int) -> Iterator[Overpartition]:
    for parts in partitions(n):
        values = sorted(set(parts))
        for mask in range(1 << len(values)):
            over = frozenset(v for i, v in enumerate(values) if mask >> i & 1)
            yield parts, over


def overpartition_pairs(n: int) -> Iterator[Tuple[Overpartition, Overpartition]]:
    for j in range(n + 1):
        for lam in overpartitions(j):
            for mu in overpartitions(n - j):
                yield lam, mu


def pair_rank(lam: Overpartition, mu: Overpartition) -> int:
    """Largest part minus the part count of the first component, minus the
    overlined count of the second, minus one when the overall largest part
    is a non-overlined part of the second component only."""
    lparts, lover = lam
    mparts, mover = mu
    largest = max(lparts[0] if lparts else 0, mparts[0] if mparts else 0)
    chi = 0
    if largest > 0 and largest not in lparts and largest not in mover:
        chi = 1
    return largest - len(lparts) - len(mover) - chi


def pair_stats(lam: Overpartition, mu: Overpartition) -> Tuple[int, int]:
    """(r, s): overlined parts of the first component plus non-overlined
    parts of the second; and the part count of the second."""
    lparts, lover = lam
    mparts, mover = mu
    r = len(lover) + (len(mparts) - len(mover))
    return r, len(mparts)


def spt_weight(lam: Overpartition, mu: Overpartition) -> int:
    """Multiplicity of the smallest part when it occurs only in the first
    component and only non-overlined; otherwise 0."""
    lparts, lover = lam
    mparts, _ = mu
    if not lparts:
        return 0
    v = lparts[-1]
    if mparts and mparts[-1] <= v:
        return 0
    if v in lover:
        return 0
    return sum(1 for p in lparts if p == v)


# table layouts: rank_table(n)[r, s, m] and spt_table(n)[r, s] are counts


@lru_cache(maxsize=None)
def rank_table(n_max: int) -> Dict[int, Dict[Tuple[int, int, int], int]]:
    out: Dict[int, Dict[Tuple[int, int, int], int]] = {}
    for n in range(n_max + 1):
        tally: Dict[Tuple[int, int, int], int] = {}
        for lam, mu in overpartition_pairs(n):
            r, s = pair_stats(lam, mu)
            key = (r, s, pair_rank(lam, mu))
            tally[key] = tally.get(key, 0) + 1
        out[n] = tally
    return out


@lru_cache(maxsize=None)
def spt_table(n_max: int) -> Dict[int, Dict[Tuple[int, int], int]]:
    out: Dict[int, Dict[Tuple[int, int], int]] = {}
    for n in range(n_max + 1):
        tally: Dict[Tuple[int, int], int] = {}
        for lam, mu in overpartition_pairs(n):
            w = spt_weight(lam, mu)
            if w:
                key = pair_stats(lam, mu)
                tally[key] = tally.get(key, 0) + w
        out[n] = tally
    return out


def gbinom(top: int, k: int) -> Fraction:
    """Binomial coefficient with possibly negative integer top."""
    num = 1
    for i in range(k):
        num *= top - i
    return Fraction(num, math.factorial(k))


def _summed_poly(params: Tuple[str, ...], items: Iterable[Tuple[Tuple[int, ...], Scalar]]) -> ParamPoly:
    """One ParamPoly from (exponent vector, coefficient) pairs, adding the
    coefficients of repeated vectors."""
    terms: Dict[Tuple[int, ...], Scalar] = {}
    for vec, c in items:
        terms[vec] = terms.get(vec, 0) + c
    return ParamPoly._from_sums(params, terms)


def rank_poly(tally: Dict[Tuple[int, int, int], int]) -> ParamPoly:
    """``sum N(r,s,m,n) d^r e^s x^m`` for one weight n."""
    return ParamPoly(("d", "e", "x"), tally)


def moment_poly(tally: Dict[Tuple[int, int, int], int], k: int) -> ParamPoly:
    """k-th power-of-rank moment ``sum m^k N(r,s,m,n) d^r e^s`` for one n."""
    return _summed_poly(("d", "e"), (((r, s), c * m ** k) for (r, s, m), c in tally.items()))


def symmetrized_poly(tally: Dict[Tuple[int, int, int], int], k: int) -> ParamPoly:
    """k-th symmetrized moment ``sum C(m + floor((k-1)/2), k) N(r,s,m,n) d^r e^s``."""
    shift = (k - 1) // 2
    return _summed_poly(("d", "e"), (
        ((r, s), gbinom(m + shift, k) * c) for (r, s, m), c in tally.items()))


# ---------------------------------------------------------------------------
# marked Durfee symbols


@dataclass(frozen=True, slots=True)
class DurfeeSymbol:
    """A two-rowed array of subscripted parts with decoration (S, mu, nu).

    Rows are tuples of (value, subscript) pairs; mu and nu are strictly
    decreasing tuples drawn from 0..S-1.
    """

    k: int
    S: int
    top: Tuple[Tuple[int, int], ...]
    bottom: Tuple[Tuple[int, int], ...]
    mu: Tuple[int, ...]
    nu: Tuple[int, ...]

    def weight(self) -> int:
        return (
            self.S
            + sum(v for v, _ in self.top)
            + sum(v for v, _ in self.bottom)
            + sum(self.mu)
            + sum(self.nu)
        )

    def stats(self) -> Tuple[int, int]:
        """(r, s): counts of numbers in 0..S-1 missing from mu and nu."""
        return self.S - len(self.mu), self.S - len(self.nu)

    def ranks(self) -> Tuple[int, ...]:
        return rank_vector(self.k, self.top, self.bottom)

    def full_rank(self) -> int:
        return full_rank(self.ranks())


def rank_vector(k: int, top, bottom) -> Tuple[int, ...]:
    """(rho_1, ..., rho_k): top-row parts of subscript i, minus bottom-row
    parts of subscript i, minus one for i < k."""
    counts = [0] * k
    for _, i in top:
        counts[i - 1] += 1
    for _, i in bottom:
        counts[i - 1] -= 1
    return tuple(c - (i < k) for i, c in enumerate(counts, 1))


def full_rank(ranks: Tuple[int, ...]) -> int:
    """``sum_i i * rho_i`` over a rank vector (rho_1, ..., rho_k)."""
    return sum(i * rho for i, rho in enumerate(ranks, 1))


def is_valid_durfee(sym: DurfeeSymbol) -> bool:
    """Check the three defining conditions of a k-marked symbol."""
    k, S = sym.k, sym.S
    for row in (sym.top, sym.bottom):
        for v, i in row:
            if not (1 <= v <= S and 1 <= i <= k):
                return False
        for (v1, i1), (v2, i2) in zip(row, row[1:]):
            if v2 > v1 or i2 > i1:
                return False
    for seq in (sym.mu, sym.nu):
        if any(not 0 <= a <= S - 1 for a in seq):
            return False
        if any(a2 >= a1 for a1, a2 in zip(seq, seq[1:])):
            return False
    top_subs = {i for _, i in sym.top}
    if not all(i in top_subs for i in range(1, k)):
        return False
    # M[i] = largest top-row part with subscript i+1; intervals are closed
    M = [0] * k
    for v, i in sym.top:
        M[i - 1] = max(M[i - 1], v)
    for v, i in sym.bottom:
        lower = 1 if i == 1 else M[i - 2]
        upper = S if i == k else M[i - 1]
        if not lower <= v <= upper:
            return False
    return True


@lru_cache(maxsize=None)
def _marked_rows(max_v: int, max_sub: int, budget: int) -> Tuple[Tuple[Tuple[int, int], ...], ...]:
    """Sequences of (value, subscript) pairs, both coordinates weakly
    decreasing, values <= max_v summing to at most budget, subscripts <= max_sub."""
    out: List[Tuple[Tuple[int, int], ...]] = [()]
    for v in range(min(max_v, budget), 0, -1):
        for sub in range(max_sub, 0, -1):
            for rest in _marked_rows(v, sub, budget - v):
                out.append(((v, sub),) + rest)
    return tuple(out)


def _distinct_subsets(
    S: int, budget: int, size: int | None = None
) -> List[Tuple[int, ...]]:
    """Strictly decreasing tuples from 0..S-1 with sum at most budget,
    optionally of one exact size."""
    out: List[Tuple[int, ...]] = []
    def rec(next_max: int, left: int, acc: Tuple[int, ...]):
        if size is None or len(acc) == size:
            out.append(acc)
        if size is not None and len(acc) >= size:
            return
        # with a size, the values still due after a are distinct and below
        # a, so a >= more and they weigh at least 0 + 1 + ... + (more - 1)
        more = 0 if size is None else size - len(acc) - 1
        for a in range(min(next_max, left - more * (more - 1) // 2), more - 1, -1):
            rec(a - 1, left - a, acc + (a,))
    rec(S - 1, budget, ())
    return out


def _bounded_parts(
    total: int, count: int | None, lo: int, hi: int, sub: int
) -> Tuple[Tuple[Tuple[int, int], ...], ...]:
    """Blocks of parts ``(value, sub)``, values weakly decreasing in [lo, hi]
    and summing to total: exactly count parts, or any number when count
    is None."""
    if total == 0 and not count:
        return ((),)
    if count == 0 or (count is not None and total > hi * count):
        return ()
    rest = None if count is None else count - 1
    return tuple(((v, sub),) + tail
                 for v in range(min(hi, total - lo * (rest or 0)), lo - 1, -1)
                 for tail in _bounded_parts(total - v, rest, lo, v, sub))


def _bottoms(
    bounds: List[Tuple[int, int]], counts: List[int] | None, least: int, most: int,
    blocks: Callable[..., Tuple[Tuple[Tuple[int, int], ...], ...]],
) -> List[Tuple[int, Tuple[Tuple[int, int], ...]]]:
    """``(total, row)`` for the bottom rows with total in [least, most] whose
    parts of subscript i lie in bounds[i-1]: counts[i-1] of them, or any
    number when counts is None.  Subscript blocks run k down to 1; the
    interval bounds make the cross-block value ordering automatic.
    ``blocks`` is ``_bounded_parts`` or a memoised copy of it."""
    k = len(bounds)
    if counts is None:
        counts = [None] * k
    spans = [(0, most) if c is None else (c * lo, c * hi) for c, (lo, hi) in zip(counts, bounds)]
    # least and greatest sum of the blocks below subscript i
    below_min = list(accumulate((a for a, _ in spans), initial=0))
    below_max = list(accumulate((b for _, b in spans), initial=0))
    rows = [(0, ())]  # rows of blocks k..i+1 that can still reach [least, most]
    for i in range(k, 0, -1):
        lo, hi = bounds[i - 1]
        a, b = spans[i - 1]
        rows = [(used + t, acc + block)
                for used, acc in rows
                for t in range(max(a, least - used - below_max[i - 1]),
                               min(b, most - used - below_min[i - 1]) + 1)
                for block in blocks(t, counts[i - 1], lo, hi, i)]
    return rows  # the block-1 range puts every total in [least, most]


def _top_rows(
    k: int, S: int, limit: int, ranks: Tuple[int, ...] | None
) -> Iterator[Tuple[Tuple[int, int], ...]]:
    """Top rows with parts at most S and every subscript below k present
    whose weight, plus the least bottom weight they force, is at most limit.

    Rows are built block by block from subscript k down to 1, each block
    part by part in decreasing order.  With a rank vector, subscript i
    asks for c_i = tau_i - rho_i - [i < k] >= 0 bottom parts, each at
    least the largest top part of subscript i - 1 (at least 1 for i = 1).
    The bound counts that floor as 1 until the block below has its first
    part, and the top parts still due (one per subscript below k, and
    enough to make every c_i >= 0) as 1 each, so it never discards a row
    that can reach limit.
    """
    def count(i: int, t: int) -> int:  # c_i for t top parts of subscript i
        return 0 if ranks is None else t - ranks[i - 1] - (i < k)

    # need[i]: least top parts of subscript i; due[i]: those of subscripts 1..i
    need = [0] + [max(i < k, -count(i, 0)) for i in range(1, k + 1)]
    due = list(accumulate(need))

    def bound(i, t, used, low):
        return used + low + max(0, count(i, t)) + max(0, need[i] - t) + due[i - 1]

    def rec(i, cap, t, used, low, c_above, acc):
        # block i holds t parts, the last at most cap; low is the least
        # weight of bottom blocks i+1..k; c_above is c_{i+1}
        if t >= need[i]:  # close block i
            c = count(i, t)
            if i == 1:
                yield acc
            elif bound(i - 1, 0, used, low + c) <= limit:
                yield from rec(i - 1, cap, 0, used, low + c, c, acc)
        for v in range(1, cap + 1):
            # the first part of block i lifts block i+1's floor from 1 to v
            low_v = low + c_above * (v - 1) if t == 0 else low
            if bound(i, t + 1, used + v, low_v) > limit:
                break  # the bound grows with v
            yield from rec(i, v, t + 1, used + v, low_v, c_above, acc + ((v, i),))

    if bound(k, 0, 0, 0) <= limit:
        yield from rec(k, S, 0, 0, 0, 0, ())


@lru_cache(maxsize=1024)
def _decorations(
    S: int, room: int, r: int | None, s: int | None
) -> Dict[int, Dict[Tuple[int, int], List[Tuple[Tuple[int, ...], Tuple[int, ...]]]]]:
    """Decorations (mu, nu) of side S with |mu| + |nu| at most room, grouped
    by the weight they leave for the rows and then by their (r, s).

    Cached, so filtered listings of one weight share it: callers must not
    change the dicts or lists it returns."""
    mu_size = None if r is None else S - r
    nu_size = None if s is None else S - s
    groups: Dict[int, Dict[Tuple[int, int], list]] = {}
    if (mu_size is not None and not 0 <= mu_size <= S) or (
            nu_size is not None and not 0 <= nu_size <= S):
        return groups
    for mu in _distinct_subsets(S, room, mu_size):
        for nu in _distinct_subsets(S, room - sum(mu), nu_size):
            budget = room - sum(mu) - sum(nu)
            stats = (S - len(mu), S - len(nu))
            groups.setdefault(budget, {}).setdefault(stats, []).append((mu, nu))
    return groups


def _durfee_rows(
    k: int,
    n: int,
    r: int | None = None,
    s: int | None = None,
    ranks: Tuple[int, ...] | None = None,
) -> Iterator[Tuple[int, Tuple, Tuple, Dict[Tuple[int, int], list]]]:
    """``(S, top, bottom, decorations)`` for the weight-n k-marked symbols:
    every pair of rows once, with the decorations that complete it to
    weight n grouped by their (r, s)."""
    if k < 2:
        raise ValueError("marked symbols need k >= 2")
    if ranks is not None and len(ranks) != k:
        raise ValueError(f"rank vector must have {k} entries")
    # top rows share their bottom blocks; the memo lives as long as this call
    blocks = lru_cache(maxsize=None)(_bounded_parts)
    for S in range(1, n + 1):
        groups = _decorations(S, n - S, r, s)
        if not groups:
            continue
        for top in _top_rows(k, S, max(groups), ranks):
            taus = [0] * k
            M = [0] * k  # M[i] = largest top-row part with subscript i+1
            for v, i in top:
                taus[i - 1] += 1
                M[i - 1] = max(M[i - 1], v)
            # closed intervals; every top has subscripts 1..k-1, so lo <= hi
            bounds = [(1 if i == 0 else M[i - 1], S if i == k - 1 else M[i]) for i in range(k)]
            if ranks is None:
                counts, low, high = None, 0, n
            else:
                # nonnegative: _top_rows closes a block only then
                counts = [taus[i] - ranks[i] - (1 if i < k - 1 else 0) for i in range(k)]
                low = sum(c * lo for c, (lo, _) in zip(counts, bounds))
                high = sum(c * hi for c, (_, hi) in zip(counts, bounds))
            used = sum(v for v, _ in top)
            # the decorations of each bottom-row total this top row can carry
            wanted = {budget - used: decorations for budget, decorations in groups.items()
                      if low <= budget - used <= high}
            if not wanted:
                continue
            for total, bottom in _bottoms(bounds, counts, min(wanted), max(wanted), blocks):
                decorations = wanted.get(total)
                if decorations:
                    yield S, top, bottom, decorations


def enumerate_durfee(
    k: int,
    n: int,
    r: int | None = None,
    s: int | None = None,
    ranks: Tuple[int, ...] | None = None,
) -> List[DurfeeSymbol]:
    """All generalized k-marked symbols of weight n, for k >= 2.

    Fixing r or s restricts the decoration sizes up front, and fixing the
    rank vector determines the bottom row's subscript counts from the
    top row's; together these prune the search enough to reach weights
    far beyond the unconstrained cap.
    """
    return [DurfeeSymbol(k, S, top, bottom, mu, nu)
            for S, top, bottom, decorations in _durfee_rows(k, n, r, s, ranks)
            for group in decorations.values() for mu, nu in group]


@lru_cache(maxsize=None)
def durfee_tally(k: int, n: int) -> Dict[Tuple[int, int, Tuple[int, ...]], int]:
    """Counts of the weight-n k-marked symbols by (r, s, rank vector),
    taken from each pair of rows without building its symbols."""
    tally: Counter = Counter()
    for _, top, bottom, decorations in _durfee_rows(k, n):
        rho = rank_vector(k, top, bottom)
        for (r, s), group in decorations.items():
            tally[r, s, rho] += len(group)
    return tally


def durfee_rank_poly(k: int, n: int) -> ParamPoly:
    """``sum d^r e^s x_1^{rho_1} ... x_k^{rho_k}`` over symbols of weight n."""
    params = ("d", "e") + tuple(f"x{j + 1}" for j in range(k))
    return ParamPoly(params, {(r, s) + rho: c for (r, s, rho), c in durfee_tally(k, n).items()})


def durfee_fullrank_poly(k: int, n: int) -> ParamPoly:
    """``sum d^r e^s x^{FR}`` over symbols of weight n, FR the full rank."""
    return _summed_poly(("d", "e", "x"), (
        ((r, s, full_rank(rho)), c) for (r, s, rho), c in durfee_tally(k, n).items()))


def durfee_stats_poly(k: int, n: int) -> ParamPoly:
    """``sum d^r e^s`` over symbols of weight n."""
    return _summed_poly(("d", "e"), (((r, s), c) for (r, s, _), c in durfee_tally(k, n).items()))
