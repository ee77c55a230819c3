"""Combinatorial reference counts.

Everything here is taken from the definitions of the objects (overpartition
pairs, marked Durfee symbols) and of their statistics, with no q-series
machinery, so the results are an independent check on the analytic
builders.  Every table is counted by one step, `_put`, which puts the parts
of one value into counts by weight, each part a fixed shift of an int key.
`rank_table` and `spt_table` count pairs in `ParamPoly`'s own keys, so each
weight's row is the poly the checks compare.  `_durfee_sums` counts the
marked symbols of every weight up to n_max block by block, folding each
block's rank into the key its reader keeps: the rank vector, the full rank,
nothing, or the index of a rational point, at which the blocks multiply in
the rank's value; one walk serves all the points.  The listings,
`overpartition_pairs` and `enumerate_durfee`, stay for the CLI and as the
tests' reference; they are exponential in n, for small n only.
`_durfee_rows` lists the symbols' row pairs over the blocks that
`_durfee_sums` counts, in separate code, and the tests check that listing
against a brute force and the moment identity D_{v+1}(r, s, n) = eta_{2v}(r, s, n).

A memo kept across calls is a module-level `lru_cache` with a bound: the
tables keep their last few orders and `_bounded_parts` its recent blocks.
Only the recursion memos `partitions`, `_box_counts` and `_marked_rows`
are unbounded, since their size is set by the largest argument asked for.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, Dict, Iterable, Iterator, List, NamedTuple, Tuple

from .poly import _OFFSET, _SLOT, SLOT_BITS, AlgebraError, ParamPoly, Scalar, _as_fraction, _layout, _unpack, gbinom

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


# table layouts: weight n's row of rank_table is the poly sum N(r,s,m,n) d^r e^s x^m, and
# of spt_table the poly sum spt(r,s,n) d^r e^s
#
# A pair is counted one part at a time, part values from n_max down to 1.  The
# state is one int map per weight, ``layers[w][key]``, counting the pairs of
# weight w built so far by their statistics, one `ParamPoly` slot per statistic,
# so each map is its row's ``num``.  No slot leaves its range, so a part adds a
# fixed shift to the key, ``1 << slot`` per unit of a statistic.
# An overpartition's parts of value v are at most one overlined part and any
# number of plain ones; in generating-function terms a plain part divides by
# (1 - q^v k) and an overlined one multiplies by (1 + q^v k), for the key
# shift k that the part's statistics make.  The overlined parts go in first:
# each adds at most one part, so the passes that add any number see fewer keys.
#
# Each table keeps only its last few orders across calls: one suite run reads
# the rank table at three orders and once without (r, s), the spt table at two.
_TABLES_KEPT = 4


def _put(layers: List[Dict[int, int]], v: int, k: int, many: bool) -> None:
    """Parts of value v, each shifting a key by k, put into the pairs of ``layers``, in place:
    any number of them when ``many``, walking weights upward so that a part joins pairs that
    already took some; else at most one, walking downward so that it joins only pairs that
    took none."""
    top = len(layers) - 1
    for w in range(v, top + 1) if many else range(top, v - 1, -1):
        layer = layers[w]
        for key, x in layers[w - v].items():
            key += k
            layer[key] = layer.get(key, 0) + x


@lru_cache(maxsize=_TABLES_KEPT)
def rank_table(n_max: int, stats: bool = True) -> Dict[int, ParamPoly]:
    """For each weight n <= n_max, ``sum N(r,s,m,n) d^r e^s x^m`` over the pairs of weight n,
    with r = s = 0 when ``stats`` is false and (r, s) are not kept.

    A nonempty pair has a largest part L and, by `pair_rank`, rank
    m = L - chi - c, where c is the part count of the first component plus the
    overlined count of the second.  Its key holds its running m from the
    moment L is placed: at v = L the pairs whose largest part is v enter from
    the empty pair, with a parts of v in the first component, b in the second,
    and over_a, over_b saying whether each overlines its first v.  They enter
    at m = v - a - over_b when a > 0, and at m = v - 1 when a = 0: then L is
    only in the second component, and chi = 1 - over_b.  By `pair_stats`, they
    add over_a + b - over_b to r and b to s.

    Each smaller part then takes its step into the key.  A first-component part
    adds 1 to c, so m - 1, and when it is the overlined one also 1 to r.  A
    plain second-component part adds 1 to r and 1 to s; the overlined one adds
    1 to s and to c, so m - 1.  The parts of v join only the pairs whose
    largest part is above v, so these steps come before the pairs of v enter.
    """
    zero, (r, s, m) = _layout(3)  # a step of 1 in r, s or m adds 1 << its slot to the key
    R, S, M = (1 << r, 1 << s, 1 << m) if stats else (0, 0, 1 << m)
    layers: List[Dict[int, int]] = [{} for _ in range(n_max + 1)]
    for v in range(n_max, 0, -1):
        for k, many in ((R - M, False), (S - M, False), (-M, True), (R + S, True)):
            _put(layers, v, k, many)
        for a in range(n_max // v + 1):
            for b in range(not a, n_max // v - a + 1):
                layer = layers[v * (a + b)]
                for over_a in (0, 1) if a else (0,):
                    for over_b in (0, 1) if b else (0,):
                        key = zero + (over_a + b - over_b) * R + b * S + (v - (a + over_b if a else 1)) * M
                        layer[key] = layer.get(key, 0) + 1
    layers[0][zero] = 1  # the empty pair, at (0, 0, 0)
    return {n: ParamPoly._raw(("d", "e", "x"), layer, 1, n_max) for n, layer in enumerate(layers)}


@lru_cache(maxsize=_TABLES_KEPT)
def spt_table(n_max: int) -> Dict[int, ParamPoly]:
    """For each weight n <= n_max, ``sum spt_weight * d^r e^s`` over the pairs of weight n.

    A pair of nonzero weight has a smallest first-component part v, of
    multiplicity i, not overlined, and no second-component part at or below
    v; its weight is i.  So at each v, before the parts of v are placed, every
    pair so far (all its parts above v) is read out with i plain parts of v,
    which add v * i to the weight and nothing to r or s.  Then the parts of v
    take their steps, by `pair_stats`: a plain first-component part changes
    neither r nor s, the overlined one adds 1 to r; a plain second-component
    part adds 1 to r and 1 to s, the overlined one 1 to s.
    """
    zero, (r, s) = _layout(2)
    R, S = 1 << r, 1 << s
    layers: List[Dict[int, int]] = [{} for _ in range(n_max + 1)]
    layers[0][zero] = 1  # the empty pair
    out: List[Dict[int, int]] = [{} for _ in range(n_max + 1)]
    for v in range(n_max, 0, -1):
        for w in range(n_max - v + 1):
            for key, x in layers[w].items():
                for i in range(1, (n_max - w) // v + 1):
                    tally = out[w + v * i]
                    tally[key] = tally.get(key, 0) + i * x
        for k, many in ((R, False), (S, False), (0, True), (R + S, True)):
            _put(layers, v, k, many)
    return {n: ParamPoly._raw(("d", "e"), tally, 1, n_max) for n, tally in enumerate(out)}


def _weighed_poly(row: ParamPoly, weigh: Callable[[int], int]) -> ParamPoly:
    """``sum weigh(m) N(r,s,m,n) d^r e^s`` of one weight's row: m is read from the x slot, and the
    key shifted past it is the (d, e) key.  ``weigh`` is called once per rank; an entry it weighs
    0 is skipped."""
    weights: Dict[int, int] = {}
    terms: Dict[int, int] = {}
    for key, c in row.num.items():
        a = key & _SLOT
        w = weights.get(a)
        if w is None:
            w = weights[a] = weigh(a - _OFFSET)
        if w:
            key >>= SLOT_BITS
            terms[key] = terms.get(key, 0) + w * c
    return ParamPoly._make(("d", "e"), terms, 1, row.reach)


def rank_asymmetries(row: ParamPoly) -> List[Tuple[int, int, int]]:
    """The (r, s, m) that one weight's `rank_table` row counts other than (r, s, -m), in
    increasing order: the key of -m is the key of m less twice m in the x slot."""
    num = row.num
    return sorted(_unpack(key, 3) for key, c in num.items() if num.get(key - 2 * ((key & _SLOT) - _OFFSET)) != c)


def moment_poly(row: ParamPoly, k: int) -> ParamPoly:
    """k-th power-of-rank moment ``sum m^k N(r,s,m,n) d^r e^s`` of one weight's row."""
    return _weighed_poly(row, lambda m: m ** k)


def symmetrized_poly(row: ParamPoly, k: int) -> ParamPoly:
    """k-th symmetrized moment ``sum C(m + floor((k-1)/2), k) N(r,s,m,n) d^r e^s``."""
    shift = (k - 1) // 2
    return _weighed_poly(row, lambda m: gbinom(m + shift, k))


# ---------------------------------------------------------------------------
# marked Durfee symbols


class DurfeeSymbol(NamedTuple):
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


@lru_cache(maxsize=4096)
def _bounded_parts(
    total: int, count: int | None, lo: int, hi: int, sub: int
) -> Tuple[Tuple[Tuple[int, int], ...], ...]:
    """Blocks of parts ``(value, sub)``, values weakly decreasing in [lo, hi]
    and summing to total: exactly count parts, or any number when count
    is None.  Cached: the blocks recur across S, M_j and filtered listings."""
    if total == 0 and not count:
        return ((),)
    if count == 0 or (count is not None and total > hi * count):
        return ()
    rest = None if count is None else count - 1
    return tuple(((v, sub),) + tail
                 for v in range(min(hi, total - lo * (rest or 0)), lo - 1, -1)
                 for tail in _bounded_parts(total - v, rest, lo, v, sub))


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
    sides: Iterable[int] | None = None,
) -> Iterator[Tuple[int, Tuple, Tuple, Dict[Tuple[int, int], list]]]:
    """``(S, top, bottom, decorations)`` for the weight-n k-marked symbols:
    every pair of rows once, with the decorations that complete it to
    weight n grouped by their (r, s).  Only the sides in ``sides`` are
    walked, in its order (1..n by default; each side in 1..n), so a caller
    can take the listing one side at a time; the arguments are checked
    before the first side is walked.

    The rows are listed block by block, the blocks `_durfee_sums` counts:
    with M_0 = 1, block j < k is the top part (M_j, j) plus free top and
    bottom parts of subscript j in [M_{j-1}, M_j], and block k is free top
    and bottom parts of subscript k in [M_{k-1}, S].  A rank vector asks
    for rho_j more free top parts than bottom parts in block j.  Every part
    of blocks j+1..k weighs at least M_j, and block i holds at least
    [i < k] + |rho_i| parts (|rho_i| counts as 0 with no rank vector),
    which bounds the walk.
    """
    if k < 2:
        raise ValueError("marked symbols need k >= 2")
    if ranks is not None and len(ranks) != k:
        raise ValueError(f"rank vector must have {k} entries")
    if k > n:  # a symbol has S >= 1 and k - 1 forced top parts
        return
    after = [0] * (k + 1)  # after[j]: the least part count of blocks j+1..k
    for j in range(k - 1, -1, -1):
        after[j] = after[j + 1] + (j + 1 < k) + (0 if ranks is None else abs(ranks[j]))

    def sized(count, lo, hi, j, room):
        # (weight, parts): count parts of block j (any number when None) weighing at most room
        least, most = (0, room) if count is None else (count * lo, min(count * hi, room))
        for t in range(least, most + 1):
            for parts in _bounded_parts(t, count, lo, hi, j):
                yield t, parts

    def free(lo, hi, j, room):
        # (weight, tops, bottoms): the free parts of block j, weighing at most room
        rho = None if ranks is None else ranks[j - 1]
        # with a rank vector: b bottom and b + rho top parts, each at least lo
        counts = [(None, None)] if rho is None else [
            (b + rho, b) for b in range(max(0, -rho), (room // lo - rho) // 2 + 1)]
        for tau, b in counts:
            for t, tops in sized(tau, lo, hi, j, room):
                for u, bottoms in sized(b, lo, hi, j, room - t):
                    yield t + u, tops, bottoms

    for S in range(1, n + 1) if sides is None else sides:
        groups = _decorations(S, n - S, r, s)
        if not groups:
            continue
        limit = max(groups)

        def rec(j, lo, used, top, bottom):
            # blocks 1..j-1 weigh used and lo = M_{j-1}; hi is M_j, or S for j = k
            for hi in range(lo, S + 1) if j < k else (S,):
                base = used + (hi if j < k else 0)
                room = limit - base - hi * after[j]
                if room < 0:
                    break
                for w, tops, bottoms in free(lo, hi, j, room):
                    if j < k:
                        yield from rec(j + 1, hi, base + w, ((hi, j),) + tops + top, bottoms + bottom)
                    elif base + w in groups:
                        yield S, tops + top, bottoms + bottom, groups[base + w]

        yield from rec(1, 1, 0, (), ())


def enumerate_durfee(
    k: int,
    n: int,
    r: int | None = None,
    s: int | None = None,
    ranks: Tuple[int, ...] | None = None,
) -> List[DurfeeSymbol]:
    """All generalized k-marked symbols of weight n, for k >= 2.

    The row pairs come from `_durfee_rows`, which walks the subscript
    blocks that `_durfee_sums` counts but shares no code with it; the
    tests check the listing against a brute force over all marked rows and
    against the moment identity D_{v+1}(r, s, n) = eta_{2v}(r, s, n).
    Fixing r or s restricts the decoration sizes up front, and fixing the
    rank vector fixes each block's top and bottom part counts up to one
    free count; together these prune the search enough to reach weights
    far beyond the unconstrained cap.
    """
    return [DurfeeSymbol(k, S, top, bottom, mu, nu)
            for S, top, bottom, decorations in _durfee_rows(k, n, r, s, ranks)
            for group in decorations.values() for mu, nu in group]


@lru_cache(maxsize=None)
def _box_counts(parts: int, width: int) -> Tuple[int, ...]:
    """``counts[m]``: the partitions of m into at most ``parts`` parts, each
    at most ``width``.  Such a partition has no part equal to width, or it
    is one more part equal to width on a partition with one part fewer."""
    if parts == 0 or width == 0:
        return (1,)
    counts = list(_box_counts(parts, width - 1)) + [0] * parts
    for m, c in enumerate(_box_counts(parts - 1, width), width):
        counts[m] += c
    return tuple(counts)


def _decoration_counts(S: int, room: int) -> Dict[int, Dict[Tuple[int, int], int]]:
    """``counts[sigma][r, s]``: the decorations (mu, nu) of side S with
    |mu| + |nu| = sigma <= room.  S - r numbers from 0..S-1 weigh 0 + 1 +
    ... + (S - r - 1) plus a partition into at most S - r parts of at most r."""
    sides = [(a, r, x) for r in range(S + 1)
             for a, x in enumerate(_box_counts(S - r, r), (S - r) * (S - r - 1) // 2) if a <= room]
    counts: Dict[int, Dict[Tuple[int, int], int]] = {}
    for a, r, x in sides:
        for b, s, y in sides:
            if a + b <= room:
                group = counts.setdefault(a + b, {})
                group[r, s] = group.get((r, s), 0) + x * y
    return counts


def _durfee_sums(k: int, n_max: int, join: Callable[[tuple, int, int], List[Tuple[tuple, int]]]) -> List[Dict[tuple, int]]:
    """``sums[n][(r, s) + key]`` for n = 0..n_max: the k-marked symbols of
    weight n by their (r, s) and a key folded from their rank vector, each
    counted times the factors its blocks multiply in.  ``join(key, j, rho_j)
    -> [(key, factor), ...]`` says which keys block j's rank rho_j takes the
    running key to, ``()`` before block 1, and what each multiplies into the
    count; a key may fan out to several.  All the ranks of a block row that
    join one key are one step: their counts times factors, summed.

    With M_j the largest top part of subscript j and M_0 = 1, the conditions
    of `is_valid_durfee` make the blocks of subscripts j = 1..k independent
    once the M_j are fixed: block j < k is tau_j >= 1 top parts in
    [M_{j-1}, M_j], one equal to M_j, and b_j >= 0 bottom parts there; block
    k is any top and bottom parts in [M_{k-1}, S].  So for each side S the
    rows are counted one block at a time with M_j as the state, each block by
    its weight and rho_j = tau_j - b_j - [j < k], and rows of weight w take
    the decorations of size n - S - w.  A block's free parts are put in one
    value at a time by `_put`; its forced top part adds 1 to tau_j, which
    -[j < k] takes back, so it adds only its weight M_j.
    """
    if k < 2:
        raise ValueError("marked symbols need k >= 2")
    sums: List[Dict[tuple, int]] = [{} for _ in range(n_max + 1)]
    memo: Dict[int, List[List[Dict[int, int]]]] = {}  # lo: the tables of [lo, hi] for hi = lo, lo + 1, ...

    def block(lo: int, hi: int) -> List[Dict[int, int]]:
        # by weight, the counts by rho = tau - b of tau top and b bottom free parts in [lo, hi]: the
        # table of [lo, hi - 1] with the parts of value hi put in, cut at n_max - hi - 1, since a
        # symbol also has its side S >= hi and a forced top part (block j's, or block 1's for k)
        tables = memo.setdefault(lo, [])
        while len(tables) <= hi - lo:
            v = lo + len(tables)
            layers = ([dict(layer) for layer in tables[-1][:n_max - v]] if tables
                      else [{0: 1}] + [{} for _ in range(n_max - v - 1)])
            _put(layers, v, 1, True)
            _put(layers, v, -1, True)
            tables.append(layers)
        return tables[hi - lo]

    for S in range(1, n_max + 1):
        room = n_max - S
        states = {1: {0: {(): 1}}}  # M_{j-1}: weight: key: count
        for j in range(1, k + 1):
            grown: Dict[int, Dict[int, Dict[tuple, int]]] = {}
            for lo, rows in states.items():
                for hi in range(lo, min(S, room) + 1) if j < k else (S,):
                    out = grown.setdefault(hi, {})
                    for v, table in enumerate(block(lo, hi), hi if j < k else 0):
                        if v > room:
                            break
                        steps: Dict[tuple, Dict[tuple, int]] = {}  # key: joined key: count times factor
                        for w, keys in rows.items():
                            if w + v <= room:
                                got = out.setdefault(w + v, {})
                                for key, x in keys.items():
                                    if key not in steps:
                                        step = steps[key] = {}
                                        for rho, y in table.items():
                                            for new, f in join(key, j, rho):
                                                step[new] = step.get(new, 0) + y * f
                                    for new, y in steps[key].items():
                                        got[new] = got.get(new, 0) + x * y
            states = grown
        decorations = _decoration_counts(S, room)
        for w, keys in states.get(S, {}).items():
            for sigma, group in decorations.items():
                if w + sigma <= room:
                    tally = sums[S + w + sigma]
                    for rs, y in group.items():
                        for key, x in keys.items():
                            vec = rs + key
                            tally[vec] = tally.get(vec, 0) + x * y
    return sums


def durfee_values(k: int, n_max: int, points: Iterable[Tuple[Scalar, ...]]) -> List[List[ParamPoly]]:
    """For each point ``(x_1, ..., x_k)`` of nonzero rationals, the polys
    ``sum d^r e^s x_1^{rho_1} ... x_k^{rho_k}`` over the symbols of weight
    n, for n = 0..n_max: `durfee_rank_poly` at that point, by one walk for
    all the points that keeps the point's index i as its key and no rank.
    In integers: with x_j = p_j/q_j and R = n_max + 1, every rho_j lies in
    [-R, R), so block j multiplies in the integer x_j^{rho_j} (p_j q_j)^R =
    p_j^{rho_j + R} q_j^{R - rho_j}, read from a table of each point's
    factors, and point i's sums are divided once by prod_j (p_j q_j)^R.
    """
    R = n_max + 1
    factors = []  # factors[i][j - 1][rho + R]: point i's factor for rank rho in block j
    for xs in points:
        xs = [_as_fraction(x) for x in xs]
        if len(xs) != k:
            raise ValueError(f"a point needs {k} coordinates")
        if not all(xs):
            raise AlgebraError("Durfee points need nonzero coordinates")
        factors.append([[x.numerator ** (rho + R) * x.denominator ** (R - rho) for rho in range(-R, R)] for x in xs])

    def join(key, j, rho):
        if j == 1:
            return [((i,), f[0][rho + R]) for i, f in enumerate(factors)]
        return [(key, factors[key[0]][j - 1][rho + R])]

    split = [[{} for _ in range(R)] for _ in factors]
    for n, tally in enumerate(_durfee_sums(k, n_max, join)):
        for (r, s, i), c in tally.items():
            split[i][n][r, s] = c
    # a point's factors at rho = 0 multiply to its prod_j (p_j q_j)^R
    return [[ParamPoly._from_ints(("d", "e"), tally, math.prod(f[R] for f in fs)) for tally in rows]
            for fs, rows in zip(factors, split)]


def durfee_rank_poly(k: int, n: int) -> ParamPoly:
    """``sum d^r e^s x_1^{rho_1} ... x_k^{rho_k}`` over symbols of weight n."""
    params = ("d", "e") + tuple(f"x{j + 1}" for j in range(k))
    return ParamPoly._from_ints(params, _durfee_sums(k, n, lambda key, j, rho: [(key + (rho,), 1)])[n])


def durfee_fullrank_poly(k: int, n: int) -> ParamPoly:
    """``sum d^r e^s x^{FR}`` over symbols of weight n, FR the full rank as a one-entry key."""
    return ParamPoly._from_ints(("d", "e", "x"), _durfee_sums(k, n, lambda key, j, rho: [((sum(key) + j * rho,), 1)])[n])


def durfee_stats_poly(k: int, n: int) -> ParamPoly:
    """``sum d^r e^s`` over symbols of weight n."""
    return ParamPoly._from_ints(("d", "e"), _durfee_sums(k, n, lambda key, j, rho: [(key, 1)])[n])
