"""Exact minimum-length scheduling for small instances, plus PARTITION.

Ground truth for approximation-ratio experiments and for the two-slot
decision that the adversarial reduction targets.  The subset feasibility
table is materialized for all 2^n link subsets, from two half-tables of
affectance loads, as prefix counts.  A mask passes iff every member's load
fl(lo + hi), low half plus high half, is at most the cut: the test of its
largest load, since a maximum is one of its operands.  Rounded addition is
monotone, so for a fixed lo the passing hi of a member are a prefix of its
sorted loads from that half, and the table compares each member's rank
among them with the length of its prefix.  Feasibility is downward closed,
so a cover of the links by k feasible sets trims to a partition into k
slots: the optimal length is the least k for which the full set is a union
of k feasible sets.  Those unions are counted exactly with zeta and
Moebius transforms over the subset lattice, O(n 2^n) per slot (Bjoerklund,
Husfeldt and Koivisto, "Set Partitioning via Inclusion-Exclusion", SIAM J.
Comput. 2009).  The schedule is then read back slot by slot, each slot
holding the lowest link left.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernel
from .model import Instance, InternalError, Schedule

DEFAULT_CAP = 16
# The cover counts in optimal_schedule are exact int64: a zeta transform of
# a 0/1 table is at most 2^n, the product of two at most 2^(2n), and every
# partial sum of the Moebius transform at most 2^(3n) in magnitude, which is
# 2^60 at n = 20.  A higher hard cap needs wider or modular counts.
HARD_CAP = 20


def _term_matrix(inst: Instance) -> np.ndarray:
    """T[w, v] = affectance term of link w on link v, diagonals 0, +inf where saturated."""
    S, X = kernel.coords(inst, inst.senders), kernel.coords(inst, inst.receivers)
    t = kernel.terms(inst, S, inst.lengths, X).T.copy()  # C-contiguous, as the products expect
    np.fill_diagonal(t, 0.0)
    return t


def _half_loads(bits: np.ndarray, t: np.ndarray) -> np.ndarray:
    """L[m, v] = load on link v from the links in bits[m]; 0 * inf is NaN, so +inf apart."""
    load = bits @ np.where(np.isinf(t), 0.0, t)
    load[bits @ np.isinf(t) > 0] = np.inf
    return load


@dataclass(frozen=True)
class SubsetTable:
    """Feasibility bit for every one of the 2^n link subsets."""

    feasible: np.ndarray  # bool, length 2^n, indexed by bitmask


def check_cap(cap: int) -> int:
    """``cap`` if it is an oracle cap, from 0 to ``HARD_CAP``; ValueError otherwise."""
    if cap < 0:
        raise ValueError(f"cap {cap} is negative")
    if cap > HARD_CAP:
        raise ValueError(f"cap {cap} exceeds the hard cap {HARD_CAP}")
    return cap


def _check_cap(n: int, cap: int) -> None:
    if n > check_cap(cap):
        raise ValueError(
            f"instance has {n} links, above the exact-oracle cap {cap}; "
            "the subset enumeration would need 2^n feasibility checks"
        )


def _bit_matrix(k: int) -> np.ndarray:
    """Row m holds the k bits of m as 0.0/1.0, lowest bit first."""
    return ((np.arange(1 << k)[:, None] >> np.arange(k)) & 1).astype(np.float64)


def _ranked(load: np.ndarray, bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every link's loads from the high half, sorted, and each mask's rank among them.

    Returns s[v, k], the k-th smallest load on link v from a high mask, and
    rank[v, h], the int16 position of load[h, v] in s[v], or -1 where v is
    a high link, one of the last ``bits.shape[1]``, not in mask h.  Equal
    loads take their positions in any order: they pass or fail together.
    """
    order = np.argsort(load.T, axis=1)
    s = np.take_along_axis(load.T, order, axis=1)
    rank = np.empty(order.shape, dtype=np.int16)
    np.put_along_axis(rank, order, np.arange(len(load), dtype=np.int16)[None], axis=1)
    rank[len(rank) - bits.shape[1] :][bits.T == 0] = -1
    return s, rank


def _limits(load: np.ndarray, bits: np.ndarray, s: np.ndarray, cut: float) -> np.ndarray:
    """lim[v, i]: the last k with fl(load[i, v] + s[v, k]) <= cut, -1 if none.

    The passing k are a prefix of s[v], found by one binary search for all
    (v, i) at once, bit by bit from the top; s is padded with NaN, which
    fails.  Where v is a low link, one of the first ``bits.shape[1]``, not
    in mask i, lim is the last position: v's test does not apply.
    """
    n, m = s.shape
    steps = m.bit_length()
    padded = np.full((n, 1 << steps), np.nan)
    padded[:, :m] = s
    row = (np.arange(n) << steps)[:, None]
    other = load.T.copy()
    last = np.repeat(row - 1, other.shape[1], axis=1)  # flat index in padded of the last k passed
    for k in reversed(range(steps)):
        probe = last + (1 << k)
        np.copyto(last, probe, where=other + padded.take(probe) <= cut)
    lim = (last - row).astype(np.int16)
    lim[: bits.shape[1]][bits.T == 0] = m - 1
    return lim


def subset_table(inst: Instance, cap: int = DEFAULT_CAP) -> SubsetTable:
    """Affectance-form feasibility for all subsets; empty subset is feasible.

    The links split into the w lowest bits and the rest, with 2^w * n about
    ``kernel.BLOCK``, and mask (h, i) is h * 2^w + i.  Each half gets its load
    table once, a bit matrix times the term matrix: lo_v(i) and hi_v(h), the
    loads on link v from low mask i and from high mask h.  The mask passes
    iff every member v has fl(lo_v(i) + hi_v(h)) <= ``kernel.rel_leq_cut`` of
    the threshold, the comparison greedy and ``slot_feasible`` make.

    That verdict is a prefix count.  The largest member load that
    ``np.fmax`` would find is one of the loads, so the mask passes iff each
    member's does; and rounded addition is monotone, so for a fixed low load
    the high loads that pass are a prefix of them in sorted order.  The high
    half's loads are therefore sorted once per link, each mask taking its
    rank, and each low load finds the length of its passing prefix by binary
    search with the float test itself.  The high half is ranked at every
    size: up to n = 18 at the default block it is the smaller half, so its
    sort is cheap, and each step of the search over the low half is one
    vectorized pass.  A member passes iff its rank lies inside its prefix,
    and a non-member always does: the table is n compares of int16 ranks
    per mask, in blocks of rows of about a kernel block of float64s.
    Rounded addition is monotone, so the table stays downward closed.
    """
    n = inst.n
    _check_cap(n, cap)
    if n == 0:
        return SubsetTable(feasible=np.ones(1, dtype=bool))
    cut = kernel.rel_leq_cut(inst.params.affectance_threshold())
    t = _term_matrix(inst)
    # n - w <= 15: the high half holds at most 2^15 masks, so ranks and limits fit int16
    w = min(n, max(1, n - 15, (kernel.BLOCK // n).bit_length() - 1))
    lo_bits, hi_bits = _bit_matrix(w), _bit_matrix(n - w)
    s, rank = _ranked(_half_loads(hi_bits, t[w:]), hi_bits)
    lim = _limits(_half_loads(lo_bits, t[:w]), lo_bits, s, cut)
    feasible = np.empty((1 << (n - w), 1 << w), dtype=bool)
    for hs in kernel.blocks(len(feasible), max(1, feasible.shape[1] >> 3)):
        table = feasible[hs]
        np.less_equal(rank[0, hs, None], lim[0], out=table)
        verdict = np.empty_like(table)
        for v in range(1, n):
            np.less_equal(rank[v, hs, None], lim[v], out=verdict)
            table &= verdict
    return SubsetTable(feasible=feasible.reshape(-1))


def _zeta(a: np.ndarray, n: int, op=np.add) -> np.ndarray:
    """In place: a[X] becomes the sum of a[S] over the subsets S of X.

    ``op=np.subtract`` gives the inverse, the Moebius transform.  Bits 0 to
    2 run as 2^k strided 1-D passes, since their pair views would have inner
    runs of only 1 to 4 elements; the int64 counts are exact either way.
    """
    for k in range(n):
        if k < 3:
            step = 2 << k
            for j in range(1 << k):
                hi = a[j + (1 << k) :: step]
                op(hi, a[j::step], out=hi)
        else:
            pairs = a.reshape(-1, 2, 1 << k)
            op(pairs[:, 1], pairs[:, 0], out=pairs[:, 1])
    return a


def optimal_schedule(inst: Instance, cap: int = DEFAULT_CAP) -> Schedule:
    """Partition the links into the minimum number of feasible slots.

    Requires every singleton to be feasible (true whenever validation
    passes).  Layer k marks the link sets that are unions of k feasible
    sets.  Layer 1 is the table; for k >= 2, the Moebius transform of
    zeta(layer k-1) times zeta(table) counts,
    for each set Y, the pairs (A, S) with A in layer k-1, S feasible and
    A | S = Y.  With dp[mask] the first layer that holds mask, each slot is
    the numerically largest feasible submask that holds the lowest link left
    and leaves a rest one layer lower.  O(n 2^n) per layer after the table.
    """
    n = inst.n
    feas = subset_table(inst, cap).feasible
    for v in range(n):
        if not feas[1 << v]:
            raise ValueError(
                f"singleton link {v} is infeasible; no schedule exists "
                "(instance fails validation)"
            )
    full = (1 << n) - 1
    dp = np.full(full + 1, n + 1, dtype=np.int8)
    dp[feas] = 1  # layer 1 is the table itself
    dp[0] = 0
    if dp[full] > 1:
        f = _zeta(feas.astype(np.int64), n)
        layer = f.copy()  # zeta(layer 1)
        for k in range(2, n + 1):  # singletons are feasible: layer n holds the full set
            layer *= f
            np.minimum(_zeta(layer, n, np.subtract), 1, out=layer)
            dp[(layer > 0) & (dp > n)] = k
            if dp[full] == k:
                break
            _zeta(layer, n)
    slots = []
    mask = full
    while mask:
        low = mask & -mask
        subs = np.array([low], dtype=np.int64)
        for v in range(n):
            bit = 1 << v
            if mask & bit and bit != low:
                subs = np.concatenate((subs, subs | bit))
        subs = subs[feas[subs] & (dp[mask ^ subs] == dp[mask] - 1)]
        if len(subs) == 0:
            raise InternalError(
                f"no feasible slot splits link set {mask:#x}, a union of {dp[mask]} feasible sets; "
                "the subset table is not downward closed"
            )
        sub = int(subs.max())
        slots.append(frozenset(v for v in range(n) if sub >> v & 1))
        mask ^= sub
    return Schedule(slots=tuple(slots))


def two_slot_decision(inst: Instance, cap: int = DEFAULT_CAP) -> bool:
    """True iff the links can be partitioned into at most two feasible slots.

    Scans the subsets containing link 0 and checks both halves against the
    table; no minimum-partition DP needed.
    """
    feas = subset_table(inst, cap).feasible
    if inst.n == 0:
        return True
    # the odd masks 2j+1 hold link 0; their complements 2^n-2-2j run down the even ones
    rest_ok = feas[-2::-2].copy()
    rest_ok[-1] = True  # the full set leaves an empty second slot
    return bool((feas[1::2] & rest_ok).any())


def partition_solve(values: list[int]) -> bool:
    """Whether a multiset of positive integers splits into two equal-sum halves.

    The reachable sums up to half the total are kept as one set, at most
    min(2^i, total/2 + 1) of them after i values, so huge values cost no
    more than small ones.
    """
    if not values:
        raise ValueError("partition_solve requires at least one value")
    for x in values:
        if not isinstance(x, int) or isinstance(x, bool) or x <= 0:
            raise ValueError(f"values must be positive integers, got {x!r}")
    total = sum(values)
    if total % 2:
        return False
    half = total // 2
    reach = {0}
    for x in values:
        reach |= {s + x for s in reach if s + x <= half}
    return half in reach
