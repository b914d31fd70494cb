"""Exact minimum-length scheduling for small instances, plus PARTITION.

Ground truth for approximation-ratio experiments and for the two-slot
decision that the adversarial reduction targets.  The subset feasibility
table is materialized for all 2^n link subsets, from two half-tables of
affectance loads.  Feasibility is downward closed, so a cover of the links
by k feasible sets trims to a partition into k slots: the optimal length is
the least k for which the full set is a union of k feasible sets.  Those
unions are counted exactly with zeta and Moebius transforms over the subset
lattice, O(n 2^n) per slot (Bjoerklund, Husfeldt and Koivisto, "Set
Partitioning via Inclusion-Exclusion", SIAM J. Comput. 2009).  The schedule
is then read back slot by slot, each slot holding the lowest link left.
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


def _check_cap(n: int, cap: int) -> None:
    if cap > HARD_CAP:
        raise ValueError(f"cap {cap} exceeds the hard cap {HARD_CAP}")
    if n > cap:
        raise ValueError(
            f"instance has {n} links, above the exact-oracle cap {cap}; "
            "the subset enumeration would need 2^n feasibility checks"
        )


def _bit_matrix(k: int) -> np.ndarray:
    """Row m holds the k bits of m as 0.0/1.0, lowest bit first."""
    return ((np.arange(1 << k)[:, None] >> np.arange(k)) & 1).astype(np.float64)


def subset_table(inst: Instance, cap: int = DEFAULT_CAP) -> SubsetTable:
    """Affectance-form feasibility for all subsets; empty subset is feasible.

    The links split into the w lowest bits and the rest, with 2^w * n about
    ``kernel.BLOCK``.  Each half gets its load table once, a bit matrix times
    the term matrix, with NaN as the load on the links outside the half's
    mask, which ``np.fmax`` skips.  A group of high patterns then adds its
    load rows to the whole low table, which gives every member's affectance
    in 2^w consecutive masks per pattern, and keeps each mask's largest load.
    A group holds ``BLOCK // (w * 2^(w-1))`` patterns (seven at n = 17 to 20,
    three at 13 to 16), about a kernel block of member loads on the low
    links, each of which is in half the low masks: a block of one pattern
    costs as much in per-call overhead as in additions.
    Rounded addition is monotone, so the table stays downward closed.

    A mask passes when its largest load is at most ``kernel.rel_leq_cut``
    of the threshold, the comparison greedy and ``slot_feasible`` make.
    The test behind the cut is monotone in the load, so that is the verdict
    of the test on every member.
    """
    n = inst.n
    _check_cap(n, cap)
    if n == 0:
        return SubsetTable(feasible=np.ones(1, dtype=bool))
    cut = kernel.rel_leq_cut(inst.params.affectance_threshold())
    t = _term_matrix(inst)
    w = min(n, max(1, (kernel.BLOCK // n).bit_length() - 1))
    lo_bits, hi_bits = _bit_matrix(w), _bit_matrix(n - w)
    lo_load = _half_loads(lo_bits, t[:w]).T.copy()  # lo_load[v, i]: load on v from low mask i
    lo_load[:w][lo_bits.T == 0] = np.nan
    hi_load = _half_loads(hi_bits, t[w:])  # hi_load[h, v]: load on v from high mask h
    hi_load[:, w:][hi_bits == 0] = np.nan
    feasible = np.empty((len(hi_load), 1 << w), dtype=bool)
    for hs in kernel.blocks(len(hi_load), w << (w - 1)):
        top = np.fmax.reduce(lo_load + hi_load[hs, :, None], axis=1)
        np.less_equal(top, cut, out=feasible[hs])
    feasible[0, 0] = True  # the empty mask, whose loads are all NaN
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
    sets: the Moebius transform of zeta(layer k-1) times zeta(table) counts,
    for each set Y, the pairs (A, S) with A in layer k-1, S feasible and
    A | S = Y.  With dp[mask] the first layer that holds mask, each slot is
    the numerically largest feasible submask that holds the lowest link left
    and leaves a rest one layer lower.  O(n 2^n) per layer after the table.
    """
    n = inst.n
    _check_cap(n, cap)
    feas = subset_table(inst, cap).feasible
    for v in range(n):
        if not feas[1 << v]:
            raise ValueError(
                f"singleton link {v} is infeasible; no schedule exists "
                "(instance fails validation)"
            )
    full = (1 << n) - 1
    f = _zeta(feas.astype(np.int64), n)
    dp = np.full(full + 1, n + 1, dtype=np.int8)
    dp[0] = 0
    layer = np.zeros(full + 1, dtype=np.int64)
    layer[0] = 1
    for k in range(1, n + 1):  # singletons are feasible: n layers reach the full set
        _zeta(layer, n)
        layer *= f
        np.minimum(_zeta(layer, n, np.subtract), 1, out=layer)
        dp[(layer > 0) & (dp > n)] = k
        if dp[full] == k:
            break
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
    n = inst.n
    _check_cap(n, cap)
    if n == 0:
        return True
    feas = subset_table(inst, cap).feasible
    # the odd masks 2j+1 hold link 0; their complements 2^n-2-2j run down the even ones
    rest_ok = feas[-2::-2].copy()
    rest_ok[-1] = True  # the full set leaves an empty second slot
    return bool((feas[1::2] & rest_ok).any())


def partition_solve(values: list[int]) -> list[int] | None:
    """Split a multiset of positive integers into two equal-sum halves.

    Returns the indices of one half, or None when no split exists.
    Pseudo-polynomial: reachable sums are kept as bits of a big integer,
    with per-element snapshots for reconstruction.
    """
    if not values:
        raise ValueError("partition_solve requires at least one value")
    for x in values:
        if not isinstance(x, int) or isinstance(x, bool) or x <= 0:
            raise ValueError(f"values must be positive integers, got {x!r}")
    total = sum(values)
    if total % 2:
        return None
    half = total // 2
    reach = [1]  # reach[i] bit s set <=> sum s achievable from values[:i]
    for x in values:
        reach.append(reach[-1] | (reach[-1] << x))
    if not (reach[-1] >> half) & 1:
        return None
    picked: list[int] = []
    remaining = half
    for i in range(len(values), 0, -1):
        if (reach[i - 1] >> remaining) & 1:
            continue  # achievable without values[i-1]
        picked.append(i - 1)
        remaining -= values[i - 1]
    if remaining != 0:
        raise InternalError(f"partition reconstruction left {remaining} of the half sum")
    picked.reverse()
    return picked
