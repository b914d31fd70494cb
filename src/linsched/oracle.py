"""Exact minimum-length scheduling for small instances, plus PARTITION.

Ground truth for approximation-ratio experiments and for the two-slot
decision that the adversarial reduction targets.  The subset feasibility
table is materialized for all 2^n link subsets (vectorized), then a
minimum-partition dynamic program over bitmasks extracts an optimal
schedule.  Feasibility is downward closed, so every partition block can be
required to contain the lowest unassigned link without losing optimality.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernel
from .model import REL_TOL, Instance, Schedule

DEFAULT_CAP = 16
HARD_CAP = 20

# Saturation stand-in for +inf affectance terms inside the vectorized table
# build; 0 * HUGE stays 0 where np.inf would produce NaN.
_HUGE = 1e300


def _term_matrix(inst: Instance) -> np.ndarray:
    """T[w, v] = affectance term of link w on link v, diagonals 0."""
    t = kernel.terms(inst, np.arange(inst.n), inst.receivers)
    t[np.isinf(t)] = _HUGE
    np.fill_diagonal(t, 0.0)
    return t


@dataclass(frozen=True)
class SubsetTable:
    """Feasibility bit for every one of the 2^n link subsets."""

    n: int
    feasible: np.ndarray  # bool, length 2^n, indexed by bitmask

    def is_feasible(self, mask: int) -> bool:
        return bool(self.feasible[mask])


def _check_cap(n: int, cap: int) -> None:
    if cap > HARD_CAP:
        raise ValueError(f"cap {cap} exceeds the hard cap {HARD_CAP}")
    if n > cap:
        raise ValueError(
            f"instance has {n} links, above the exact-oracle cap {cap}; "
            "the subset enumeration would need 2^n feasibility checks"
        )


def subset_table(inst: Instance, cap: int = DEFAULT_CAP) -> SubsetTable:
    """Affectance-form feasibility for all subsets; empty subset is feasible.

    Evaluated blockwise: the bit matrix of a mask block times the term
    matrix gives every member's affectance in that block at once.
    """
    n = inst.n
    _check_cap(n, cap)
    thr = inst.params.affectance_threshold()
    if n == 0:
        return SubsetTable(n=0, feasible=np.ones(1, dtype=bool))
    t = _term_matrix(inst)
    size = 1 << n
    feasible = np.empty(size, dtype=bool)
    block = 1 << min(n, 16)
    bit_cols = np.arange(n)
    for start in range(0, size, block):
        masks = np.arange(start, min(start + block, size), dtype=np.int64)
        bits = ((masks[:, None] >> bit_cols) & 1).astype(np.float64)
        load = bits @ t  # load[i, v] = affectance on v from mask i's members
        tol = thr + REL_TOL * np.maximum(np.abs(load), abs(thr))
        ok = np.where(bits > 0, load <= tol, True)
        feasible[start : start + len(masks)] = ok.all(axis=1)
    return SubsetTable(n=n, feasible=feasible)


def optimal_schedule(inst: Instance, cap: int = DEFAULT_CAP) -> Schedule:
    """Partition the links into the minimum number of feasible slots.

    Requires every singleton to be feasible (true whenever validation
    passes).  Runs in O(3^n) after the table build.
    """
    n = inst.n
    _check_cap(n, cap)
    if n == 0:
        return Schedule(slots=())
    table = subset_table(inst, cap)
    feas = table.feasible.tolist()
    for v in range(n):
        if not feas[1 << v]:
            raise ValueError(
                f"singleton link {v} is infeasible; no schedule exists "
                "(instance fails validation)"
            )
    full = (1 << n) - 1
    inf = n + 1
    dp = [0] + [inf] * full
    choice = [0] * (full + 1)
    for mask in range(1, full + 1):
        low = mask & -mask
        best = inf
        best_sub = 0
        sub = mask
        while sub:
            if sub & low and feas[sub]:
                cand = dp[mask ^ sub] + 1
                if cand < best:
                    best = cand
                    best_sub = sub
            sub = (sub - 1) & mask
        dp[mask] = best
        choice[mask] = best_sub
    slots = []
    mask = full
    while mask:
        sub = choice[mask]
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
    full = (1 << n) - 1
    with_link0 = np.arange(1, full + 1, 2, dtype=np.int64)
    comp = full - with_link0
    ok = feas[with_link0] & (feas[comp] | (comp == 0))
    return bool(ok.any())


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
    assert remaining == 0
    picked.reverse()
    return picked
