"""Greedy first-fit scheduler over length-sorted links.

Links are processed in descending order of length and each one is placed in
the first slot whose accumulated affectance on it does not exceed 1/c^alpha,
where c is the separation constant.  With c at or above the closed-form
threshold returned by ``compute_c`` (and a path-loss exponent above the
measure-dependent bound), every output slot is guaranteed feasible; smaller
c down to 1 still yields the schedule-length-versus-interference counting
bound, with feasibility verified instead of guaranteed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernel
from .model import Instance, PhysicalParams, Schedule, _fraction_gap


def compute_c0(params: PhysicalParams) -> float:
    """Closed-form interference budget constant for same-slot shorter links.

    Raises ValueError when ``params.alpha_problem()`` names a reason.
    """
    problem = params.alpha_problem()
    if problem is not None:
        raise ValueError(problem)
    alpha, K, m = params.alpha, params.K, params.m
    gap = alpha * _fraction_gap(m)
    try:
        c0 = 3.0**alpha * (2.0 * math.ceil(m) * K * K) ** (alpha / m) * gap / (gap - m)
    except OverflowError:
        c0 = math.inf
    if not math.isfinite(c0):
        raise ValueError(f"c0 overflows a float for alpha = {alpha!r}, K = {K!r}, m = {m!r}")
    return c0


def compute_c(params: PhysicalParams) -> float:
    """Smallest separation constant with a feasibility guarantee.

    It scales with beta_eff, the reciprocal affectance threshold (equal to
    beta when the noise floor is zero).  Raises ValueError when
    ``params.budget_problem()`` or ``params.alpha_problem()`` names a reason.
    """
    problem = params.budget_problem()
    if problem is not None:
        raise ValueError(problem)
    c0 = compute_c0(params)
    beta_eff = 1.0 / params.affectance_threshold()
    budget = beta_eff * (c0 + 1.0)
    if not math.isfinite(budget):
        raise ValueError(
            f"beta_eff*(c0+1) overflows a float for beta_eff = {beta_eff!r}, c0 = {c0!r}"
        )
    return budget ** (1.0 / params.alpha) + 3.0


@dataclass(frozen=True)
class SchedulerConfig:
    """Separation constant for the greedy admission rule.

    Any c > 1 produces a valid partition satisfying the counting bound; the
    feasibility guarantee additionally needs c >= compute_c(params), which always
    exceeds 3, as the spatial-separation properties require.
    """

    c: float

    def __post_init__(self) -> None:
        if not 1 < self.c < math.inf:
            raise ValueError(f"separation constant c must be > 1 and finite, got {self.c!r}")

    def admit_threshold(self, alpha: float) -> float:
        return self.c**-alpha

    @classmethod
    def auto(cls, params: PhysicalParams) -> "SchedulerConfig":
        """Config at the guaranteed-feasible threshold for these parameters."""
        return cls(c=compute_c(params))


def _processing_order(inst: Instance) -> np.ndarray:
    # Descending length; the stable sort breaks ties by ascending link id.
    return np.argsort(-inst.lengths, kind="stable")


def greedy_schedule(inst: Instance, cfg: SchedulerConfig) -> Schedule:
    """First-fit greedy over length-sorted links, a block of positions at a time.

    The sender and receiver coordinates and the lengths are gathered once,
    in processing order, for the exact and for the cheap terms.  A load is
    admitted when it is at most ``cut = kernel.rel_leq_cut(thr)``, which is
    the test ``rel_leq(load, thr)``; the exact load of a slot on a link is
    its terms from ``kernel.terms`` added one by one in placement order.

    First fit runs on cheap loads.  The cheap coordinates and weights of the
    placed links are kept in one buffer, grouped by slot in runs that grow
    to both sides from its middle; placing a link in slot k moves one column
    of each run on the side of k that has fewer runs.  For each block of
    positions the block's own links are staged past the last run, and one
    block of ``kernel.cheap_power`` terms over the buffer gives every placed
    link and every link of the block on the block's receivers, a row per
    receiver, with the placed links in slot order: one ``np.add.reduceat``
    sums each slot's load in float64.  These loads and the block's own terms
    are taken once as Python floats, the own terms only where a link reads
    them, and the block's links are placed on them: each link first adds
    the terms of the block's earlier links to their slots' loads, in
    placement order.  The buffer is not read again in the block, so its
    moves are composed per placement into a map from column to source and
    applied after the block, one gather per row, which leaves the buffer as
    the moves one by one would.
    ``kernel.cheap_cuts`` turns the cut into two cheap ones for loads of at
    most n terms.  A link skips the slots whose cheap load is above
    ``above``, whose exact loads are surely past the cut, and joins the first
    other slot if its cheap load is at most ``below``, where the exact load
    surely fits.  Otherwise (a load within the bound of the cut, or NaN) the
    link's exact row from ``kernel.terms`` and one bincount over the slots
    placed before it give every exact load, each the same additions in the
    same order as above, and first fit runs on those.  Either way the link
    goes where the exact loads put it.
    """
    n = inst.n
    if n == 0:
        return Schedule(slots=())
    alpha = inst.params.alpha
    cut = kernel.rel_leq_cut(cfg.admit_threshold(alpha))
    below, above = kernel.cheap_cuts(kernel.cheap_bound(inst), cut, n)
    order = _processing_order(inst)
    senders, receivers = inst.senders[order], inst.receivers[order]
    S, X, L = kernel.coords(inst, senders), kernel.coords(inst, receivers), inst.lengths[order]
    CS, CX = kernel.cheap_coords(inst, senders), kernel.cheap_coords(inst, receivers)
    W = kernel.cheap_weights(inst, L)[0]
    links = order.tolist()
    slot_of: list[int] = []  # the slot of the link at each position placed so far
    # The cheap coordinates and weights of the links placed so far, grouped
    # by slot: slot k holds columns edge[k] : edge[k + 1] of G and GW.  At
    # most n links go left or right of the middle, and a block of at most n
    # is staged past the last run.
    G = np.empty(CS.shape[:-1] + (3 * n,), CS.dtype)
    GW = np.empty(3 * n, W.dtype)
    edge = [n]
    # one row per axis (or of node ids) and the weights, to move columns by
    grouped = [*G.reshape(-1, 3 * n), GW]
    slots: list[list[int]] = []
    # earlier[c, i]: whether the block's link i is placed before its link c
    earlier = np.tri(min(n, max(1, kernel.BLOCK // n)), k=-1, dtype=bool)
    for span in kernel.blocks(n, n):
        a, b = span.start, span.stop
        lo, hi = edge[0], edge[-1]
        G[..., hi : hi + b - a] = CS[..., span]
        GW[hi : hi + b - a] = W[span]
        # T[c, i]: the cheap term on position a + c of the link in column
        # lo + i, a placed link for i < a and position i for i >= a
        columns = slice(lo, hi + b - a)
        D = kernel.cheap_distances(inst, G[..., columns], CX[..., span])
        T = kernel.cheap_power(inst, D, GW[columns])
        loads = np.zeros((b - a, len(slots) + 1))
        if a:
            np.add.reduceat(T[:, :a], np.subtract(edge[:-1], lo), axis=1, dtype=np.float64,
                            out=loads[:, : len(slots)])
        rows, own = loads.tolist(), iter(T[:, a:][earlier[: b - a, : b - a]].tolist())
        origin: dict[int, int] = {}  # column -> the column whose block-start content it now holds
        for c, v in enumerate(links[span]):
            j, row = a + c, rows[c]
            row += [0.0] * (len(slots) + 1 - len(row))  # the slots opened in this block so far
            for k, t in zip(slot_of[a:], own):  # the block's earlier links, in placement order
                row[k] += t
            # The next new slot, at load 0.0, is never past the cut.
            k = 0
            while row[k] > above:
                k += 1
            if not row[k] <= below:
                exact = kernel.terms(inst, S[:j], L[:j], X[j : j + 1])[0]
                exact_loads = np.bincount(slot_of, exact, minlength=len(slots) + 1)
                k = int((exact_loads <= cut).argmax())
            if k == len(slots):
                slots.append([])
                edge.append(edge[-1])
            slots[k].append(v)
            slot_of.append(k)
            # Slot k's run grows by a column: each run left of it hands its
            # last column on to one before its start, or each run right of it
            # its first column on to one past its end, whichever side has
            # fewer runs.  Link j takes the column so freed.  The moves are
            # composed in ``origin`` and applied once after the block.
            if k <= len(slots) - 1 - k:
                for i in range(k + 1):
                    edge[i] -= 1
                for i in range(k):
                    origin[edge[i]] = origin.get(edge[i + 1], edge[i + 1])
                origin[edge[k]] = hi + c
            else:
                for i in range(k + 1, len(slots) + 1):
                    edge[i] += 1
                for i in range(len(slots) - 1, k, -1):
                    origin[edge[i + 1] - 1] = origin.get(edge[i] - 1, edge[i] - 1)
                origin[edge[k + 1] - 1] = hi + c
        dst = np.fromiter(origin, np.intp, len(origin))
        src = np.fromiter(origin.values(), np.intp, len(origin))
        for axis in grouped:
            axis[dst] = axis[src]
    return Schedule(slots=tuple(frozenset(slot) for slot in slots))
