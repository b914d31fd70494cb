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
    """First-fit greedy over length-sorted links.

    For each link, one kernel column gives the terms of every link placed
    before it, and a bincount over their slots gives the load on it in every
    slot at once.  Loads add up in placement order.
    """
    thr = cfg.admit_threshold(inst.params.alpha)
    order = _processing_order(inst)
    slot_of = np.empty(inst.n, dtype=np.intp)  # slot of the link at each position
    slots: list[list[int]] = []
    for i, v in enumerate(order.tolist()):
        column = kernel.terms(inst, order[:i], inst.receivers[v : v + 1])[:, 0]
        loads = np.bincount(slot_of[:i], weights=column, minlength=len(slots))
        fits = np.flatnonzero(kernel.rel_leq(loads, thr))
        k = int(fits[0]) if len(fits) else len(slots)
        if k == len(slots):
            slots.append([])
        slots[k].append(v)
        slot_of[i] = k
    return Schedule(slots=tuple(frozenset(slot) for slot in slots))
