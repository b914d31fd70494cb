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
from .model import Instance, PhysicalParams, Schedule


def compute_c0(alpha: float, K: float, m: float) -> float:
    """Closed-form interference budget constant for same-slot shorter links.

    Requires alpha * (m + 1 - ceil(m)) > m; raises ValueError otherwise.
    """
    ceil_m = math.ceil(m)
    gap = alpha * (m + 1.0 - ceil_m)
    if not gap > m:
        raise ValueError(
            f"alpha condition violated: need alpha > m/(m+1-ceil(m)) = "
            f"{m / (m + 1.0 - ceil_m)!r}, got alpha = {alpha!r}"
        )
    try:
        c0 = 3.0**alpha * (2.0 * ceil_m * K * K) ** (alpha / m) * gap / (gap - m)
    except OverflowError:
        c0 = math.inf
    if not math.isfinite(c0):
        raise ValueError(f"c0 overflows a float for alpha = {alpha!r}, K = {K!r}, m = {m!r}")
    return c0


def compute_c(alpha: float, beta_eff: float, K: float, m: float) -> float:
    """Smallest separation constant with a feasibility guarantee.

    ``beta_eff`` is the reciprocal affectance threshold (equal to beta when
    the noise floor is zero).
    """
    if not beta_eff > 0:
        raise ValueError(f"beta_eff must be > 0, got {beta_eff!r}")
    c0 = compute_c0(alpha, K, m)
    return (beta_eff * (c0 + 1.0)) ** (1.0 / alpha) + 3.0


@dataclass(frozen=True)
class SchedulerConfig:
    """Separation constant for the greedy admission rule.

    Any c > 1 produces a valid partition satisfying the counting bound; the
    feasibility guarantee additionally needs c >= compute_c(...) and the
    spatial-separation properties need c > 3 (see ``guarantees_separation``).
    """

    c: float

    def __post_init__(self) -> None:
        if not self.c > 1:
            raise ValueError(f"separation constant c must be > 1, got {self.c!r}")

    @property
    def guarantees_separation(self) -> bool:
        return self.c > 3

    def admit_threshold(self, alpha: float) -> float:
        return self.c**-alpha

    @classmethod
    def auto(cls, params: PhysicalParams) -> "SchedulerConfig":
        """Config at the guaranteed-feasible threshold for these parameters."""
        return cls(c=compute_c(params.alpha, params.effective_beta(), params.K, params.m))


def _processing_order(inst: Instance) -> list[int]:
    # Descending length; ties broken by ascending link id for determinism.
    return sorted(range(inst.n), key=lambda i: (-inst.link_length(i), i))


def greedy_schedule(inst: Instance, cfg: SchedulerConfig) -> Schedule:
    """First-fit greedy over length-sorted links.

    For each link, one kernel column gives the terms of every link placed
    before it, and a bincount over their slots gives the load on it in every
    slot at once.  Loads add up in placement order.
    """
    thr = cfg.admit_threshold(inst.params.alpha)
    order = np.array(_processing_order(inst), dtype=np.intp)
    slot_of = np.empty(inst.n, dtype=np.intp)  # slot of the link at each position
    column = np.empty(inst.n)
    slots: list[list[int]] = []
    for i, v in enumerate(order.tolist()):
        target = inst.receivers[v : v + 1]
        for part in kernel.blocks(i, 1):
            column[part] = kernel.terms(inst, order[part], target)[:, 0]
        loads = np.bincount(slot_of[:i], weights=column[:i], minlength=len(slots))
        fits = np.flatnonzero(kernel.rel_leq(loads, thr))
        k = int(fits[0]) if len(fits) else len(slots)
        if k == len(slots):
            slots.append([])
        slots[k].append(v)
        slot_of[i] = k
    return Schedule(slots=tuple(frozenset(slot) for slot in slots))
