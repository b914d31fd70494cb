"""Affectance computation and SINR feasibility checking.

The affectance of link v caused by a set S is the sum over w in S (minus v
itself) of (len_w / d(s_w, r_v))^alpha: the relative interference each
concurrent sender inflicts on v's receiver.  Under linear powers the SINR
decoding condition for v inside slot S is equivalent to

    affectance_S(v) <= 1/beta - noise/c_l

and this additive form is what the scheduler and oracle manipulate.  Every
slot verdict is double-checked here against the raw power-ratio form of the
SINR condition; the two must agree unless the worst load lies within rounding
of the band edge.  All terms come from ``kernel``, a block of member
receivers at a time, from coordinates gathered once per slot.  The
affectance loads are sorted sequential sums, as ``sum(sorted(...))`` gives
them; the raw form, computed on its own from the same distances, adds its
powers with ``np.sum``, since its bits reach no output.

Terms where the cross distance is zero saturate to +inf, so any slot that
collocates a sender with a foreign receiver is infeasible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from . import kernel
from .model import REL_TOL, Instance, InternalError, Schedule, check_partition


@dataclass(frozen=True)
class FeasibilityResult:
    """Verdict for one slot.

    ``worst_margin`` is the affectance threshold minus the affectance at the
    worst-off link; negative means that link cannot decode.
    """

    feasible: bool
    worst_link: int | None
    worst_margin: float


def slot_feasible(members: Iterable[int], inst: Instance) -> FeasibilityResult:
    """Decide whether all links in a slot can transmit concurrently.

    Feasible iff every member's affectance stays within the threshold
    1/beta - noise/c_l (relative tolerance 1e-9).  The verdict is checked
    against the raw power-ratio form of the SINR condition, computed on its
    own from the same distances; InternalError is raised if they disagree
    on a slot whose worst load is not within rounding of the band edge.
    """
    member_list = sorted(set(members))
    if not member_list:
        raise ValueError("slot_feasible requires a nonempty slot")
    p = inst.params
    M = np.array(member_list, dtype=np.intp)
    S, X = kernel.coords(inst, inst.senders[M]), kernel.coords(inst, inst.receivers[M])
    lengths = inst.lengths[M]
    log_lengths = np.log(lengths)
    aff = np.empty(len(M))
    interference = np.empty(len(M))  # raw form: summed received power
    for rows in kernel.blocks(len(M), len(M)):
        d = kernel.dist(inst, S, X[rows])  # d[j, i]: from sender i to receiver rows.start + j
        own = np.arange(len(d)), np.arange(rows.start, rows.stop)
        t = kernel.ratio_power(lengths, d, p.alpha)
        t[own] = 0.0
        aff[rows] = kernel.ascending_sums(t)
        # Raw form: received power c_l*len_w^alpha / d^alpha of every other
        # sender, in log units so that len_w^alpha and d^alpha cannot overflow
        # into inf/inf.  d = 0 gives log d = -inf and so power +inf.
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            r = p.c_l * np.exp(p.alpha * (log_lengths - np.log(d)))
        r[own] = 0.0
        interference[rows] = r.sum(axis=1)
    thr = p.affectance_threshold()
    feasible = bool(kernel.rel_leq(aff, thr).all())
    # A link's own received power is c_l*len^alpha/len^alpha = c_l, and noise
    # leaves c_l - beta*noise of it for interference: this budget is beta*c_l
    # times thr, so the 1e-9 band is the same fraction of the budget in both forms.
    raw_feasible = bool(kernel.rel_leq(p.beta * interference, p.c_l - p.beta * p.noise).all())
    # Each form rounds its own loads, by a few dozen ulps: the affectance
    # loads are sorted sequential sums, the raw ones pairwise sums (np.sum),
    # whose rounding grows only as log2 of the slot size.  Each also rounds
    # its own budget, by an ulp of 1/beta and of noise/c_l relative to thr.
    # So the verdicts may split only on a worst load within that window of
    # the band edge, and there the affectance verdict stands.
    window = np.finfo(float).eps * ((1.0 / p.beta + p.noise / p.c_l) / thr + 64)
    near_edge = abs(aff.max() / (thr * (1.0 + REL_TOL)) - 1.0) <= window
    if feasible != raw_feasible and not near_edge:
        raise InternalError(
            f"raw SINR and affectance-form verdicts diverged on slot {member_list}"
        )
    margins = thr - aff
    worst = int(np.argmin(margins))
    return FeasibilityResult(
        feasible=feasible,
        worst_link=member_list[worst],
        worst_margin=float(margins[worst]),
    )


@dataclass(frozen=True)
class FeasibilityReport:
    """Partition check plus per-slot feasibility for a whole schedule."""

    partition_problems: tuple[str, ...]
    slot_results: tuple[FeasibilityResult, ...]
    feasible: bool

    @property
    def verdict(self) -> str:
        if self.partition_problems:
            return "invalid-partition"
        return "feasible" if self.feasible else "infeasible"

    def first_infeasible_slot(self) -> int | None:
        for i, res in enumerate(self.slot_results):
            if not res.feasible:
                return i
        return None


def schedule_feasible(sched: Schedule, inst: Instance) -> FeasibilityReport:
    """Check a schedule: partition invariant first, then every slot.

    Slots are evaluated only when every id in them names a link of the
    instance; otherwise the report carries the partition problems alone.
    """
    problems = check_partition(sched, inst)
    known = frozenset(range(inst.n))
    slots = sched.slots if all(slot <= known for slot in sched.slots) else ()
    results = tuple(slot_feasible(slot, inst) for slot in slots if slot)
    all_ok = all(r.feasible for r in results)
    return FeasibilityReport(
        partition_problems=tuple(problems),
        slot_results=results,
        feasible=(not problems) and all_ok,
    )
