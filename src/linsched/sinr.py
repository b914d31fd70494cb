"""Affectance computation and SINR feasibility checking.

The affectance of link v caused by a set S is the sum over w in S (minus v
itself) of (len_w / d(s_w, r_v))^alpha: the relative interference each
concurrent sender inflicts on v's receiver.  Under linear powers the SINR
decoding condition for v inside slot S is equivalent to

    affectance_S(v) <= 1/beta - noise/c_l

and this additive form is what the scheduler and oracle manipulate.  Every
slot verdict is double-checked here against the raw power-ratio form of the
SINR condition; the two must always agree.  All terms come from ``kernel``.

Terms where the cross distance is zero saturate to +inf, so any slot that
collocates a sender with a foreign receiver is infeasible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from . import kernel
from .model import Instance, InternalError, Schedule, check_partition


def affectance_term(w: int, v: int, inst: Instance) -> float:
    """Interference of link w's sender on link v's receiver, relative form.

    Returns (len_w / d(s_w, r_v))^alpha; +inf when the cross distance is 0.
    Requires w != v.
    """
    if w == v:
        raise ValueError("affectance term requires two distinct links")
    return float(kernel.terms(inst, np.array([w]), inst.receivers[[v]])[0, 0])


def affectance(v: int, members: Iterable[int], inst: Instance) -> float:
    """Total affectance on link v from the links in ``members``.

    v itself is excluded if present.  Terms are summed in ascending order to
    stabilize floating point; the result is additive over disjoint member
    sets and monotone under set inclusion.
    """
    W = np.fromiter(members, dtype=np.intp)
    W = W[W != v]
    return float(kernel.ascending_sums(kernel.terms(inst, W, inst.receivers[[v]]))[0])


@dataclass(frozen=True)
class FeasibilityResult:
    """Verdict for one slot.

    ``worst_margin`` is the affectance threshold minus the affectance at the
    worst-off link; negative means that link cannot decode.
    """

    feasible: bool
    worst_link: int | None
    worst_margin: float
    per_link_affectance: dict[int, float]


def slot_feasible(members: Iterable[int], inst: Instance) -> FeasibilityResult:
    """Decide whether all links in a slot can transmit concurrently.

    Feasible iff every member's affectance stays within the threshold
    1/beta - noise/c_l (relative tolerance 1e-9).  The verdict is checked
    against the raw power-ratio form of the SINR condition, computed on its
    own from the same distances; InternalError is raised if they disagree.
    """
    member_list = sorted(set(members))
    if not member_list:
        raise ValueError("slot_feasible requires a nonempty slot")
    p = inst.params
    M = np.array(member_list, dtype=np.intp)
    lengths = inst.length_array[M][:, None]
    with np.errstate(over="ignore"):
        powers = p.c_l * np.float_power(lengths, p.alpha)  # sender powers, linear rule
    aff = np.empty(len(M))
    interference = np.empty(len(M))  # raw form: summed received power
    for cols in kernel.blocks(len(M), len(M)):
        d = kernel.dist(inst, inst.senders[M], inst.receivers[M[cols]])
        own = M[:, None] == M[None, cols]
        t = kernel.ratio_power(lengths, d, p.alpha)
        t[own] = 0.0
        aff[cols] = kernel.ascending_sums(t)
        # Raw form: received power c_l*len_w^alpha / d^alpha of every other sender.
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            den = np.float_power(d, p.alpha)
            r = powers / den
        r[den == 0.0] = np.inf
        r[own] = 0.0
        interference[cols] = kernel.ascending_sums(r)
    thr = p.affectance_threshold()
    feasible = bool(kernel.rel_leq(aff, thr).all())
    # A link's own received power is c_l*len^alpha/len^alpha = c_l.
    raw_feasible = bool(kernel.rel_leq(p.beta * (interference + p.noise), p.c_l).all())
    if feasible != raw_feasible:
        raise InternalError(
            f"raw SINR and affectance-form verdicts diverged on slot {member_list}"
        )
    margins = thr - aff
    worst = int(np.argmin(margins))
    return FeasibilityResult(
        feasible=feasible,
        worst_link=member_list[worst],
        worst_margin=float(margins[worst]),
        per_link_affectance=dict(zip(member_list, aff.tolist())),
    )


@dataclass(frozen=True)
class FeasibilityReport:
    """Partition check plus per-slot feasibility for a whole schedule."""

    partition_ok: bool
    partition_problems: tuple[str, ...]
    slot_results: tuple[FeasibilityResult, ...]
    feasible: bool

    @property
    def verdict(self) -> str:
        if not self.partition_ok:
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
    known = inst.link_ids()
    slots = sched.slots if all(slot <= known for slot in sched.slots) else ()
    results = tuple(slot_feasible(slot, inst) for slot in slots if slot)
    all_ok = all(r.feasible for r in results)
    return FeasibilityReport(
        partition_ok=not problems,
        partition_problems=tuple(problems),
        slot_results=results,
        feasible=(not problems) and all_ok,
    )
