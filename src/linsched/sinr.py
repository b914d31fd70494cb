"""Affectance computation and SINR feasibility checking.

The affectance of link v caused by a set S is the sum over w in S (minus v
itself) of (len_w / d(s_w, r_v))^alpha: the relative interference each
concurrent sender inflicts on v's receiver.  Under linear powers the SINR
decoding condition for v inside slot S is equivalent to

    affectance_S(v) <= 1/beta - noise/c_l

and this additive form is what the scheduler and oracle manipulate; all
three compare a load with ``kernel.rel_leq_cut`` of its threshold.  Every
slot verdict is double-checked here against the raw power-ratio form of the
SINR condition, compared with the cut of its own budget; the two must agree
unless the worst load lies within rounding of the band edge.  All terms come
from ``kernel``, a block of member receivers at a time, from coordinates
gathered once per slot.  One pass over every pair takes the kernel's cheap
distances (squared, of float32-range points) and from them the float32
cheap terms, which only pick the members whose exact loads are needed, and
the raw form's float64 powers.  The affectance loads are sorted sequential
sums of exact terms, as ``sum(sorted(...))`` gives them; the raw form adds
its powers with ``np.sum``, since its bits reach no output.  The
thresholds, cuts and cross-check window are taken once per parameter set,
not per slot, and a slot of one link, which no other sender reaches, skips
the pass.

Terms where the cross distance is zero saturate to +inf, so any slot that
collocates a sender with a foreign receiver is infeasible.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

import numpy as np

from . import kernel
from .model import REL_TOL, Instance, InternalError, PhysicalParams, Schedule, check_partition


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

    Feasible iff every member's affectance is at most ``kernel.rel_leq_cut``
    of the threshold 1/beta - noise/c_l.  The verdict is checked against the
    raw power-ratio form of the SINR condition, computed on its own over
    every pair; InternalError is raised if they disagree on a slot whose
    worst load is not within rounding of the band edge.

    The verdict, the worst link and its margin read the exact loads of a
    few members only.  One pass sums every member's cheap load and raw
    interference.  Each member's verdict compares its load with that cut,
    so the slot's is that of the largest exact load; ``thr - load`` is
    monotone too, so the worst link is the first member whose margin rounds
    to the margin of the largest load.  Its load is within
    d(max) = 4*eps*(|thr| + max) of the largest: two reals that round to
    the same float m are within an ulp of m, at most eps*|m|.
    ``kernel.cheap_error`` gives a lower bound ``low`` on the largest exact
    load from the largest finite cheap one, and the exact loads are taken of
    every member whose cheap load ``kernel.cheap_cuts`` cannot put at or
    below low - d(low).  Every other member's exact load is below
    max - d(max), as x - d(x) grows with x.
    """
    member_list = sorted(set(members))
    if not member_list:
        raise ValueError("slot_feasible requires a nonempty slot")
    p = inst.params
    thr, cut, raw_cut, window = _budget(p)
    exact, aff, interference = _loads(inst, np.array(member_list, dtype=np.intp), thr)
    worst_load = float(aff.max())
    feasible = worst_load <= cut
    raw_feasible = bool((p.beta * interference).max() <= raw_cut)
    near_edge = abs(worst_load / (thr * (1.0 + REL_TOL)) - 1.0) <= window
    if feasible != raw_feasible and not near_edge:
        raise InternalError(
            f"raw SINR and affectance-form verdicts diverged on slot {member_list}"
        )
    margins = thr - aff
    worst = int(np.argmin(margins))
    return FeasibilityResult(
        feasible=feasible,
        worst_link=member_list[exact[worst]],
        worst_margin=float(margins[worst]),
    )


def _loads(inst: Instance, M: np.ndarray, thr: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(exact, aff, interference) of the slot M, as ``slot_feasible`` reads
    them: the ascending members whose exact loads can be the largest or
    round to its margin, those exact loads, and the raw interference on every
    member, summed received power of the other senders."""
    if len(M) == 1:  # no other sender: both loads are the empty sum
        return np.zeros(1, dtype=np.intp), np.zeros(1), np.zeros(1)
    p = inst.params
    senders, receivers, lengths = inst.senders[M], inst.receivers[M], inst.lengths[M]
    S, X = kernel.cheap_coords(inst, senders), kernel.cheap_coords(inst, receivers)
    W, R = kernel.cheap_weights(inst, lengths)
    cheap = np.empty(len(M))
    interference = np.empty(len(M))
    for rows in kernel.blocks(len(M), len(M)):
        # D[j, i]: sender i, receiver rows.start + j; +inf on the own pairs
        # D[j, rows.start + j] makes their cheap and raw terms 0.
        D = kernel.cheap_distances(inst, S, X[..., rows])
        D.reshape(-1)[rows.start :: len(M) + 1] = np.inf
        cheap[rows] = kernel.cheap_power(inst, D, W).sum(axis=1, dtype=np.float64)
        # Raw form: received power c_l*len_w^alpha / d^alpha of every other
        # sender; d = 0 gives +inf.
        interference[rows] = kernel.received_powers(inst, D, R).sum(axis=1)
    interference *= p.c_l
    bound = kernel.cheap_bound(inst)
    r, f = kernel.cheap_error(bound, len(M))
    top = float(cheap.max(where=np.isfinite(cheap), initial=0.0))
    low = top * (1.0 - r) - f if r < 1.0 else 0.0  # the largest exact load is at least this
    margin_cut = low - 4 * kernel.EPS * (abs(thr) + low) - 2.0**-1070
    below, _ = kernel.cheap_cuts(bound, margin_cut, len(M))
    exact = np.flatnonzero(~(cheap <= below))  # ascending, so argmin finds the first member
    S, X = kernel.coords(inst, senders), kernel.coords(inst, receivers[exact])
    aff = _exact_loads(inst, S, lengths, X, exact)
    return exact, aff, interference


@lru_cache(maxsize=64)
def _budget(p: PhysicalParams) -> tuple[float, float, float, float]:
    """The threshold, its cut, the raw form's cut and the window within which
    the two verdicts may split, once per parameter set rather than per slot.

    A link's own received power is c_l*len^alpha/len^alpha = c_l, and noise
    leaves c_l - beta*noise of it for interference: this budget is beta*c_l
    times thr, so the 1e-9 band is the same fraction of the budget in both
    forms.  Each form rounds its own loads, by a few dozen ulps: the
    affectance loads are sorted sequential sums, the raw ones pairwise sums
    (np.sum), whose rounding grows only as log2 of the slot size, of terms
    from the cheap distances.  Each also rounds its own budget, by an ulp of
    1/beta and of noise/c_l relative to thr.  So the verdicts may split only
    on a worst load within that window of the band edge, and there the
    affectance verdict stands.
    """
    thr = p.affectance_threshold()
    window = kernel.EPS * ((1.0 / p.beta + p.noise / p.c_l) / thr + 64)
    return thr, kernel.rel_leq_cut(thr), kernel.rel_leq_cut(p.c_l - p.beta * p.noise), window


def _exact_loads(
    inst: Instance, S: np.ndarray, lengths: np.ndarray, X: np.ndarray, rows: np.ndarray
) -> np.ndarray:
    """The affectance on the slot members ``rows``, whose receivers' ``coords``
    are X: exact terms, own term 0, sorted sums."""
    aff = np.empty(len(rows))
    for part in kernel.blocks(len(rows), len(S)):
        t = kernel.terms(inst, S, lengths, X[part])
        t[np.arange(len(t)), rows[part]] = 0.0
        aff[part] = kernel.ascending_sums(t)
    return aff


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

    Slots are evaluated only when every slot is a nonempty set of known link
    ids, and then every one, so entry i of ``slot_results`` is slot i;
    otherwise the report carries the partition problems alone.
    """
    problems = check_partition(sched, inst)
    known = frozenset(range(inst.n))
    slots = sched.slots if all(slot and slot <= known for slot in sched.slots) else ()
    results = tuple(slot_feasible(slot, inst) for slot in slots)
    all_ok = all(r.feasible for r in results)
    return FeasibilityReport(
        partition_problems=tuple(problems),
        slot_results=results,
        feasible=(not problems) and all_ok,
    )
