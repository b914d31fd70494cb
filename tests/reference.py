"""Scalar reference implementations, one Python float at a time.

These are the loops the package used before every term moved to
``linsched.kernel``.  Tests compare the kernel-based code against them:
verdicts, schedules and argmax nodes exactly, values at a tight relative
tolerance (Euclidean distances here come from ``math.dist``, in the kernel
from ``np.hypot``).
"""

from __future__ import annotations

import math
from typing import Iterable

from linsched import Instance, Schedule, SchedulerConfig
from linsched.model import REL_TOL
from linsched.scheduler import _processing_order


def rel_leq(x: float, y: float, rel: float = REL_TOL) -> bool:
    """x <= y up to a relative tolerance scaled by the larger magnitude."""
    if x <= y:
        return True
    diff = x - y
    if math.isinf(diff):
        return False
    return diff <= rel * max(abs(x), abs(y))


def _ratio_pow(num: float, den: float, alpha: float) -> float:
    """(num/den)^alpha, saturating to +inf on zero denominator or overflow."""
    if den == 0.0:
        return math.inf
    try:
        return (num / den) ** alpha
    except OverflowError:
        return math.inf


def affectance_term(w: int, v: int, inst: Instance) -> float:
    return _ratio_pow(inst.link_length(w), inst.asym_distance(w, v), inst.params.alpha)


def affectance(v: int, members: Iterable[int], inst: Instance) -> float:
    terms = [affectance_term(w, v, inst) for w in members if w != v]
    terms.sort()
    return sum(terms)


def raw_slot_feasible(members: list[int], inst: Instance) -> bool:
    """SINR check in the raw power-ratio form with linear powers.

    Computes received powers c_l*len^alpha/d^alpha directly and compares
    signal against beta*(interference + noise) per link.
    """
    p = inst.params
    ok = True
    for v in members:
        d_vv = inst.link_length(v)
        signal = _ratio_pow(d_vv, d_vv, p.alpha) * p.c_l  # c_l up to rounding
        received = []
        for w in members:
            if w == v:
                continue
            power_w = p.c_l * inst.link_length(w) ** p.alpha
            den = inst.asym_distance(w, v) ** p.alpha
            received.append(math.inf if den == 0.0 else power_w / den)
        received.sort()
        rhs = p.beta * (sum(received) + p.noise)
        if not rel_leq(rhs, signal):
            ok = False
    return ok


def slot_feasible(members: Iterable[int], inst: Instance) -> tuple[bool, int, float, dict[int, float]]:
    """(feasible, worst_link, worst_margin, per_link_affectance) of one slot."""
    member_list = sorted(set(members))
    thr = inst.params.affectance_threshold()
    per_link: dict[int, float] = {}
    worst_link = -1
    worst_margin = math.inf
    feasible = True
    for v in member_list:
        a = affectance(v, member_list, inst)
        per_link[v] = a
        if thr - a < worst_margin:
            worst_margin = thr - a
            worst_link = v
        if not rel_leq(a, thr):
            feasible = False
    return feasible, worst_link, worst_margin, per_link


def interference_at(p: int, members: Iterable[int], inst: Instance) -> float:
    metric = inst.metric
    links = inst.links
    terms = []
    for w in members:
        d = metric.distance(links[w].sender, p)
        if d == 0.0:
            terms.append(1.0)
        else:
            terms.append(min(1.0, _ratio_pow(inst.link_length(w), d, inst.params.alpha)))
    terms.sort()
    return sum(terms)


def interference_measure(members: Iterable[int], inst: Instance) -> tuple[float, int]:
    member_list = sorted(set(members))
    best = -1.0
    best_node = -1
    for p in inst.used_nodes():
        val = interference_at(p, member_list, inst)
        if val > best:
            best = val
            best_node = p
    return best, best_node


def greedy_schedule_reference(inst: Instance, cfg: SchedulerConfig) -> Schedule:
    """First-fit greedy, recomputing each probe from scratch via ``affectance``."""
    thr = cfg.admit_threshold(inst.params.alpha)
    slots: list[list[int]] = []
    for v in _processing_order(inst):
        for slot in slots:
            if rel_leq(affectance(v, slot, inst), thr):
                slot.append(v)
                break
        else:
            slots.append([v])
    return Schedule(slots=tuple(frozenset(slot) for slot in slots))


def admission_trace_ok(inst: Instance, cfg: SchedulerConfig, sched: Schedule) -> bool:
    """Replay a greedy output: each member must have been admissible against
    the slot members placed before it (earlier in the processing order)."""
    thr = cfg.admit_threshold(inst.params.alpha)
    order = {v: pos for pos, v in enumerate(_processing_order(inst))}
    for slot in sched.slots:
        members = sorted(slot, key=order.__getitem__)
        for i, v in enumerate(members):
            if not rel_leq(affectance(v, members[:i], inst), thr):
                return False
    return True


def separation_violations(
    inst: Instance, cfg: SchedulerConfig, sched: Schedule, rel: float = 1e-9
) -> list[tuple[int, int, str]]:
    """Spatial-separation check for co-scheduled pairs.

    For every pair v, w sharing a slot, with d = max of the two lengths, the
    greedy admission rule forces d(s_v, r_w) >= (c-2)d, d(s_w, r_v) >= (c-2)d
    and d(s_v, s_w) >= (c-3)d.  Returns violating (v, w, which) triples.
    """
    c = cfg.c
    out: list[tuple[int, int, str]] = []
    metric = inst.metric
    links = inst.links
    for slot in sched.slots:
        members = sorted(slot)
        for i, v in enumerate(members):
            for w in members[i + 1 :]:
                d = max(inst.link_length(v), inst.link_length(w))
                guard = 1.0 - rel
                if inst.asym_distance(v, w) < (c - 2.0) * d * guard:
                    out.append((v, w, "sender_v-receiver_w"))
                if inst.asym_distance(w, v) < (c - 2.0) * d * guard:
                    out.append((v, w, "sender_w-receiver_v"))
                ss = metric.distance(links[v].sender, links[w].sender)
                if ss < (c - 3.0) * d * guard:
                    out.append((v, w, "sender_v-sender_w"))
    return out
