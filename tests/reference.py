"""Scalar reference implementations, one Python float at a time.

These are the loops the package used before every term moved to
``linsched.kernel``.  Tests compare the kernel-based code against them:
verdicts, schedules and argmax nodes exactly, values at a tight relative
tolerance (Euclidean distances here come from ``math.dist``, in the kernel
from ``np.hypot``).  Distances are read one pair at a time by ``dist``.
``optimal_schedule_reference`` is the exact oracle's former O(3^n)
submask dynamic program, over the package's own subset table.
``validate_instance_reference`` is validation as it was when it returned one
diagnostic per offender, and ``aggregate_per_code`` folds that list into
the one diagnostic per code that ``validate_instance`` returns.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from linsched import EuclideanMetric, Instance, SchedulerConfig
from linsched.model import REL_TOL, Diagnostic, MatrixMetric, Schedule
from linsched.oracle import subset_table
from linsched.scheduler import _processing_order


def rel_leq(x: float, y: float, rel: float = REL_TOL) -> bool:
    """x <= y up to a relative tolerance scaled by the larger magnitude."""
    if x <= y:
        return True
    diff = x - y
    if math.isinf(diff):
        return False
    return diff <= rel * max(abs(x), abs(y))


def dist(inst: Instance, p: int, q: int) -> float:
    """Distance between nodes p and q as a Python float."""
    metric = inst.metric
    if isinstance(metric, EuclideanMetric):
        return math.dist(metric.points[p].tolist(), metric.points[q].tolist())
    return float(metric.d[p][q])


def length(inst: Instance, w: int) -> float:
    return dist(inst, int(inst.senders[w]), int(inst.receivers[w]))


def asym_distance(inst: Instance, w: int, v: int) -> float:
    """Distance from the sender of link w to the receiver of link v."""
    return dist(inst, int(inst.senders[w]), int(inst.receivers[v]))


def _ratio_pow(num: float, den: float, alpha: float) -> float:
    """(num/den)^alpha, saturating to +inf on zero denominator or overflow."""
    if den == 0.0:
        return math.inf
    try:
        return (num / den) ** alpha
    except OverflowError:
        return math.inf


def affectance_term(w: int, v: int, inst: Instance) -> float:
    return _ratio_pow(length(inst, w), asym_distance(inst, w, v), inst.params.alpha)


def affectance(v: int, members: Iterable[int], inst: Instance) -> float:
    terms = [affectance_term(w, v, inst) for w in members if w != v]
    terms.sort()
    return sum(terms)


def raw_slot_feasible(members: list[int], inst: Instance) -> bool:
    """SINR check in the raw power-ratio form with linear powers.

    Computes received powers c_l*len^alpha/d^alpha directly and compares
    beta*interference against signal - beta*noise per link.
    """
    p = inst.params
    ok = True
    for v in members:
        d_vv = length(inst, v)
        signal = _ratio_pow(d_vv, d_vv, p.alpha) * p.c_l  # c_l up to rounding
        received = []
        for w in members:
            if w == v:
                continue
            power_w = p.c_l * length(inst, w) ** p.alpha
            den = asym_distance(inst, w, v) ** p.alpha
            received.append(math.inf if den == 0.0 else power_w / den)
        received.sort()
        # noise leaves signal - beta*noise for interference, as in the package
        if not rel_leq(p.beta * sum(received), signal - p.beta * p.noise):
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
    terms = []
    for w in members:
        d = dist(inst, int(inst.senders[w]), p)
        if d == 0.0:
            terms.append(1.0)
        else:
            terms.append(min(1.0, _ratio_pow(length(inst, w), d, inst.params.alpha)))
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
    for slot in sched.slots:
        members = sorted(slot)
        for i, v in enumerate(members):
            for w in members[i + 1 :]:
                d = max(length(inst, v), length(inst, w))
                guard = 1.0 - rel
                if asym_distance(inst, v, w) < (c - 2.0) * d * guard:
                    out.append((v, w, "sender_v-receiver_w"))
                if asym_distance(inst, w, v) < (c - 2.0) * d * guard:
                    out.append((v, w, "sender_w-receiver_v"))
                ss = dist(inst, int(inst.senders[v]), int(inst.senders[w]))
                if ss < (c - 3.0) * d * guard:
                    out.append((v, w, "sender_v-sender_w"))
    return out


def optimal_schedule_reference(inst: Instance) -> Schedule:
    """Minimum partition into feasible slots by the O(3^n) submask DP.

    Every block contains the lowest unassigned link; among the best blocks
    of a mask it keeps the numerically largest submask.
    """
    n = inst.n
    if n == 0:
        return Schedule(slots=())
    feas = subset_table(inst, cap=n).feasible.tolist()
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


def _check_matrix_reference(metric: MatrixMetric, check_triangle: bool) -> list[Diagnostic]:
    d = metric.d
    n = len(d)
    if d.shape != (n, n):
        return [Diagnostic("error", "matrix-shape", "distance matrix is not square")]
    if not np.isfinite(d).all():
        return [Diagnostic("error", "non-finite", "distance matrix has a NaN or infinite entry")]
    out: list[Diagnostic] = []
    upper = np.triu(np.ones((n, n), dtype=bool), 1)
    asymmetric = upper & (d != d.T)
    negative = upper & (d < 0)
    zero = upper & (d == 0.0)
    flagged = asymmetric | negative | zero
    np.fill_diagonal(flagged, np.diagonal(d) != 0.0)
    # Row-major order reports d(p,p) before the pairs (p, q > p), row by row.
    for p, q in zip(*(idx.tolist() for idx in np.nonzero(flagged))):
        dpq = float(d[p, q])
        if p == q:
            out.append(Diagnostic("error", "matrix-diagonal", f"d({p},{p}) = {dpq!r}, expected 0"))
            continue
        if asymmetric[p, q]:
            out.append(
                Diagnostic(
                    "error",
                    "matrix-asymmetric",
                    f"d({p},{q}) = {dpq!r} but d({q},{p}) = {float(d[q, p])!r}",
                )
            )
        if negative[p, q]:
            out.append(Diagnostic("error", "matrix-negative", f"d({p},{q}) = {dpq!r} < 0"))
        elif zero[p, q]:
            out.append(
                Diagnostic(
                    "warning", "pseudometric-zero", f"distinct nodes {p} and {q} are at distance 0"
                )
            )
    if any(diag.severity == "error" for diag in out):
        return out
    if check_triangle:
        # Tolerance is absolute after normalizing the largest distance to 1.
        tol = REL_TOL * max(float(np.abs(d).max(initial=0.0)), 1.0)
        for p in range(n):
            with np.errstate(over="ignore"):  # a sum beyond the float range is inf
                via = d[p][:, None] + d  # via[q, r] = d(p,q) + d(q,r)
                over = d[p] > via + tol
            over[p] = False
            for q, r in zip(*(idx.tolist() for idx in np.nonzero(over))):
                out.append(
                    Diagnostic(
                        "error",
                        "triangle-violation",
                        f"d({p},{r}) = {float(d[p, r])!r} exceeds "
                        f"d({p},{q}) + d({q},{r}) = {float(via[q, r])!r} "
                        f"(triple {p},{q},{r})",
                    )
                )
    return out


def validate_instance_reference(inst: Instance, check_triangle: bool = True) -> list[Diagnostic]:
    """``validate_instance`` with one diagnostic per offending point, link,
    matrix entry or triple; ``aggregate_per_code`` folds them per code."""
    out: list[Diagnostic] = []
    metric = inst.metric
    params = inst.params

    if isinstance(metric, EuclideanMetric):
        if metric.n_nodes > 0 and metric.dim < 1:
            out.append(Diagnostic("error", "euclidean-dim", "dimension must be >= 1"))
        finite = np.isfinite(metric.points).all(axis=1)
        for i in np.flatnonzero(~finite).tolist():
            point = tuple(metric.points[i].tolist())
            out.append(Diagnostic("error", "non-finite", f"point {i} = {point!r} is not finite"))
    else:
        out.extend(_check_matrix_reference(metric, check_triangle))

    n_nodes = metric.n_nodes
    senders, receivers = inst.senders, inst.receivers
    out_of_range = (
        (senders < 0) | (senders >= n_nodes) | (receivers < 0) | (receivers >= n_nodes)
    )
    for i in np.flatnonzero(out_of_range).tolist():
        out.append(
            Diagnostic(
                "error",
                "link-node-range",
                f"link {i} references node out of range (sender={int(senders[i])}, "
                f"receiver={int(receivers[i])}, n_nodes={n_nodes})",
            )
        )
    metric_ok = not any(
        d.severity == "error" and d.code.startswith(("matrix", "non-finite")) for d in out
    )
    if not out_of_range.any() and metric_ok:
        lengths = inst.lengths
        for i in np.flatnonzero(lengths <= 0.0).tolist():
            out.append(Diagnostic("error", "zero-length-link", f"link {i} has length 0"))
        # Finite points can still lie farther apart than the float range.
        for i in np.flatnonzero(lengths == np.inf).tolist():
            message = f"link {i} has length inf, beyond the float range"
            out.append(Diagnostic("error", "infinite-length-link", message))

    budget = params.budget_problem()
    if budget is not None:
        out.append(Diagnostic("error", "singleton-infeasible", budget))
    alpha = params.alpha_problem()
    if alpha is not None:
        out.append(Diagnostic("warning", "alpha-condition", alpha))
    if params.beta <= 1:
        out.append(
            Diagnostic(
                "warning",
                "beta-regime",
                f"beta = {params.beta!r} <= 1 is outside the guaranteed regime",
            )
        )
    return out


# The order in which validate_instance runs its checks.  euclidean-dim and
# matrix-shape never occur together, so non-finite can follow both.
CHECK_ORDER = (
    "euclidean-dim",
    "matrix-shape",
    "non-finite",
    "matrix-diagonal",
    "matrix-asymmetric",
    "matrix-negative",
    "pseudometric-zero",
    "triangle-violation",
    "link-node-range",
    "zero-length-link",
    "infinite-length-link",
    "singleton-infeasible",
    "alpha-condition",
    "beta-regime",
)


def aggregate_per_code(diags: list[Diagnostic]) -> list[Diagnostic]:
    """One diagnostic per code, in CHECK_ORDER: a lone message as it is,
    several as their count and the first three."""
    groups: dict[str, list[Diagnostic]] = {}
    for d in diags:
        groups.setdefault(d.code, []).append(d)
    out = []
    for code in sorted(groups, key=CHECK_ORDER.index):
        group = groups[code]
        severity = group[0].severity
        assert all(d.severity == severity for d in group)
        first = [d.message for d in group[:3]]
        message = first[0]
        if len(group) > 1:
            message = f"{len(group)} {severity}s, the first {len(first)}: " + "; ".join(first)
        out.append(Diagnostic(severity, code, message))
    return out
