"""Scalar reference implementations, one Python float at a time.

These are the loops the package used before every term moved to
``linsched.kernel``.  Tests compare the kernel-based code against them:
verdicts, schedules and argmax nodes exactly, values at a tight relative
tolerance (Euclidean distances here come from ``math.dist``, in the kernel
from ``np.hypot``).  Distances are read one pair at a time by ``dist``.
``rel_leq`` is the 1e-9 band-edge test on one pair of floats and
``rel_leq_array`` the same test elementwise; the package states it once, as
the comparison ``x <= kernel.rel_leq_cut(y)``, in greedy, slot feasibility
and the exact oracle, and the references test every load with the predicate
itself.  ``greedy_schedule_columns`` is the greedy scheduler's former loop,
one kernel row of terms per link; ``greedy_schedule``, a block of rows at a
time against one precomputed cut, must match it slot for slot.
``slot_feasible_columns`` is slot feasibility's former column-major loop,
which ``slot_feasible`` must match with a bit-equal worst margin.
``optimal_schedule_reference`` is the exact oracle's former O(3^n)
submask dynamic program, over the package's own subset table, and
``zeta_reference`` its zeta and Moebius transforms one mask at a time.
``partition_half`` is ``oracle.partition_solve`` as it was, which also
returned the indices of one half of the split.
``subset_table_elementwise`` is the subset table's former loop, which tests
every member's load with ``rel_leq_array``; ``subset_table`` compares each
member's rank among its sorted half-loads with the length of its passing
prefix and must give the same table bit for bit.
``metric_complete_loop`` is ``hardness.metric_complete`` as it was, one
specified pair at a time with a full Floyd-Warshall pass per node, which
the array checks and the split closure must match in matrix and message.
``reduction_pairs_loop`` is the list of forced distances that
``build_reduction`` used to complete with it.
``validate_instance_reference`` is validation as it was when it returned one
diagnostic per offender, and ``aggregate_per_code`` folds that list into
the one diagnostic per code that ``validate_instance`` returns.
``save_instance_reference`` and ``save_schedule_reference`` are the JSON
writers as they were, ``json.dumps`` of plain lists, which the package's own
encoder must match byte for byte.  ``number_rows_reference`` is the loader's
former per-number check of a metric array; patched in for
``model._number_rows``, it makes ``load_instance`` the reference loader.
``load_schedule_reference`` is the schedule loader's former loop, which
checks every link id on its own.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict
from typing import Iterable

import numpy as np

from linsched import EuclideanMetric, Instance, SchedulerConfig, kernel
from linsched.hardness import pad_partition
from linsched.model import (
    REL_TOL,
    SCHEMA,
    Diagnostic,
    FormatError,
    InternalError,
    MatrixMetric,
    Schedule,
    _checked,
    _document,
    _field,
)
from linsched.oracle import _bit_matrix, _check_cap, _term_matrix, subset_table
from linsched.scheduler import _processing_order


def rel_leq(x: float, y: float, rel: float = REL_TOL) -> bool:
    """x <= y up to a relative tolerance scaled by the larger magnitude."""
    if x <= y:
        return True
    diff = x - y
    if math.isinf(diff):
        return False
    return diff <= rel * max(abs(x), abs(y))


def rel_leq_array(x, y) -> np.ndarray:
    """``rel_leq`` elementwise: x <= y up to REL_TOL times the larger magnitude.

    False where x - y is infinite or NaN.
    """
    x, y = np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)
    with np.errstate(invalid="ignore", over="ignore"):
        diff = x - y
        tol = REL_TOL * np.maximum(np.abs(x), np.abs(y))
        return (x <= y) | (np.isfinite(diff) & (diff <= tol))


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


def _column_dist(inst: Instance, P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """The kernel's former distance block D[i, j] = d(P[i], Q[j]), one column per node of Q."""
    metric = inst.metric
    if isinstance(metric, MatrixMetric):
        return metric.d[np.ix_(P, Q)]
    a, b = metric.points[P][:, None], metric.points[Q][None, :]
    with np.errstate(over="ignore"):
        d = np.abs(a[..., 0] - b[..., 0])
        for k in range(1, a.shape[-1]):
            d = np.hypot(d, a[..., k] - b[..., k])
    return d


def _column_sums(T: np.ndarray) -> np.ndarray:
    """The kernel's former ``ascending_sums``: each column, sorted, summed in order."""
    if len(T) == 0:
        return np.zeros(T.shape[1])
    return np.cumsum(np.sort(T, axis=0), axis=0)[-1]


def slot_feasible_columns(members: Iterable[int], inst: Instance) -> tuple[bool, int, float]:
    """(feasible, worst_link, worst_margin): ``sinr.slot_feasible``'s former loop.

    It takes the members' columns (receivers) a block at a time, gathers the
    senders on every block, masks the own terms by comparing ids and sums
    both forms, sorted, down the columns.  The package's receiver-major loop
    must give the same verdict, worst link and margin, bit for bit.
    """
    member_list = sorted(set(members))
    p = inst.params
    M = np.array(member_list, dtype=np.intp)
    lengths = inst.lengths[M][:, None]
    aff = np.empty(len(M))
    interference = np.empty(len(M))
    for cols in kernel.blocks(len(M), len(M)):
        d = _column_dist(inst, inst.senders[M], inst.receivers[M[cols]])
        own = M[:, None] == M[None, cols]
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            t = np.float_power(lengths / d, p.alpha)
            r = p.c_l * np.exp(p.alpha * np.log(lengths / d))
        t[d == 0.0] = np.inf
        t[own] = r[own] = 0.0
        aff[cols] = _column_sums(t)
        interference[cols] = _column_sums(r)
    thr = p.affectance_threshold()
    feasible = bool(rel_leq_array(aff, thr).all())
    raw_feasible = bool(rel_leq_array(p.beta * interference, p.c_l - p.beta * p.noise).all())
    window = np.finfo(float).eps * ((1.0 / p.beta + p.noise / p.c_l) / thr + 64)
    near_edge = abs(aff.max() / (thr * (1.0 + REL_TOL)) - 1.0) <= window
    if feasible != raw_feasible and not near_edge:
        raise InternalError(f"raw SINR and affectance-form verdicts diverged on slot {member_list}")
    margins = thr - aff
    worst = int(np.argmin(margins))
    return feasible, member_list[worst], float(margins[worst])


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


def greedy_schedule_columns(inst: Instance, cfg: SchedulerConfig) -> Schedule:
    """First-fit greedy with one kernel column and one bincount per link.

    For each link, the column holds the terms of every link placed before it,
    and the bincount over their slots adds up the load in every slot at once,
    in placement order.  The package takes a block of columns at a time and
    must admit every link exactly as this loop does.
    """
    thr = cfg.admit_threshold(inst.params.alpha)
    order = _processing_order(inst)
    S, L = kernel.coords(inst, inst.senders[order]), inst.lengths[order]
    slot_of = np.empty(inst.n, dtype=np.intp)  # slot of the link at each position
    slots: list[list[int]] = []
    for i, v in enumerate(order.tolist()):
        column = kernel.terms(inst, S[:i], L[:i], kernel.coords(inst, inst.receivers[v : v + 1]))[0]
        loads = np.bincount(slot_of[:i], weights=column, minlength=len(slots))
        fits = np.flatnonzero(rel_leq_array(loads, thr))
        k = int(fits[0]) if len(fits) else len(slots)
        if k == len(slots):
            slots.append([])
        slots[k].append(v)
        slot_of[i] = k
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


def zeta_reference(values: Iterable[int], n: int, op) -> list[int]:
    """The subset-sum transform one mask at a time, as Python ints.

    For each bit in turn, every mask that holds it becomes
    ``op(a[mask], a[mask without the bit])``; ``operator.sub`` gives the
    Moebius transform.
    """
    a = list(values)
    for k in range(n):
        for mask in range(1 << n):
            if mask >> k & 1:
                a[mask] = op(a[mask], a[mask ^ (1 << k)])
    return a


def partition_half(values: list[int]) -> list[int] | None:
    """The indices of one half of an equal-sum split of ``values``, or None.

    The reachable sums up to half the total are kept as a set per prefix;
    the half is read back from the last value, taking a value only when
    the sum still to be found is not reachable without it.
    """
    total = sum(values)
    if total % 2:
        return None
    half = total // 2
    reach = [{0}]  # reach[i] holds the sums up to half achievable from values[:i]
    for x in values:
        reach.append(reach[-1] | {s + x for s in reach[-1] if s + x <= half})
    if half not in reach[-1]:
        return None
    picked: list[int] = []
    remaining = half
    for i in range(len(values), 0, -1):
        if remaining in reach[i - 1]:
            continue  # achievable without values[i-1]
        picked.append(i - 1)
        remaining -= values[i - 1]
    if remaining != 0:
        raise InternalError(f"partition reconstruction left {remaining} of the half sum")
    picked.reverse()
    return picked


def subset_table_elementwise(inst: Instance, cap: int) -> np.ndarray:
    """The feasibility bit of every link subset, one high pattern at a time.

    Same split and same half-table products as ``subset_table``, with a
    saturated (+inf) term counted apart; each pattern adds its load row to
    the low table and every member's load is tested with ``rel_leq_array``.
    """
    n = inst.n
    _check_cap(n, cap)
    thr = inst.params.affectance_threshold()
    if n == 0:
        return np.ones(1, dtype=bool)
    t = _term_matrix(inst)
    saturated = np.isinf(t)
    t[saturated] = 0.0
    w = min(n, max(1, n - 15, (kernel.BLOCK // n).bit_length() - 1))
    lo_bits, hi_bits = _bit_matrix(w), _bit_matrix(n - w)
    lo_load, lo_inf = (lo_bits @ t[:w]).T, (lo_bits @ saturated[:w]).T
    hi_load, hi_inf = hi_bits @ t[w:], hi_bits @ saturated[w:]
    feasible = np.empty((len(hi_load), 1 << w), dtype=bool)
    for h in range(len(hi_load)):
        load = lo_load + hi_load[h][:, None]  # load[v, i]: on link v from the mask (h, i)
        load[(lo_inf + hi_inf[h][:, None]) > 0] = np.inf
        member = np.concatenate((lo_bits.T, np.repeat(hi_bits[h][:, None], 1 << w, axis=1))) > 0
        feasible[h] = (rel_leq_array(load, thr) | ~member).all(axis=0)
    return feasible.reshape(-1)


def metric_complete_loop(specified: list[tuple[int, int, float]], n_nodes: int) -> np.ndarray:
    """``hardness.metric_complete`` one pair at a time: same matrix, same errors."""
    d = np.full((n_nodes, n_nodes), np.inf)
    np.fill_diagonal(d, 0.0)
    seen: dict[tuple[int, int], float] = {}
    for p, q, value in specified:
        if not (0 <= p < n_nodes and 0 <= q < n_nodes):
            raise ValueError(f"specified pair ({p},{q}) out of range for {n_nodes} nodes")
        if value < 0:
            raise ValueError(f"specified distance d({p},{q}) = {value!r} is negative")
        if p == q:
            if value != 0.0:
                raise ValueError(f"d({p},{p}) specified as {value!r}, must be 0")
            continue
        key = (min(p, q), max(p, q))
        if key in seen and seen[key] != value:
            raise ValueError(
                f"conflicting specifications for pair {key}: "
                f"{seen[key]!r} vs {value!r}"
            )
        seen[key] = value
        d[p, q] = value
        d[q, p] = value
    for k in range(n_nodes):
        np.minimum(d, d[:, k : k + 1] + d[k : k + 1, :], out=d)
    if np.isinf(d).any():
        p, q = map(int, np.argwhere(np.isinf(d))[0])
        raise ValueError(
            f"nodes {p} and {q} are not connected by any specified distances"
        )
    for (p, q), value in seen.items():
        if not math.isclose(d[p, q], value, rel_tol=REL_TOL):
            raise ValueError(
                f"completion shortens specified d({p},{q}) from {value!r} "
                f"to {float(d[p, q])!r}; the specified distances violate the "
                "triangle inequality"
            )
    return d


def reduction_pairs_loop(a: list[int], alpha: float, beta: float) -> list[tuple[int, int, float]]:
    """``build_reduction``'s forced distances as ``(p, q, value)`` triples, in its former order."""
    b = pad_partition(a)
    n = len(b)
    total = sum(b)

    def s(i: int) -> int:
        return i

    def r(i: int) -> int:
        return n + 2 + i

    end_length = 3.0 ** (-1.0 / alpha)
    d_to_end = [0.0] + [
        (beta * total / (2.0 * b[i - 1])) ** (1.0 / alpha) for i in range(1, n + 1)
    ]
    specified: list[tuple[int, int, float]] = []
    specified.append((s(0), r(0), end_length))
    specified.append((s(n + 1), r(n + 1), end_length))
    specified.append((r(0), r(n + 1), 0.0))
    for i in range(1, n + 1):
        specified.append((s(i), r(i), 1.0))
        specified.append((s(i), r(0), d_to_end[i]))
        specified.append((s(i), r(n + 1), d_to_end[i]))
        specified.append((s(0), r(i), d_to_end[i] + 1.0))
        specified.append((s(n + 1), r(i), d_to_end[i] + 1.0))
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i != j:
                specified.append((s(i), r(j), 1.0 + d_to_end[i] + d_to_end[j]))
    return specified


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


def _dumps_reference(doc: dict) -> str:
    try:
        return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError:
        raise FormatError(
            "cannot save a NaN or infinite number, which JSON cannot represent "
            "(is a coordinate or distance beyond the float range?)"
        ) from None


def save_instance_reference(inst: Instance) -> str:
    if isinstance(inst.metric, EuclideanMetric):
        metric_doc = {
            "type": "euclidean",
            "dim": inst.metric.dim,
            "points": inst.metric.points.tolist(),
        }
    else:
        metric_doc = {"type": "matrix", "d": inst.metric.d.tolist()}
    doc = {
        "schema": SCHEMA,
        "params": asdict(inst.params),
        "metric": metric_doc,
        "links": [
            {"id": i, "sender": p, "receiver": q}
            for i, (p, q) in enumerate(zip(inst.senders.tolist(), inst.receivers.tolist()))
        ],
    }
    return _dumps_reference(doc)


def save_schedule_reference(sched: Schedule) -> str:
    return _dumps_reference({"schema": SCHEMA, "slots": [sorted(slot) for slot in sched.slots]})


def number_rows_reference(rows: list, name: str, width: int | None, expected: str) -> list[list[float]]:
    """Every row checked to be a list of ``width`` numbers, and each number on its own."""
    out = []
    for i, row in enumerate(rows):
        where = f"{name}[{i}]"
        row = _checked(row, list, where)
        if width is None:
            width = len(row)
        if len(row) != width:
            raise FormatError(f"{where} has {len(row)} {expected.format(width)}")
        out.append([_checked(x, float, where) for x in row])
    return out


def load_schedule_reference(text: str) -> Schedule:
    where = "schedule document"
    doc = _document(text, where, {"schema", "slots"})
    slots = []
    for i, slot_raw in enumerate(_field(doc, "slots", where, list, "slots")):
        slot_raw = _checked(slot_raw, list, f"slots[{i}]")
        slot = frozenset(_checked(x, int, f"slots[{i}]") for x in slot_raw)
        if len(slot) != len(slot_raw):
            repeated = next(x for k, x in enumerate(slot_raw) if x in slot_raw[:k])
            raise FormatError(f"slots[{i}] repeats link id {repeated}")
        slots.append(slot)
    return Schedule(slots=tuple(slots))
