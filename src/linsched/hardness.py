"""Adversarial scheduling instances built from number-partition inputs.

Given a PARTITION input A, the builder pads it so every original element is
tiny relative to the total, then lays out one link per padded element plus
two "end" links whose receivers sit at distance zero from each other.  The
distances are tuned so that the middle links affect each end link by
exactly 2/beta in total: the whole set fits in two slots precisely when the
padded multiset splits into two equal-sum halves.  Link lengths stay within
a constant factor of each other (ratio 3^(1/alpha)), so the construction
stays inside the equal-length-class scheduling problem.

Only the sender-receiver distances are forced by the construction; they
are written as numpy blocks and the rest are completed by shortest-path
closure, a Floyd-Warshall split at the senders (``_closed``, shared with
``metric_complete``), with a hard check that the closure does not shorten
any forced distance.  ``encoding_problem`` is the one rule for when a built
instance fails to encode its input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernel
from .model import REL_TOL, Instance, MatrixMetric, PhysicalParams
from .oracle import DEFAULT_CAP, check_cap, partition_solve, two_slot_decision
from .sinr import slot_feasible

_INT64_MAX = 2**63 - 1


def pad_partition(a: list[int]) -> list[int]:
    """Pad a PARTITION input with 2|A| copies of |A|^2 * max(A).

    The result b has |b| = 3|A|, contains a as a prefix, and splits into two
    equal-sum halves iff a does: each padded element is at least sum(a), so
    any balanced split must place exactly |A| padded elements on each side.
    Every original element ends up at most 1/(2|A|^3) of the new total and
    every padded element at most 1/(2|A|).
    """
    if not a:
        raise ValueError("pad_partition requires a nonempty input")
    for x in a:
        if not isinstance(x, int) or isinstance(x, bool) or x <= 0:
            raise ValueError(f"PARTITION values must be positive integers, got {x!r}")
    pad_value = len(a) ** 2 * max(a)
    b = list(a) + [pad_value] * (2 * len(a))
    if sum(b) > _INT64_MAX:
        raise ValueError("padded total exceeds 64-bit range")
    return b


def metric_complete(specified: list[tuple[int, int, float]], n_nodes: int) -> np.ndarray:
    """Complete partial distances into a full pseudometric matrix (a float array).

    Runs all-pairs shortest paths over the graph whose edges are exactly the
    specified pairs, so symmetry and the triangle inequality hold by
    construction.  Raises ValueError at the first pair in list order that is
    out of range, negative, a nonzero diagonal or in conflict with the pair's
    previous specification; a pair specified more than once takes its last
    value.  Also raises if any node is unreachable, or if the closure shortens
    a specified distance by more than 1e-9 relative (the construction would be
    inconsistent).
    """
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
                f"conflicting specifications for pair {key}: {seen[key]!r} vs {value!r}"
            )
        seen[key] = value
        d[p, q] = d[q, p] = value  # a non-integer id fails here, as an index
    lo, hi = np.array(list(seen), dtype=np.intp).reshape(-1, 2).T
    values = list(seen.values())
    return _closed(d, 0, lo, hi, np.array(values, dtype=float), values.__getitem__)


def _closed(d: np.ndarray, m: int, lo, hi, forced: np.ndarray, spelled) -> np.ndarray:
    """Close the symmetric edge matrix ``d`` in place by Floyd-Warshall, then check it.

    Floyd-Warshall is written out because zero-weight edges are legitimate
    here and must behave as real edges.  No edge joins two of the nodes
    0..m-1, so with A, B, C = d[:m, :m], d[:m, m:], d[m:, m:] every entry
    gets the bits of the full passes ``d = minimum(d, d[:, k] + d[k, :])``:
    a pass k < m adds inf to all of A and B but row k, so it only relaxes C
    by row k of B, which no earlier pass changed, and on row k itself it
    takes ``minimum(x, 0.0 + x)``, which is x for every x but -0.0 and NaN.
    B holds neither: ``metric_complete`` does not split (m = 0), and
    ``build_reduction``'s B holds its finite positive forced distances and
    +inf.  A pass k >= m relaxes A, B and C from a snapshot of row k read
    above the split: ``min`` is exact and fl(x + y) = fl(y + x), so d stays
    symmetric bit for bit and B.T is written once at the end.  Sums that
    overflow lose every ``min``, as unrounded ones would.  Raises ValueError
    if a node is unreachable or if the closure shortens a forced distance
    ``forced[i]`` of pair ``(lo[i], hi[i])`` by more than 1e-9 relative,
    naming the first such pair with ``spelled(i)``.
    """
    n_nodes = len(d)
    top, B, C = d[:m], d[:m, m:], d[m:, m:].copy()  # C contiguous: its rows are short
    via, via_top = np.empty_like(C), np.empty_like(top)
    with np.errstate(over="ignore"):
        for k in range(m):
            np.add(B[k, :, None], B[k], out=via)
            np.minimum(C, via, out=C)
        for k in range(m, n_nodes):
            row = np.concatenate((B[:, k - m], C[k - m]))
            np.add(row[:m, None], row, out=via_top)
            np.minimum(top, via_top, out=top)
            np.add(row[m:, None], row[m:], out=via)
            np.minimum(C, via, out=C)
    d[m:, m:] = C
    d[m:, :m] = B.T
    if np.isinf(d).any():
        p, q = map(int, np.argwhere(np.isinf(d))[0])
        raise ValueError(f"nodes {p} and {q} are not connected by any specified distances")
    # math.isclose(a, b, rel_tol=REL_TOL) elementwise, for a closure with no inf
    a, b = d[lo, hi], forced
    diff = np.abs(b - a)
    close = (a == b) | (
        ~np.isinf(b) & ((diff <= np.abs(REL_TOL * b)) | (diff <= np.abs(REL_TOL * a)))
    )
    if not close.all():
        i = int(np.argmin(close))
        pi, qi = int(lo[i]), int(hi[i])
        raise ValueError(
            f"completion shortens specified d({pi},{qi}) from {spelled(i)!r} "
            f"to {float(d[pi, qi])!r}; the specified distances violate the "
            "triangle inequality"
        )
    return d


@dataclass(frozen=True)
class ReductionArtifact:
    """A built adversarial instance plus its bookkeeping.

    Link 0 and link n+1 (n = number of padded values) are the end links;
    links 1..n carry the padded values in order.
    """

    original_a: tuple[int, ...]
    padded_b: tuple[int, ...]
    instance: Instance
    node_map: dict[str, int]
    sum_b: int


def build_reduction(a: list[int], alpha: float, beta: float) -> ReductionArtifact:
    """Build the scheduling instance encoding PARTITION input ``a``.

    Needs alpha > 1 and beta > 0.  The instance has 2n+4 nodes and n+2
    links, a matrix (pseudo)metric, zero noise, unit power coefficient.
    """
    params = PhysicalParams(alpha=alpha, beta=beta, noise=0.0, c_l=1.0, K=1.0, m=2.0)
    if not math.isfinite(2.0 / beta):
        raise ValueError(
            f"beta = {beta!r} is too small: the end-link affectance 2/beta overflows a float"
        )
    b = pad_partition(a)
    n = len(b)
    total = sum(b)
    m = n + 2  # senders s_i = i and receivers r_i = m + i, i = 0..n+1
    # Sender-to-end-receiver distance for middle link i, tuned so the term
    # it contributes to an end link is exactly 2*b[i-1]/(beta*total).
    D = np.array([(beta * total / (2.0 * x)) ** (1.0 / alpha) for x in b])
    d = np.full((2 * m, 2 * m), np.inf)
    np.fill_diagonal(d, 0.0)
    B = d[:m, m:]  # d(s_i, r_j), forced for all but (s_0, r_n+1) and (s_n+1, r_0)
    with np.errstate(over="ignore"):  # refused below
        B[1:-1, 1:-1] = (1.0 + D)[:, None] + D
        B[1:-1, 0] = B[1:-1, -1] = D
        B[0, 1:-1] = B[-1, 1:-1] = D + 1.0
    B[range(m), range(m)] = 1.0
    B[0, 0] = B[-1, -1] = 3.0 ** (-1.0 / alpha)  # the end links
    d[m, -1] = d[-1, m] = 0.0  # d(r_0, r_n+1), which no closure can shorten
    lo, hi = np.divmod(np.delete(np.arange(m * m), [m - 1, m * m - m]), m)
    forced = B[lo, hi]
    if not np.isfinite(forced).all():
        raise ValueError(
            f"beta*sum(B) = {beta * total!r} is too large: the sender-to-end-receiver "
            "distances tuned from it overflow the float range"
        )
    matrix = _closed(d, m, lo, m + hi, forced, lambda i: float(forced[i]))
    ids = np.arange(m)
    instance = Instance(
        metric=MatrixMetric(d=matrix), senders=ids, receivers=m + ids, params=params
    )
    node_map = {f"s{i}": i for i in range(m)}
    node_map.update({f"r{i}": m + i for i in range(m)})
    return ReductionArtifact(
        original_a=tuple(a),
        padded_b=tuple(b),
        instance=instance,
        node_map=node_map,
        sum_b=total,
    )


@dataclass(frozen=True)
class ReductionReport:
    """Measured properties of a built reduction instance.

    The middle-slot feasibility is measured, not assumed: for small inputs
    the all-middle-links slot can fail, in which case the two-slot
    equivalence is reported as not applicable rather than asserted.
    """

    affectance_on_end_links: tuple[float, float]
    expected_end_affectance: float
    identity_ok: bool
    mutual_end_term: float
    middle_slot_feasible: bool
    two_slot_schedulable: bool | None
    partition_solvable: bool | None
    equivalence_ok: bool | None
    oracle_skipped: bool
    notes: str


def verify_reduction(art: ReductionArtifact, cap: int = DEFAULT_CAP) -> ReductionReport:
    """Measure the invariants the construction is supposed to deliver.

    (i) each end link receives total affectance exactly 2/beta from the
    middle links; (ii) the slot of all middle links is feasible or not
    (measured); (iii) when (ii) holds and the instance fits the oracle cap,
    two-slot schedulability must coincide with the PARTITION answer.
    """
    inst = art.instance
    n = len(art.padded_b)
    middle = list(range(1, n + 1))
    expected = 2.0 / inst.params.beta
    # Terms of every link on the two end links, 0 and n+1.
    S, X = kernel.coords(inst, inst.senders), kernel.coords(inst, inst.receivers[[0, n + 1]])
    t = kernel.terms(inst, S, inst.lengths, X)
    a_first, a_last = kernel.ascending_sums(t[:, 1 : n + 1]).tolist()
    identity_ok = all(math.isclose(a, expected, rel_tol=REL_TOL) for a in (a_first, a_last))
    mutual = float(t[1, 0])
    middle_ok = slot_feasible(middle, inst).feasible

    notes = []
    two_slot: bool | None = None
    partition_yes: bool | None = None
    equivalence: bool | None = None
    skipped = inst.n > check_cap(cap)
    if skipped:
        notes.append(
            f"oracle skipped: {inst.n} links exceed the cap {cap}; "
            "two-slot equivalence not checked"
        )
    else:
        two_slot = two_slot_decision(inst, cap)
        partition_yes = partition_solve(list(art.original_a))
        if middle_ok:
            equivalence = two_slot == partition_yes
        else:
            notes.append(
                "middle slot infeasible at this input size; "
                "two-slot equivalence not applicable"
            )
    return ReductionReport(
        affectance_on_end_links=(a_first, a_last),
        expected_end_affectance=expected,
        identity_ok=identity_ok,
        mutual_end_term=mutual,
        middle_slot_feasible=middle_ok,
        two_slot_schedulable=two_slot,
        partition_solvable=partition_yes,
        equivalence_ok=equivalence,
        oracle_skipped=skipped,
        notes="; ".join(notes),
    )


def encoding_problem(art: ReductionArtifact, report: ReductionReport) -> str | None:
    """Why ``art``, measured by ``report``, does not encode its input, or None.

    The first of: the end links share a slot (each one's only load beside the other is
    their mutual term, exactly 1.0 as their receivers coincide, within the cut of 1/beta
    for beta <= 1), they miss 2/beta by more than 1e-9, or two slots contradict PARTITION.
    """
    p = art.instance.params
    at = f"alpha = {p.alpha!r}, beta = {p.beta!r}"
    if report.mutual_end_term <= kernel.rel_leq_cut(p.affectance_threshold()):
        return (
            f"{at} cannot be encoded: the end links' mutual term 1.0 fits under the cut of 1/beta, "
            "so they share a slot and every input with a feasible middle slot fits two slots"
        )
    if not report.identity_ok:
        return (
            f"{at} cannot be encoded: the end links receive {report.affectance_on_end_links} "
            f"from the middle links, not 2/beta = {report.expected_end_affectance!r}"
        )
    if report.equivalence_ok is False:
        answer = {True: "yes", False: "no"}
        return (
            f"--partition {','.join(map(str, art.original_a))!r} cannot be encoded at {at}: the "
            f"instance's two-slot answer is {answer[report.two_slot_schedulable]!r}, "
            f"PARTITION's is {answer[report.partition_solvable]!r}"
        )
    return None
