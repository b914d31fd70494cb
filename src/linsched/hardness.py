"""Adversarial scheduling instances built from number-partition inputs.

Given a PARTITION input A, the builder pads it so every original element is
tiny relative to the total, then lays out one link per padded element plus
two "end" links whose receivers sit at distance zero from each other.  The
distances are tuned so that the middle links affect each end link by
exactly 2/beta in total: the whole set fits in two slots precisely when the
padded multiset splits into two equal-sum halves.  Link lengths stay within
a constant factor of each other (ratio 3^(1/alpha)), so the construction
stays inside the equal-length-class scheduling problem.

Only a subset of the pairwise distances is forced by the construction; the
rest are completed by shortest-path closure, with a hard check that the
closure does not shorten any forced distance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernel
from .model import REL_TOL, Instance, MatrixMetric, PhysicalParams
from .oracle import DEFAULT_CAP, partition_solve, two_slot_decision
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
    construction.  Raises ValueError if two specifications of the same pair
    conflict, if any node is unreachable, or if the closure shortens a
    specified distance by more than 1e-9 relative (the construction would be
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
                f"conflicting specifications for pair {key}: "
                f"{seen[key]!r} vs {value!r}"
            )
        seen[key] = value
        d[p, q] = value
        d[q, p] = value
    # Floyd-Warshall; written out because zero-weight edges are legitimate
    # here and must behave as real edges.
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
    b = pad_partition(a)
    n = len(b)
    total = sum(b)
    n_nodes = 2 * n + 4

    def s(i: int) -> int:
        return i

    def r(i: int) -> int:
        return n + 2 + i

    end_length = 3.0 ** (-1.0 / alpha)
    # Sender-to-end-receiver distance for middle link i, tuned so the term
    # it contributes to an end link is exactly 2*b[i-1]/(beta*total).
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
    if not all(math.isfinite(value) for _, _, value in specified):
        raise ValueError(
            f"beta*sum(B) = {beta * total!r} is too large: the sender-to-end-receiver "
            "distances tuned from it overflow the float range"
        )

    matrix = metric_complete(specified, n_nodes)
    ids = np.arange(n + 2)
    instance = Instance(
        metric=MatrixMetric(d=matrix), senders=s(ids), receivers=r(ids), params=params
    )
    node_map = {f"s{i}": s(i) for i in range(n + 2)}
    node_map.update({f"r{i}": r(i) for i in range(n + 2)})
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
    t = kernel.terms(inst, np.arange(n + 2), inst.receivers[[0, n + 1]])
    a_first, a_last = kernel.ascending_sums(t[1 : n + 1]).tolist()
    identity_ok = all(math.isclose(a, expected, rel_tol=REL_TOL) for a in (a_first, a_last))
    mutual = float(t[0, 1])
    middle_ok = slot_feasible(middle, inst).feasible

    notes = []
    two_slot: bool | None = None
    partition_yes: bool | None = None
    equivalence: bool | None = None
    skipped = inst.n > cap
    if skipped:
        notes.append(
            f"oracle skipped: {inst.n} links exceed the cap {cap}; "
            "two-slot equivalence not checked"
        )
    else:
        two_slot = two_slot_decision(inst, cap)
        partition_yes = partition_solve(list(art.original_a)) is not None
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
