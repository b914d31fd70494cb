"""Interference measure and schedule-length bound reports.

The interference at a node p from a link set S sums, over every sender in
S, the smaller of 1 and (link length / distance to p)^alpha.  Its maximum
over the instance's nodes is a lower bound (up to a constant factor) on the
optimal schedule length under linear powers, and the greedy schedule length
is always below c^alpha * I + 1.

``interference_measure`` finds the maximum by branch and bound, with the
same value and argmax as summing every node.  Terms decay as
(len_w / d)^alpha, the ball-growth argument behind the counting bound, so a
grid bounds them cheaply away from a node:

- Senders are bucketed in fine cells of side R, a power of two from 8 to 16
  times the longest member length, and in coarse cells of 8x8 fine cells.
- The near field of a node is the senders in its 3x3 block of fine cells,
  taken as one flat list of (node, sender) pairs without padding.  Each
  pair's cheap term C from the kernel (``kernel.cheap_distances`` and
  ``kernel.cheap_power``) gives C(1 + rel) + tiny and C(1 - rel) - tiny,
  with rel and tiny from ``kernel.cheap_bound``, both capped at 1, and
  bincounts sum them per node, a block of pairs at a time.
- A node's upper bound is its raised near sum plus, for every occupied
  coarse cell, count * min(1, (longest length / max(R, distance to the
  cell))^alpha).  A sender outside the 3x3 block is at least R away; the
  near senders are counted twice, which keeps the bound an upper bound.
  Its lower bound is its lowered near sum: every other term is at least 0.
- The upper bound is raised, and the lower one lowered, by a relative 1e-9
  plus 4*n*eps.  Sums of n nonnegative terms err by at most n*eps
  relative, and an ulp in a box distance moves a far term by about
  alpha*eps relative; far terms are at most 8^-alpha each, and the best
  sum is at least 1 by the time the scan can stop.  ``_node_bounds``
  covers the cheap terms.
- Nodes whose upper bound lies below the largest lower bound are below that
  node's exact sum and are skipped.  The others are summed exactly, a block
  at a time, by falling upper bound, until the next one is strictly below
  the best exact sum.  Every node left out has a smaller value, so ties
  still go to the smallest index.

Instances small enough that one block of the exact pass holds every node,
matrix metrics, dimensions other than 1 to 3, coordinates the grid cannot
index and dense clusters, where the near field holds more than half of all
(sender, node) pairs, get the bounds -inf and +inf everywhere, and the same
loop sums every node.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from . import kernel
from .model import REL_TOL, Instance, MatrixMetric, Schedule, check_partition
from .scheduler import SchedulerConfig


def interference_measure(members: Iterable[int], inst: Instance) -> tuple[float, int]:
    """Maximum interference over all sender and receiver nodes.

    Returns (value, argmax node index); ties go to the smallest node index.
    The evaluation points are all nodes used by the instance, not just the
    nodes of ``members``.  Nodes whose upper bound lies below the largest
    lower bound are left out; the rest are summed exactly a block at a time,
    in order of falling upper bound, until no bound left can reach the best
    sum.
    """
    member_list = sorted(set(members))
    if not member_list:
        raise ValueError("interference_measure requires a nonempty link set")
    W = np.array(member_list, dtype=np.intp)
    nodes = inst.used_nodes()
    lower, upper = _node_bounds(inst, W, nodes)
    # A node left out is below the exact sum of the node with the largest
    # lower bound, whose upper bound keeps it in.
    (kept,) = np.nonzero(upper >= lower.max())
    order = kept[np.argsort(-upper[kept], kind="stable")]  # ties, and all +inf, in node order
    S, L = kernel.coords(inst, inst.senders[W]), inst.lengths[W]
    X = kernel.coords(inst, nodes[order])
    values = np.full(len(nodes), -np.inf)
    best = -np.inf
    for cols in kernel.blocks(len(order), len(W)):
        picked = order[cols]
        t = kernel.terms(inst, S, L, X[cols])
        values[picked] = kernel.ascending_sums(np.minimum(t, 1.0, out=t))  # terms capped at 1
        best = max(best, values[picked].max())
        if cols.stop < len(order) and upper[order[cols.stop]] < best:
            break
    top = int(np.argmax(values))  # first maximum: the smallest node index
    return float(values[top]), int(nodes[top])


def _node_bounds(inst: Instance, W: np.ndarray, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(lower, upper): bounds on the interference from links W at each of ``nodes``.

    -inf and +inf everywhere, which makes ``interference_measure`` a full
    scan, when one block of the exact pass holds every node (no bound could
    skip one), the metric is a matrix, the dimension is not 1 to 3, the grid
    cannot index the points, or the near field holds more than half of all
    pairs.
    """
    unbounded = np.full(len(nodes), -np.inf), np.full(len(nodes), np.inf)
    if next(kernel.blocks(len(nodes), len(W))).stop == len(nodes):
        return unbounded
    metric = inst.metric
    if isinstance(metric, MatrixMetric) or metric.dim not in (1, 2, 3):
        return unbounded
    lengths = inst.lengths[W]
    lmax = float(lengths.max())
    if not 0.0 < lmax < math.inf:
        return unbounded
    # Fine cells of side R, a power of two from 8*lmax to 16*lmax: dividing by
    # it is exact, so a cell holds exactly the points of [i*R, (i+1)*R) on
    # each axis.  Scaling the points by a power of two scales R with them.
    exponent = math.frexp(lmax)[1] + 3
    if exponent > 1023:  # 2^exponent is beyond the float range
        return unbounded
    R = math.ldexp(1.0, exponent)
    senders, points = metric.points[inst.senders[W]], metric.points[nodes]
    with np.errstate(over="ignore", invalid="ignore"):
        cells = np.floor(np.concatenate((senders, points)) / R)
    if not (np.abs(cells) <= 2.0**52).all():  # also catches inf and NaN
        return unbounded
    cells = cells.astype(np.int64)
    cells -= cells.min(axis=0) - 1  # every cell and its neighbours in [0, side)
    side = int(cells.max()) + 2
    if side**metric.dim > 2**62:
        return unbounded
    radix = side ** np.arange(metric.dim, dtype=np.int64)
    # Cell ids run along axis 0 first, so the three cells x-1, x, x+1 of a row
    # have consecutive ids and hold one contiguous run of the sorted senders.
    ids = cells @ radix
    sender_ids, node_ids = ids[: len(W)], ids[len(W):]
    by_cell = np.argsort(sender_ids, kind="stable")
    sorted_ids = sender_ids[by_cell]
    # Runs of the senders sorted by cell: one per occupied fine cell of a
    # node (ascending ids, so that each search is quick) and row of cells.
    _, one_node, cell_of_node = np.unique(node_ids, return_index=True, return_inverse=True)
    rows = np.array(list(itertools.product((-1, 0, 1), repeat=metric.dim - 1)), dtype=np.int64)
    row_ids = node_ids[one_node] + (rows @ radix[1:])[:, None]
    starts = np.searchsorted(sorted_ids, row_ids - 1, side="left")
    counts = np.searchsorted(sorted_ids, row_ids + 1, side="right") - starts
    starts, counts = starts[:, cell_of_node].T.ravel(), counts[:, cell_of_node].T.ravel()
    # Past half the full scan's pairs, the near field costs about as much as
    # the exact sums it could save.
    if 2 * int(counts.sum()) > len(nodes) * len(W):
        return unbounded
    near_high, near_low = _near_sums(inst, W, nodes, by_cell, starts, counts)
    # Coarse cells of 8x8 fine cells: each is summarised by its senders'
    # count, longest length and bounding box.  A sender outside a node's
    # 3x3 fine block is at least R away from it, and no sender is nearer
    # than its box is to the node's fine cell; near senders are counted
    # again, which only raises the bound.  Nodes in one fine cell share it.
    alpha = inst.params.alpha
    coarse = (cells[: len(W)] // 8) @ radix
    by_coarse = np.argsort(coarse, kind="stable")
    first = np.flatnonzero(np.diff(coarse[by_coarse], prepend=-1))
    grouped = senders[by_coarse]
    low = np.minimum.reduceat(grouped, first, axis=0)
    high = np.maximum.reduceat(grouped, first, axis=0)
    box_lmax = np.maximum.reduceat(lengths[by_coarse], first)
    box_count = np.diff(first, append=len(W))
    cell_low = np.floor(points[one_node] / R) * R
    cell_high = cell_low + R
    far = np.empty(len(one_node))
    for cols in kernel.blocks(len(one_node), len(first) * metric.dim):
        gap = low - cell_high[cols, None]
        np.maximum(gap, cell_low[cols, None] - high, out=gap)
        dmin = kernel.euclid(np.maximum(gap, 0.0, out=gap), np.zeros(metric.dim))
        t = np.power(box_lmax / np.maximum(dmin, R), alpha)
        far[cols] = (box_count * np.minimum(t, 1.0)).sum(axis=1)
    # The margin covers rounding.  Sums of n nonnegative terms err by at
    # most n*eps relative, in the exact pass and here alike.  A near term
    # moved by ``kernel.cheap_bound`` holds its exact term, capped at 1,
    # between its two moves: rel is twice the proven relative bound and
    # tiny twice the underflow threshold, which covers the float64 rounding
    # of C*(1 +- rel) +- tiny, and a cheap term above huge has an exact term
    # above 1, capped to 1 like both of its moves.  A box distance an ulp
    # off moves a far term by about alpha*eps relative, and a far term is
    # below 8^-alpha while the best exact sum is at least 1 when the scan
    # stops: member senders are nodes whose own term is 1, and their bounds
    # put them ahead of any stop.  A NaN cheap term (0/0) gives its node no
    # bound: +inf above and 0 below.
    slack = 1e-9 + 4 * len(W) * np.finfo(float).eps
    upper = (near_high + far[cell_of_node]) * (1.0 + slack)
    upper[np.isnan(upper)] = np.inf
    return np.fmax(near_low * (1.0 - slack), 0.0), upper


def _near_sums(
    inst: Instance, W: np.ndarray, nodes: np.ndarray, by_cell: np.ndarray,
    starts: np.ndarray, counts: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Each node's sums over its near senders of the cheap terms, raised
    and lowered by ``kernel.cheap_bound`` and capped at 1.

    Node i's near senders are W[by_cell[starts[k] : starts[k] + counts[k]]]
    over its runs k, a run for each row of its block of fine cells.  The
    (node, sender) pairs are taken flat, a block of pairs at a time.
    """
    ends = np.cumsum(counts)
    offset = starts - (ends - counts)  # pair q of run k is the sender at q + offset[k]
    runs_per_node = len(counts) // len(nodes)
    CS, CX = kernel.cheap_coords(inst, inst.senders[W]), kernel.cheap_coords(inst, nodes)
    weights = kernel.cheap_weights(inst, inst.lengths[W])[0]
    rel, tiny, _ = kernel.cheap_bound(inst)
    high, low = np.zeros(len(nodes)), np.zeros(len(nodes))
    for part in kernel.blocks(int(ends[-1]), 2 * inst.metric.dim):
        pairs = np.arange(part.start, part.stop)
        run = np.searchsorted(ends, pairs, side="right")
        s, p = by_cell[pairs + offset[run]], run // runs_per_node
        D = kernel.cheap_distances(inst, np.take(CS, s, axis=-1)[..., None], np.take(CX, p, axis=-1))
        C = kernel.cheap_power(inst, D, weights[s, None])[:, 0]
        for sums, sign in ((high, 1.0), (low, -1.0)):
            moved = np.multiply(C, 1.0 + sign * rel, dtype=np.float64)
            moved += sign * tiny
            sums += np.bincount(p, np.minimum(moved, 1.0, out=moved), minlength=len(nodes))
    return high, low


@dataclass(frozen=True)
class BoundReport:
    """Schedule length against the interference-based counting bound."""

    schedule_length: int
    I_value: float
    argmax_node: int
    upper_bound: float | None  # c^alpha * I + 1; None beyond the float range
    bound_holds: bool


def bound_report(
    inst: Instance,
    sched: Schedule,
    cfg: SchedulerConfig,
) -> BoundReport:
    """Build the counting-bound report for a valid schedule.

    Raises ValueError on non-partitions.
    """
    problems = check_partition(sched, inst)
    if problems:
        raise ValueError(f"invalid schedule: {problems[0]}")
    if inst.n == 0:
        return BoundReport(
            schedule_length=0,
            I_value=0.0,
            argmax_node=-1,
            upper_bound=1.0,
            bound_holds=True,
        )
    i_value, argmax_node = interference_measure(range(inst.n), inst)
    try:
        scaled = cfg.c ** inst.params.alpha * i_value  # inf once the product overflows
    except OverflowError:  # c^alpha alone is beyond the float range
        scaled = math.inf
    upper = scaled + 1.0
    holds = sched.length < scaled * (1.0 + REL_TOL) + 1.0
    return BoundReport(
        schedule_length=sched.length,
        I_value=i_value,
        argmax_node=argmax_node,
        upper_bound=upper if math.isfinite(upper) else None,
        bound_holds=holds,
    )
