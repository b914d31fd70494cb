"""Interference measure and schedule-length bound reports.

The interference at a node p from a link set S sums, over every sender in
S, the smaller of 1 and (link length / distance to p)^alpha.  Its maximum
over the instance's nodes is a lower bound (up to a constant factor) on the
optimal schedule length under linear powers, and the greedy schedule length
is always below c^alpha * I + 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from . import kernel
from .model import REL_TOL, Instance, Schedule, check_partition
from .scheduler import SchedulerConfig


def _capped_sums(W: np.ndarray, X: np.ndarray, inst: Instance) -> np.ndarray:
    """Interference of the senders of W at each node of X, terms capped at 1."""
    t = kernel.terms(inst, W, X)
    return kernel.ascending_sums(np.minimum(t, 1.0, out=t))


def interference_at(p: int, members: Iterable[int], inst: Instance) -> float:
    """Capped relative interference of the given links' senders at node p.

    Every summand lies in [0, 1]; a sender located at p contributes exactly 1.
    """
    W = np.fromiter(members, dtype=np.intp)
    return float(_capped_sums(W, np.array([p], dtype=np.intp), inst)[0])


def interference_measure(members: Iterable[int], inst: Instance) -> tuple[float, int]:
    """Maximum interference over all sender and receiver nodes.

    Returns (value, argmax node index); ties go to the smallest node index.
    The evaluation points are all nodes used by the instance, not just the
    nodes of ``members``.  Computed a block of nodes at a time.
    """
    member_list = sorted(set(members))
    if not member_list:
        raise ValueError("interference_measure requires a nonempty link set")
    W = np.array(member_list, dtype=np.intp)
    nodes = inst.used_nodes()
    values = np.empty(len(nodes))
    for cols in kernel.blocks(len(nodes), len(W)):
        values[cols] = _capped_sums(W, nodes[cols], inst)
    best = int(np.argmax(values))  # first maximum: the smallest node index
    return float(values[best]), int(nodes[best])


@dataclass(frozen=True)
class BoundReport:
    """Schedule length against the interference-based counting bound."""

    schedule_length: int
    I_value: float
    argmax_node: int
    upper_bound: float  # c^alpha * I + 1
    bound_holds: bool
    ratio_vs_exact: float | None = None


def bound_report(
    inst: Instance,
    sched: Schedule,
    cfg: SchedulerConfig,
    exact_length: int | None = None,
) -> BoundReport:
    """Build the counting-bound report for a valid schedule.

    ``exact_length``, when supplied from the exact oracle, fills in the
    achieved approximation ratio.  Raises ValueError on non-partitions.
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
            ratio_vs_exact=None,
        )
    i_value, argmax_node = interference_measure(range(inst.n), inst)
    upper = cfg.c ** inst.params.alpha * i_value + 1.0
    holds = sched.length < cfg.c ** inst.params.alpha * i_value * (1.0 + REL_TOL) + 1.0
    ratio = None
    if exact_length is not None:
        if exact_length <= 0:
            raise ValueError(f"exact_length must be positive, got {exact_length}")
        ratio = sched.length / exact_length
    return BoundReport(
        schedule_length=sched.length,
        I_value=i_value,
        argmax_node=argmax_node,
        upper_bound=upper,
        bound_holds=holds,
        ratio_vs_exact=ratio,
    )
