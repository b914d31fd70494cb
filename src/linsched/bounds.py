"""Interference measure and schedule-length bound reports.

The interference at a node p from a link set S sums, over every sender in
S, the smaller of 1 and (link length / distance to p)^alpha.  Its maximum
over the instance's nodes is a lower bound (up to a constant factor) on the
optimal schedule length under linear powers, and the greedy schedule length
is always below c^alpha * I + 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from . import kernel
from .model import REL_TOL, Instance, Schedule, check_partition
from .scheduler import SchedulerConfig


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
        t = kernel.terms(inst, W, nodes[cols])
        values[cols] = kernel.ascending_sums(np.minimum(t, 1.0, out=t))  # terms capped at 1
    best = int(np.argmax(values))  # first maximum: the smallest node index
    return float(values[best]), int(nodes[best])


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
