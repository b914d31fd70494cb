"""SINR link scheduling with linear power assignments.

Schedules wireless communication links under the physical (SINR)
interference model when each sender transmits at the minimum power for
standalone success.  Provides a greedy constant-factor scheduler, an
interference-based lower-bound report, an exact small-instance oracle, and
an adversarial instance builder driven by number partitioning.

The names below are the ones README's "Library use" shows; everything else
is imported from its module (``linsched.sinr``, ``linsched.kernel``, ...).
"""

from .bounds import bound_report
from .gen import GenSpec, random_euclidean
from .hardness import build_reduction, verify_reduction
from .model import (
    EuclideanMetric,
    FormatError,
    Instance,
    PhysicalParams,
    load_instance,
    load_schedule,
    save_instance,
    save_schedule,
    validate_instance,
)
from .oracle import optimal_schedule
from .scheduler import SchedulerConfig, greedy_schedule
from .sinr import schedule_feasible

__all__ = [
    "EuclideanMetric",
    "FormatError",
    "GenSpec",
    "Instance",
    "PhysicalParams",
    "SchedulerConfig",
    "bound_report",
    "build_reduction",
    "greedy_schedule",
    "load_instance",
    "load_schedule",
    "optimal_schedule",
    "random_euclidean",
    "save_instance",
    "save_schedule",
    "schedule_feasible",
    "validate_instance",
    "verify_reduction",
]
