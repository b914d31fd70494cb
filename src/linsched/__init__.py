"""SINR link scheduling with linear power assignments.

Schedules wireless communication links under the physical (SINR)
interference model when each sender transmits at the minimum power for
standalone success.  Provides a greedy constant-factor scheduler, an
interference-based lower-bound report, an exact small-instance oracle, and
an adversarial instance builder driven by number partitioning.
"""

from .bounds import BoundReport, bound_report, interference_at, interference_measure
from .gen import GenSpec, SplitMix64, collocated, random_euclidean, spread
from .hardness import (
    ReductionArtifact,
    ReductionReport,
    build_reduction,
    metric_complete,
    pad_partition,
    verify_reduction,
)
from .model import (
    Diagnostic,
    EuclideanMetric,
    FormatError,
    Instance,
    InternalError,
    MatrixMetric,
    Metric,
    PhysicalParams,
    Schedule,
    check_partition,
    load_instance,
    load_schedule,
    save_instance,
    save_schedule,
    validate_instance,
)
from .oracle import (
    SubsetTable,
    optimal_schedule,
    partition_solve,
    subset_table,
    two_slot_decision,
)
from .scheduler import (
    SchedulerConfig,
    compute_c,
    compute_c0,
    greedy_schedule,
)
from .sinr import (
    FeasibilityReport,
    FeasibilityResult,
    affectance,
    affectance_term,
    schedule_feasible,
    slot_feasible,
)

__all__ = [
    "BoundReport",
    "Diagnostic",
    "EuclideanMetric",
    "FeasibilityReport",
    "FeasibilityResult",
    "FormatError",
    "GenSpec",
    "Instance",
    "InternalError",
    "MatrixMetric",
    "Metric",
    "PhysicalParams",
    "ReductionArtifact",
    "ReductionReport",
    "Schedule",
    "SchedulerConfig",
    "SplitMix64",
    "SubsetTable",
    "affectance",
    "affectance_term",
    "bound_report",
    "build_reduction",
    "check_partition",
    "collocated",
    "compute_c",
    "compute_c0",
    "greedy_schedule",
    "interference_at",
    "interference_measure",
    "load_instance",
    "load_schedule",
    "metric_complete",
    "optimal_schedule",
    "pad_partition",
    "partition_solve",
    "random_euclidean",
    "save_instance",
    "save_schedule",
    "schedule_feasible",
    "slot_feasible",
    "spread",
    "subset_table",
    "two_slot_decision",
    "validate_instance",
    "verify_reduction",
]
