"""Core data model: metrics, links, instances, schedules, validation, JSON I/O.

An instance is a set of communication links (sender/receiver node pairs)
embedded in a metric space, plus the physical-layer parameters that decide
which sets of links can transmit concurrently.  Two metric variants are
supported: explicit Euclidean coordinates and an explicit distance matrix.
The matrix variant may be a pseudometric (distinct nodes at distance zero),
which some adversarial constructions require.

All objects are immutable after construction and safe to share across
threads.  Validation never raises for domain problems; it returns a list of
diagnostics so callers can decide what is fatal.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

SCHEMA = "sinr-linsched/1"

# Default relative tolerance for all threshold comparisons.
REL_TOL = 1e-9


class FormatError(ValueError):
    """Raised for malformed or wrong-schema instance/schedule documents."""


class InternalError(RuntimeError):
    """Raised when two independent computations inside the package disagree."""


def _read_only(values, dtype) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.flags.writeable = False
    return arr


def rel_close(x: float, y: float, rel: float = REL_TOL) -> bool:
    if x == y:
        return True
    diff = abs(x - y)
    if math.isinf(diff):
        return False
    return diff <= rel * max(abs(x), abs(y))


@dataclass(frozen=True)
class EuclideanMetric:
    """Node positions as coordinate vectors in k-dimensional Euclidean space."""

    points: tuple[tuple[float, ...], ...]

    @property
    def n_nodes(self) -> int:
        return len(self.points)

    @property
    def dim(self) -> int:
        return len(self.points[0]) if self.points else 0

    def distance(self, p: int, q: int) -> float:
        return math.dist(self.points[p], self.points[q])

    @cached_property
    def array(self) -> np.ndarray:
        """The points as a read-only (nodes, dim) float array."""
        return _read_only(self.points, np.float64).reshape(self.n_nodes, self.dim)


@dataclass(frozen=True)
class MatrixMetric:
    """Explicit symmetric nonnegative distance matrix (pseudometric allowed)."""

    d: tuple[tuple[float, ...], ...]

    @property
    def n_nodes(self) -> int:
        return len(self.d)

    def distance(self, p: int, q: int) -> float:
        return self.d[p][q]

    @cached_property
    def array(self) -> np.ndarray:
        """The distances as a read-only (N, N) float array."""
        return _read_only(self.d, np.float64).reshape(self.n_nodes, self.n_nodes)


Metric = EuclideanMetric | MatrixMetric


def distance(metric: Metric, p: int, q: int) -> float:
    """Distance between nodes p and q, with index checking.

    Raises IndexError for out-of-range node indices.  Internal hot paths use
    the unchecked ``metric.distance`` method instead.
    """
    n = metric.n_nodes
    if not (0 <= p < n and 0 <= q < n):
        raise IndexError(f"node index out of range: p={p}, q={q}, n_nodes={n}")
    return metric.distance(p, q)


@dataclass(frozen=True)
class Link:
    """A communication request from a sender node to a receiver node."""

    id: int
    sender: int
    receiver: int


@dataclass(frozen=True)
class PhysicalParams:
    """Physical-layer parameters.

    alpha: path-loss exponent (> 1)
    beta:  SINR decoding threshold (> 0; guarantees assume > 1)
    noise: ambient noise floor (>= 0)
    c_l:   linear-power coefficient; sender power is c_l * length^alpha
    K, m:  ball-measure growth constants of the underlying space
           ((1, k) for Euclidean k-space)
    """

    alpha: float
    beta: float
    noise: float = 0.0
    c_l: float = 1.0
    K: float = 1.0
    m: float = 2.0

    def __post_init__(self) -> None:
        # Checked first: NaN compares false, so it would pass `noise < 0`, `K < 1`, `m < 1`.
        for name in ("alpha", "beta", "noise", "c_l", "K", "m"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.alpha > 1:
            raise ValueError(f"alpha must be > 1, got {self.alpha}")
        if not self.beta > 0:
            raise ValueError(f"beta must be > 0, got {self.beta}")
        if self.noise < 0:
            raise ValueError(f"noise must be >= 0, got {self.noise}")
        if not self.c_l > 0:
            raise ValueError(f"c_l must be > 0, got {self.c_l}")
        if self.K < 1:
            raise ValueError(f"K must be >= 1, got {self.K}")
        if self.m < 1:
            raise ValueError(f"m must be >= 1, got {self.m}")

    def affectance_threshold(self) -> float:
        """Right side of the additive SINR condition: 1/beta - noise/c_l.

        A slot S is feasible iff the affectance on each member stays at or
        below this value.  Nonpositive means even a lone link cannot decode.
        """
        return 1.0 / self.beta - self.noise / self.c_l

    def effective_beta(self) -> float:
        """Reciprocal of the affectance threshold.

        Folds nonzero noise into a single SINR-threshold-like constant, so
        noisy configurations reuse every noise-free formula unchanged.
        """
        thr = self.affectance_threshold()
        if thr <= 0:
            raise ValueError(
                "affectance threshold is nonpositive (c_l <= beta*noise); "
                "no slot is feasible"
            )
        return 1.0 / thr

    def alpha_condition_bound(self) -> float:
        """Smallest admissible path-loss exponent, m/(m+1-ceil(m))."""
        return self.m / (self.m + 1.0 - math.ceil(self.m))


@dataclass(frozen=True)
class Instance:
    """A metric, a set of links over its nodes, and the physical parameters."""

    metric: Metric
    links: tuple[Link, ...]
    params: PhysicalParams

    @property
    def n(self) -> int:
        return len(self.links)

    @cached_property
    def lengths(self) -> tuple[float, ...]:
        m = self.metric
        return tuple(m.distance(ln.sender, ln.receiver) for ln in self.links)

    def link_length(self, link_id: int) -> float:
        return self.lengths[link_id]

    @cached_property
    def length_array(self) -> np.ndarray:
        """``lengths`` as a read-only float array indexed by link position."""
        return _read_only(self.lengths, np.float64)

    @cached_property
    def senders(self) -> np.ndarray:
        """Sender node of each link, as a read-only index array."""
        return _read_only([ln.sender for ln in self.links], np.intp)

    @cached_property
    def receivers(self) -> np.ndarray:
        """Receiver node of each link, as a read-only index array."""
        return _read_only([ln.receiver for ln in self.links], np.intp)

    def asym_distance(self, w: int, v: int) -> float:
        """Distance from the sender of link w to the receiver of link v."""
        return self.metric.distance(self.links[w].sender, self.links[v].receiver)

    def link_ids(self) -> frozenset[int]:
        return frozenset(ln.id for ln in self.links)

    def used_nodes(self) -> tuple[int, ...]:
        """Sorted distinct node indices appearing as a sender or receiver."""
        seen: set[int] = set()
        for ln in self.links:
            seen.add(ln.sender)
            seen.add(ln.receiver)
        return tuple(sorted(seen))


@dataclass(frozen=True)
class Schedule:
    """An ordered partition of link ids into transmission slots."""

    slots: tuple[frozenset[int], ...]

    @property
    def length(self) -> int:
        return len(self.slots)


@dataclass(frozen=True)
class Diagnostic:
    severity: str  # "error" | "warning"
    code: str
    message: str


def _check_matrix(metric: MatrixMetric, check_triangle: bool) -> list[Diagnostic]:
    out: list[Diagnostic] = []
    d = metric.d
    n = len(d)
    if any(len(row) != n for row in d):
        out.append(Diagnostic("error", "matrix-shape", "distance matrix is not square"))
        return out
    if not np.isfinite(metric.array).all():
        out.append(Diagnostic("error", "non-finite", "distance matrix has a NaN or infinite entry"))
        return out
    max_d = 0.0
    for p in range(n):
        if d[p][p] != 0.0:
            out.append(
                Diagnostic("error", "matrix-diagonal", f"d({p},{p}) = {d[p][p]!r}, expected 0")
            )
        for q in range(p + 1, n):
            if d[p][q] != d[q][p]:
                out.append(
                    Diagnostic(
                        "error",
                        "matrix-asymmetric",
                        f"d({p},{q}) = {d[p][q]!r} but d({q},{p}) = {d[q][p]!r}",
                    )
                )
            if d[p][q] < 0:
                out.append(
                    Diagnostic("error", "matrix-negative", f"d({p},{q}) = {d[p][q]!r} < 0")
                )
            elif d[p][q] == 0.0:
                out.append(
                    Diagnostic(
                        "warning",
                        "pseudometric-zero",
                        f"distinct nodes {p} and {q} are at distance 0",
                    )
                )
            max_d = max(max_d, abs(d[p][q]))
    if any(diag.severity == "error" for diag in out):
        return out
    if check_triangle:
        # Tolerance is absolute after normalizing the largest distance to 1.
        tol = REL_TOL * max(max_d, 1.0)
        for p in range(n):
            dp = d[p]
            for q in range(n):
                if q == p:
                    continue
                dq = d[q]
                dpq = dp[q]
                for r in range(n):
                    if dp[r] > dpq + dq[r] + tol:
                        out.append(
                            Diagnostic(
                                "error",
                                "triangle-violation",
                                f"d({p},{r}) = {dp[r]!r} exceeds "
                                f"d({p},{q}) + d({q},{r}) = {dpq + dq[r]!r} "
                                f"(triple {p},{q},{r})",
                            )
                        )
    return out


def validate_instance(inst: Instance, check_triangle: bool = True) -> list[Diagnostic]:
    """Check every structural invariant; return diagnostics, never raise.

    Errors make the instance unusable for scheduling; warnings flag regimes
    where the feasibility guarantee of the greedy scheduler does not apply.
    ``check_triangle=False`` skips the cubic triangle-inequality scan on
    matrix metrics.
    """
    out: list[Diagnostic] = []
    metric = inst.metric
    params = inst.params

    if isinstance(metric, EuclideanMetric):
        if metric.n_nodes > 0:
            k = len(metric.points[0])
            if k < 1:
                out.append(Diagnostic("error", "euclidean-dim", "dimension must be >= 1"))
            for i, pt in enumerate(metric.points):
                if len(pt) != k:
                    out.append(
                        Diagnostic(
                            "error",
                            "euclidean-ragged",
                            f"point {i} has {len(pt)} coordinates, expected {k}",
                        )
                    )
            if not out:
                finite = np.isfinite(metric.array).all(axis=1)
                for i in np.flatnonzero(~finite).tolist():
                    out.append(
                        Diagnostic(
                            "error", "non-finite", f"point {i} = {metric.points[i]!r} is not finite"
                        )
                    )
    else:
        out.extend(_check_matrix(metric, check_triangle))

    n_nodes = metric.n_nodes
    # Schedules name links by id, while every algorithm indexes them by
    # position, so the two must coincide.
    ids = [ln.id for ln in inst.links]
    if ids != list(range(len(ids))):
        out.append(
            Diagnostic(
                "error", "link-ids", "link ids must equal their positions: links[i].id == i"
            )
        )
    index_ok = True
    for ln in inst.links:
        if not (0 <= ln.sender < n_nodes and 0 <= ln.receiver < n_nodes):
            out.append(
                Diagnostic(
                    "error",
                    "link-node-range",
                    f"link {ln.id} references node out of range "
                    f"(sender={ln.sender}, receiver={ln.receiver}, n_nodes={n_nodes})",
                )
            )
            index_ok = False
    metric_ok = not any(
        d.severity == "error" and d.code.startswith(("matrix", "non-finite")) for d in out
    )
    if index_ok and metric_ok:
        for ln in inst.links:
            if metric.distance(ln.sender, ln.receiver) <= 0.0:
                out.append(
                    Diagnostic(
                        "error", "zero-length-link", f"link {ln.id} has length 0"
                    )
                )

    if params.c_l <= params.beta * params.noise:
        out.append(
            Diagnostic(
                "error",
                "singleton-infeasible",
                f"c_l = {params.c_l!r} must exceed beta*noise = "
                f"{params.beta * params.noise!r}; even a singleton slot is infeasible",
            )
        )
    bound = params.alpha_condition_bound()
    if params.alpha <= bound:
        out.append(
            Diagnostic(
                "warning",
                "alpha-condition",
                f"alpha = {params.alpha!r} <= m/(m+1-ceil(m)) = {bound!r}; "
                "the greedy feasibility guarantee does not apply",
            )
        )
    if params.beta <= 1:
        out.append(
            Diagnostic(
                "warning",
                "beta-regime",
                f"beta = {params.beta!r} <= 1 is outside the guaranteed regime",
            )
        )
    return out


def check_partition(sched: Schedule, inst: Instance) -> list[str]:
    """Problems preventing ``sched`` from being a partition of the link set."""
    problems: list[str] = []
    all_ids = inst.link_ids()
    seen: set[int] = set()
    for i, slot in enumerate(sched.slots):
        if not slot:
            problems.append(f"slot {i} is empty")
        overlap = slot & seen
        if overlap:
            problems.append(f"slot {i} repeats link ids {sorted(overlap)}")
        unknown = slot - all_ids
        if unknown:
            problems.append(f"slot {i} references unknown link ids {sorted(unknown)}")
        seen |= slot
    missing = all_ids - seen
    if missing:
        problems.append(f"not a partition: link ids {sorted(missing)} are unscheduled")
    return problems


# ---------------------------------------------------------------------------
# JSON round trip.  Numbers rely on Python's shortest round-trip float repr,
# so load(save(x)) reproduces every finite value bit-exactly.


def _require(obj: dict, key: str, where: str):
    if key not in obj:
        raise FormatError(f"missing field '{key}' in {where}")
    return obj[key]


def _reject_unknown(obj: dict, allowed: set[str], where: str) -> None:
    for key in obj:
        if key not in allowed:
            raise FormatError(f"unknown field '{key}' in {where}")


def _as_number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise FormatError(f"field '{where}' must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer literal beyond the float range
        raise FormatError(f"field '{where}' must be a finite number, got {value!r}") from None
    if not math.isfinite(number):
        raise FormatError(f"field '{where}' must be a finite number, got {value!r}")
    return number


def _as_index(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise FormatError(f"field '{where}' must be an integer, got {value!r}")
    return value


def _check_schema(doc: dict, where: str) -> None:
    schema = _require(doc, "schema", where)
    if schema != SCHEMA:
        raise FormatError(f"unsupported schema {schema!r}, expected {SCHEMA!r}")


def _parse_json(text: str, where: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON in {where}: {exc}") from None
    if not isinstance(doc, dict):
        raise FormatError(f"{where} must be a JSON object")
    return doc


def load_instance(text: str) -> Instance:
    doc = _parse_json(text, "instance document")
    _check_schema(doc, "instance document")
    _reject_unknown(doc, {"schema", "params", "metric", "links"}, "instance document")

    praw = _as_object(_require(doc, "params", "instance document"), "params")
    _reject_unknown(praw, {"alpha", "beta", "noise", "c_l", "K", "m"}, "params")
    try:
        params = PhysicalParams(
            alpha=_as_number(_require(praw, "alpha", "params"), "params.alpha"),
            beta=_as_number(_require(praw, "beta", "params"), "params.beta"),
            noise=_as_number(_require(praw, "noise", "params"), "params.noise"),
            c_l=_as_number(_require(praw, "c_l", "params"), "params.c_l"),
            K=_as_number(_require(praw, "K", "params"), "params.K"),
            m=_as_number(_require(praw, "m", "params"), "params.m"),
        )
    except ValueError as exc:
        if isinstance(exc, FormatError):
            raise
        raise FormatError(f"invalid params: {exc}") from None

    mraw = _as_object(_require(doc, "metric", "instance document"), "metric")
    mtype = _require(mraw, "type", "metric")
    metric: Metric
    if mtype == "euclidean":
        _reject_unknown(mraw, {"type", "dim", "points"}, "metric")
        dim = _as_index(_require(mraw, "dim", "metric"), "metric.dim")
        pts_raw = _as_array(_require(mraw, "points", "metric"), "metric.points")
        points = []
        for i, pt in enumerate(pts_raw):
            pt = _as_array(pt, f"metric.points[{i}]")
            if len(pt) != dim:
                raise FormatError(
                    f"metric.points[{i}] has {len(pt)} coordinates, expected dim={dim}"
                )
            points.append(tuple(_as_number(x, f"metric.points[{i}]") for x in pt))
        metric = EuclideanMetric(points=tuple(points))
    elif mtype == "matrix":
        _reject_unknown(mraw, {"type", "d"}, "metric")
        rows_raw = _as_array(_require(mraw, "d", "metric"), "metric.d")
        rows = tuple(
            tuple(_as_number(x, f"metric.d[{i}]") for x in _as_array(row, f"metric.d[{i}]"))
            for i, row in enumerate(rows_raw)
        )
        metric = MatrixMetric(d=rows)
    else:
        raise FormatError(f"unknown metric type {mtype!r}")

    links = []
    links_raw = _as_array(_require(doc, "links", "instance document"), "links")
    for i, lraw in enumerate(links_raw):
        lraw = _as_object(lraw, f"links[{i}]")
        _reject_unknown(lraw, {"id", "sender", "receiver"}, f"links[{i}]")
        links.append(
            Link(
                id=_as_index(_require(lraw, "id", f"links[{i}]"), f"links[{i}].id"),
                sender=_as_index(
                    _require(lraw, "sender", f"links[{i}]"), f"links[{i}].sender"
                ),
                receiver=_as_index(
                    _require(lraw, "receiver", f"links[{i}]"), f"links[{i}].receiver"
                ),
            )
        )
    return Instance(metric=metric, links=tuple(links), params=params)


def _as_object(obj, where: str) -> dict:
    if not isinstance(obj, dict):
        raise FormatError(f"field '{where}' must be a JSON object")
    return obj


def _as_array(obj, where: str) -> list:
    if not isinstance(obj, list):
        raise FormatError(f"field '{where}' must be a JSON array")
    return obj


def save_instance(inst: Instance) -> str:
    p = inst.params
    if isinstance(inst.metric, EuclideanMetric):
        metric_doc = {
            "type": "euclidean",
            "dim": inst.metric.dim,
            "points": [list(pt) for pt in inst.metric.points],
        }
    else:
        metric_doc = {"type": "matrix", "d": [list(row) for row in inst.metric.d]}
    doc = {
        "schema": SCHEMA,
        "params": {
            "alpha": p.alpha,
            "beta": p.beta,
            "noise": p.noise,
            "c_l": p.c_l,
            "K": p.K,
            "m": p.m,
        },
        "metric": metric_doc,
        "links": [
            {"id": ln.id, "sender": ln.sender, "receiver": ln.receiver}
            for ln in inst.links
        ],
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def load_schedule(text: str) -> Schedule:
    doc = _parse_json(text, "schedule document")
    _check_schema(doc, "schedule document")
    _reject_unknown(doc, {"schema", "slots"}, "schedule document")
    slots = []
    slots_raw = _as_array(_require(doc, "slots", "schedule document"), "slots")
    for i, slot_raw in enumerate(slots_raw):
        slot_raw = _as_array(slot_raw, f"slots[{i}]")
        slots.append(frozenset(_as_index(x, f"slots[{i}]") for x in slot_raw))
    return Schedule(slots=tuple(slots))


def save_schedule(sched: Schedule) -> str:
    doc = {"schema": SCHEMA, "slots": [sorted(slot) for slot in sched.slots]}
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"
