"""Core data model: metrics, instances, schedules, validation, JSON I/O.

An instance is a set of communication links (sender/receiver node pairs)
embedded in a metric space, plus the physical-layer parameters that decide
which sets of links can transmit concurrently.  Link i is the pair
``(senders[i], receivers[i])``; its position is its id.  Two metric variants
are supported: explicit Euclidean coordinates and an explicit distance
matrix.  The matrix variant may be a pseudometric (distinct nodes at
distance zero), which some adversarial constructions require.

All objects are immutable after construction and safe to share across
threads.  The numbers are stored once, as read-only numpy arrays: the
points or the distance matrix of the metric, the sender and receiver node
of each link, and the link lengths, which ``kernel`` reads directly.
Validation never raises for domain problems; it returns a list of
diagnostics, at most one per problem kind, so callers can decide what is
fatal.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields
from functools import cached_property
from itertools import chain

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


def _fraction_gap(m: float) -> float:
    """m + 1 - ceil(m), computed exactly; m + 1.0 rounds to m for m >= 2^53."""
    return 1.0 - (math.ceil(m) - m)


def _float_matrix(values, name: str) -> np.ndarray:
    """``values`` as a read-only 2-D float array; raises ValueError otherwise."""
    arr = _read_only(values, np.float64)
    if arr.shape == (0,):
        arr = arr.reshape(0, 0)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be a 2-D array of numbers, got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class EuclideanMetric:
    """Node positions as the rows of a read-only (nodes, dim) float array."""

    points: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "points", _float_matrix(self.points, "points"))

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and np.array_equal(self.points, other.points)

    @property
    def n_nodes(self) -> int:
        return len(self.points)

    @property
    def dim(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True)
class MatrixMetric:
    """Distance matrix as a read-only 2-D float array (pseudometric allowed)."""

    d: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "d", _float_matrix(self.d, "d"))

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and np.array_equal(self.d, other.d)

    @property
    def n_nodes(self) -> int:
        return len(self.d)


Metric = EuclideanMetric | MatrixMetric


def _node_array(values, name: str) -> np.ndarray:
    """``values`` as a read-only 1-D index array; raises ValueError otherwise."""
    try:
        arr = _read_only(values, np.intp)
    except OverflowError:  # an integer beyond the index range
        raise ValueError(f"{name} must be node indices within the int64 range") from None
    if arr.ndim != 1:
        raise ValueError(f"{name} must be a 1-D array of node indices, got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class PhysicalParams:
    """Physical-layer parameters.

    alpha: path-loss exponent (> 1)
    beta:  SINR decoding threshold (> 0; guarantees assume > 1)
    noise: ambient noise floor (>= 0)
    c_l:   linear-power coefficient; sender power is c_l * length^alpha
    K, m:  ball-measure growth constants of the underlying space
           ((1, k) for Euclidean k-space)

    Each field's metadata holds its lower bound, strict (">") or not (">=").
    """

    alpha: float = field(metadata={"op": ">", "bound": 1})
    beta: float = field(metadata={"op": ">", "bound": 0})
    noise: float = field(default=0.0, metadata={"op": ">=", "bound": 0})
    c_l: float = field(default=1.0, metadata={"op": ">", "bound": 0})
    K: float = field(default=1.0, metadata={"op": ">=", "bound": 1})
    m: float = field(default=2.0, metadata={"op": ">=", "bound": 1})

    def __post_init__(self) -> None:
        # Every value is checked for finiteness first: NaN fails both bound
        # comparisons, but the message should say that it is not finite.
        for f in fields(self):
            value = getattr(self, f.name)
            if not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
        for f in fields(self):
            value = getattr(self, f.name)
            op, bound = f.metadata["op"], f.metadata["bound"]
            if not (value > bound if op == ">" else value >= bound):
                raise ValueError(f"{f.name} must be {op} {bound}, got {value}")

    def affectance_threshold(self) -> float:
        """Right side of the additive SINR condition: 1/beta - noise/c_l.

        A slot S is feasible iff the affectance on each member stays at or
        below this value.  ``budget_problem`` says when no slot can be.
        """
        return 1.0 / self.beta - self.noise / self.c_l

    def budget_problem(self) -> str | None:
        """Why not even a lone link can decode, or None.

        The affectance budget 1/beta - noise/c_l must be positive and finite,
        and so must the raw form's power budget c_l - beta*noise.
        """
        thr = self.affectance_threshold()
        noise_power = self.beta * self.noise
        if 0 < thr < math.inf and noise_power < self.c_l:
            return None
        return (
            f"1/beta - noise/c_l = {thr!r} must be positive and finite, and beta*noise = "
            f"{noise_power!r} must be below c_l = {self.c_l!r}; even a singleton slot is "
            "infeasible"
        )

    def alpha_problem(self) -> str | None:
        """Why the greedy feasibility guarantee does not apply, or None.

        It needs alpha*(m+1-ceil(m)) > m.
        """
        gap = self.alpha * _fraction_gap(self.m)
        if gap > self.m:
            return None
        return (
            f"alpha*(m+1-ceil(m)) = {gap!r} must exceed m = {self.m!r} (alpha = "
            f"{self.alpha!r}); the greedy feasibility guarantee does not apply"
        )


@dataclass(frozen=True)
class Instance:
    """A metric, the links over its nodes, and the physical parameters.

    Link i runs from node ``senders[i]`` to node ``receivers[i]``; both are
    read-only index arrays, and ``validate_instance`` checks their range.
    """

    metric: Metric
    senders: np.ndarray
    receivers: np.ndarray
    params: PhysicalParams

    def __post_init__(self) -> None:
        object.__setattr__(self, "senders", _node_array(self.senders, "senders"))
        object.__setattr__(self, "receivers", _node_array(self.receivers, "receivers"))
        if len(self.senders) != len(self.receivers):
            raise ValueError(
                f"{len(self.senders)} senders but {len(self.receivers)} receivers"
            )

    def __eq__(self, other) -> bool:
        return (
            type(other) is type(self)
            and self.metric == other.metric
            and np.array_equal(self.senders, other.senders)
            and np.array_equal(self.receivers, other.receivers)
            and self.params == other.params
        )

    @property
    def n(self) -> int:
        return len(self.senders)

    @cached_property
    def lengths(self) -> np.ndarray:
        """Length of each link, as a read-only float array indexed by position."""
        if isinstance(self.metric, MatrixMetric):
            return _read_only(self.metric.d[self.senders, self.receivers], np.float64)
        points = self.metric.points.tolist()
        return _read_only(
            [
                math.dist(points[p], points[q])
                for p, q in zip(self.senders.tolist(), self.receivers.tolist())
            ],
            np.float64,
        )

    @cached_property
    def cheap_scale(self) -> float:
        """``kernel.float32_scale`` of the instance, taken once: the power of
        two by which the cheap pass scales the points, or 0.0 where it takes
        exact distances."""
        from .kernel import float32_scale  # kernel imports this module

        return float32_scale(self)

    def used_nodes(self) -> np.ndarray:
        """Sorted distinct node indices appearing as a sender or receiver."""
        return np.flatnonzero(np.bincount(np.concatenate((self.senders, self.receivers))))


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


def _summary(severity, code, offenders, describe, count=None) -> list[Diagnostic]:
    """At most one diagnostic for the ``offenders`` (index rows, in report
    order) of one code: ``describe(*row)`` names a lone offender; more are
    counted (``count``, default their number), and only the first three named."""
    count = len(offenders) if count is None else count
    if count == 0:
        return []
    first = [describe(*map(int, row)) for row in offenders[:3]]
    if count > 1:
        first = [f"{count} {severity}s, the first {len(first)}: " + "; ".join(first)]
    return [Diagnostic(severity, code, first[0])]


def _triangle_offenders(d: np.ndarray, tol: float) -> tuple[int, list[tuple[int, int, int]]]:
    """The number of triples with d(p,r) > d(p,q) + d(q,r) + tol, and the first three.

    d is symmetric, so d(p,q) + d(q,r) is d(p,q) + d(r,q) bit for bit, and a
    triple with r < p is one with r > p reversed: a first scan compares d(p,r)
    for r > p with the row minima of d[p] + d[p+1:], contiguous rows of one
    reused buffer.  Only when it finds a violation does a scan of every row
    count the triples and name the first three in (p, q, r) order.  Rounded
    x + tol is monotone in x, so a minimum decides for every q; q = p never
    counts, as d(p,p) = 0.
    """
    n = len(d)
    via = np.empty_like(d)
    count, triples = 0, []
    with np.errstate(over="ignore"):  # a sum beyond the float range is inf
        for p in range(n - 1):
            # rows[j, q] = d(p,q) + d(q,p+1+j)
            rows = np.add(d[p], d[p + 1 :], out=via[: n - p - 1])
            if (d[p, p + 1 :] > rows.min(axis=1) + tol).any():
                break
        else:
            return count, triples
        for p in range(n):
            np.add(d[p][:, None], d, out=via)  # via[q, r] = d(p,q) + d(q,r)
            if not (d[p] > via.min(axis=0) + tol).any():
                continue
            over = d[p] > via + tol
            over[p] = False
            count += int(np.count_nonzero(over))
            if len(triples) < 3:  # _summary names the first three
                triples += [(p, q, r) for q, r in np.argwhere(over)[:3]]
    return count, triples


def _check_matrix(metric: MatrixMetric, check_triangle: bool) -> list[Diagnostic]:
    d = metric.d
    n = len(d)
    if d.shape != (n, n):
        return [Diagnostic("error", "matrix-shape", "distance matrix is not square")]
    if not np.isfinite(d).all():
        return [Diagnostic("error", "non-finite", "distance matrix has a NaN or infinite entry")]
    upper = np.triu(np.ones((n, n), dtype=bool), 1)
    entry_checks = (  # the entry d(p,q) = v, with t = d(q,p); str(float) is its repr
        ("error", "matrix-diagonal", np.diag(d.diagonal() != 0), "d({p},{p}) = {v}, expected 0"),
        ("error", "matrix-asymmetric", upper & (d != d.T), "d({p},{q}) = {v} but d({q},{p}) = {t}"),
        ("error", "matrix-negative", upper & (d < 0), "d({p},{q}) = {v} < 0"),
        ("warning", "pseudometric-zero", upper & (d == 0),
         "distinct nodes {p} and {q} are at distance 0"),
    )
    out: list[Diagnostic] = []
    for severity, code, mask, text in entry_checks:  # offenders in row-major order
        out += _summary(
            severity, code, np.argwhere(mask),
            lambda p, q: text.format(p=p, q=q, v=float(d[p, q]), t=float(d[q, p])),
        )
    if any(diag.severity == "error" for diag in out):
        return out
    if check_triangle:
        # Tolerance is absolute after normalizing the largest distance to 1.
        tol = REL_TOL * max(float(np.abs(d).max(initial=0.0)), 1.0)
        count, triples = _triangle_offenders(d, tol)
        out += _summary(
            "error", "triangle-violation", triples,
            lambda p, q, r: f"d({p},{r}) = {float(d[p, r])!r} exceeds "
            f"d({p},{q}) + d({q},{r}) = {float(d[p, q] + d[q, r])!r} (triple {p},{q},{r})",
            count,
        )
    return out


def validate_instance(inst: Instance, check_triangle: bool = True) -> list[Diagnostic]:
    """Check every structural invariant; return diagnostics, never raise.

    Errors make the instance unusable for scheduling; warnings flag regimes
    where the feasibility guarantee of the greedy scheduler does not apply.
    There is at most one diagnostic per code, in the order the checks run;
    many offenders of one code are counted, and the first three named.
    ``check_triangle=False`` skips the cubic triangle-inequality scan on
    matrix metrics.
    """
    out: list[Diagnostic] = []
    metric = inst.metric
    params = inst.params

    if isinstance(metric, EuclideanMetric):
        if metric.n_nodes > 0 and metric.dim < 1:
            out.append(Diagnostic("error", "euclidean-dim", "dimension must be >= 1"))
        out += _summary(
            "error", "non-finite", np.argwhere(~np.isfinite(metric.points).all(axis=1)),
            lambda i: f"point {i} = {tuple(metric.points[i].tolist())!r} is not finite",
        )
    else:
        out += _check_matrix(metric, check_triangle)

    n_nodes = metric.n_nodes
    senders, receivers = inst.senders, inst.receivers
    out_of_range = (
        (senders < 0) | (senders >= n_nodes) | (receivers < 0) | (receivers >= n_nodes)
    )
    out += _summary(
        "error", "link-node-range", np.argwhere(out_of_range),
        lambda i: f"link {i} references node out of range (sender={int(senders[i])}, "
        f"receiver={int(receivers[i])}, n_nodes={n_nodes})",
    )
    metric_ok = not any(
        d.severity == "error" and d.code.startswith(("matrix", "non-finite")) for d in out
    )
    if not out_of_range.any() and metric_ok:
        lengths = inst.lengths
        # Finite points can still lie farther apart than the float range.
        for code, mask, text in (
            ("zero-length-link", lengths <= 0.0, "link {} has length 0"),
            ("infinite-length-link", lengths == np.inf,
             "link {} has length inf, beyond the float range"),
        ):
            out += _summary("error", code, np.argwhere(mask), text.format)

    beta_regime = f"beta = {params.beta!r} <= 1 is outside the guaranteed regime"
    for severity, code, problem in (
        ("error", "singleton-infeasible", params.budget_problem()),
        ("warning", "alpha-condition", params.alpha_problem()),
        ("warning", "beta-regime", beta_regime if params.beta <= 1 else None),
    ):
        if problem is not None:
            out.append(Diagnostic(severity, code, problem))
    return out


def check_partition(sched: Schedule, inst: Instance) -> list[str]:
    """Problems preventing ``sched`` from being a partition of the link set."""
    problems: list[str] = []
    all_ids = frozenset(range(inst.n))
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
# so load(save(x)) reproduces every finite value bit-exactly.  Each writer
# spells out its document's layout, the text of json.dumps(doc,
# sort_keys=True, indent=2, allow_nan=False) and a newline, and formats each
# distinct number of an array once; the loader of a matrix file parses each
# distinct literal once.


_KINDS = {dict: "a JSON object", list: "a JSON array", int: "an integer", float: "a number"}


def _quoted(text: str) -> str:
    """``text``, an offending value, as an error message quotes it: whole up to
    500 characters, so that a 401-digit integer just past the float range
    still shows, and otherwise by its first 60 characters and its length."""
    return text if len(text) <= 500 else f"{text[:60]}... ({len(text)} characters)"


def _checked(value, kind: type, name: str):
    """``value`` if it is a ``kind`` (dict, list, int or float); FormatError otherwise.

    A float is any finite JSON number, returned as a Python float.  Booleans
    are neither numbers nor integers.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else kind):
        got = "" if kind is dict or kind is list else f", got {_quoted(repr(value))}"
        raise FormatError(f"field '{name}' must be {_KINDS[kind]}{got}")
    if kind is not float:
        return value
    try:
        number = float(value)
    except OverflowError:  # an integer literal beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise FormatError(f"field '{name}' must be a finite number, got {_quoted(repr(value))}")
    return number


def _field(obj: dict, key: str, where: str, kind: type | None, name: str | None = None):
    """``obj[key]``, checked by ``_checked`` as ``name`` (default ``where.key``).

    ``where`` names ``obj`` for a missing key; ``kind=None`` takes any value.
    """
    if key not in obj:
        raise FormatError(f"missing field '{key}' in {where}")
    if kind is None:
        return obj[key]
    return _checked(obj[key], kind, name or f"{where}.{key}")


def _reject_unknown(obj: dict, allowed, where: str) -> None:
    for key in obj:
        if key not in allowed:
            raise FormatError(f"unknown field '{_quoted(key)}' in {where}")


def _number_rows(rows: list, name: str, width: int | None, expected: str) -> np.ndarray:
    """The rows of the array ``name`` as one float array.

    Every row must hold ``width`` numbers, or as many as the first row when
    ``width`` is None; ``expected.format(width)`` ends the message otherwise.
    The whole array is checked at once; only a rejected one is walked row by
    row, to name its first offender.
    """
    if width is None and rows and type(rows[0]) is list:
        width = len(rows[0])
    if all(type(row) is list and len(row) == width for row in rows) and set(
        map(type, chain.from_iterable(rows))
    ) <= {float, int}:  # bool is neither
        try:
            arr = np.array(rows, np.float64)
        except OverflowError:  # an integer literal beyond the float range
            pass
        else:
            if np.isfinite(arr).all():
                return arr
    for i, row in enumerate(rows):
        where = f"{name}[{i}]"
        row = _checked(row, list, where)
        if len(row) != width:
            raise FormatError(f"{where} has {len(row)} {expected.format(width)}")
        for x in row:
            _checked(x, float, where)
    raise InternalError(f"{name}: the array check rejected what the row walk accepts")


class _FloatCache(dict):
    """The float of each number literal looked up, parsed once by ``float``."""

    def __missing__(self, literal: str) -> float:
        value = self[literal] = float(literal)
        return value


def _document(text: str, where: str, allowed: set[str]) -> dict:
    """The JSON object in ``text``, of this schema and with ``allowed`` fields only.

    A symmetric distance matrix repeats nearly every number, so a document
    whose text names a matrix metric reads its floats through a cache that
    ends with the call; others keep json's own float parse, which a cache
    would only slow.  Both call ``float`` on the same literal strings.  The
    search for the name runs from the end, where the writer puts it.
    """
    parse_float = _FloatCache().__getitem__ if text.rfind('"matrix"') >= 0 else None
    try:
        try:
            doc = json.loads(text, parse_float=parse_float)
        except RecursionError:
            if parse_float is None:
                raise
            # The cache's calls take recursion depth that float does not.
            doc = json.loads(text)
    # ValueError also covers an integer literal beyond Python's digit limit;
    # RecursionError, arrays or objects nested beyond the recursion limit.
    except (ValueError, RecursionError) as exc:
        raise FormatError(f"invalid JSON in {where}: {exc}") from None
    if not isinstance(doc, dict):
        raise FormatError(f"{where} must be a JSON object")
    schema = _field(doc, "schema", where, None)
    if schema != SCHEMA:
        raise FormatError(f"unsupported schema {_quoted(repr(schema))}, expected {SCHEMA!r}")
    _reject_unknown(doc, allowed, where)
    return doc


_NON_FINITE = (
    "cannot save a NaN or infinite number, which JSON cannot represent "
    "(is a coordinate or distance beyond the float range?)"
)


def _scalar(x) -> str:
    """The JSON text of a number, bool or str, as ``json.dumps`` writes it;
    FormatError if it is a NaN or infinite number."""
    if type(x) is int:  # not a bool, which json writes as true or false
        return int.__repr__(x)
    try:
        return json.dumps(x, allow_nan=False)
    except ValueError:
        raise FormatError(_NON_FINITE) from None


def _array(texts: list[str], newline: str) -> str:
    """The JSON array of the element ``texts``; ``newline`` starts each of
    its lines after the first."""
    inner = newline + "  "
    return "[" + inner + ("," + inner).join(texts) + newline + "]" if texts else "[]"


def _matrix(out: list[str], a: np.ndarray, newline: str) -> None:
    """Append the JSON text of the 2-D float array ``a`` to ``out``, a row a
    piece; ``newline`` starts each of its lines after the first.

    Each distinct number is formatted once.  Distinct means distinct bits,
    so -0.0 keeps its sign beside 0.0.
    """
    if not np.isfinite(a).all():
        raise FormatError(_NON_FINITE)
    bits, inverse = np.unique(a.ravel().view(np.int64), return_inverse=True)
    texts = np.array([float.__repr__(x) for x in bits.view(np.float64).tolist()], dtype=object)
    inner = newline + "  "
    for k, row in enumerate(texts[inverse].reshape(a.shape).tolist()):
        out.append(("," if k else "[") + inner + _array(row, inner))
    out.append(newline + "]" if len(a) else "[]")


_LINK_FIELDS = ("id", "sender", "receiver")


def _link_nodes(links: list) -> tuple[list[int], list[int]]:
    """The sender and the receiver of every entry of ``links``.

    Each entry must be an object of exactly the integer fields id, sender
    and receiver, and each id must equal the entry's position.  The whole
    list is checked at once; only a rejected one is walked entry by entry,
    to name its first offender.
    """
    fields = set(_LINK_FIELDS)
    if all(type(entry) is dict and entry.keys() == fields for entry in links):
        ids, senders, receivers = ([entry[key] for entry in links] for key in _LINK_FIELDS)
        if set(map(type, chain(ids, senders, receivers))) <= {int} and ids == list(range(len(ids))):
            return senders, receivers  # bool is not int
    for i, entry in enumerate(links):
        link = f"links[{i}]"
        _reject_unknown(_checked(entry, dict, link), _LINK_FIELDS, link)
        # Schedules name links by id, while every algorithm indexes them by
        # position, so the two must coincide.
        link_id = _field(entry, "id", link, int)
        if link_id != i:
            raise FormatError(
                f"field '{link}.id' is {_quoted(str(link_id))}, but link ids must equal their "
                "positions (link-ids)"
            )
        _field(entry, "sender", link, int)
        _field(entry, "receiver", link, int)
    raise InternalError("links: the one-pass check rejected what the entry walk accepts")


def load_instance(text: str) -> Instance:
    where = "instance document"
    doc = _document(text, where, {"schema", "params", "metric", "links"})

    praw = _field(doc, "params", where, dict, "params")
    names = [f.name for f in fields(PhysicalParams)]
    _reject_unknown(praw, names, "params")
    values = {key: _field(praw, key, "params", float) for key in names}
    try:
        params = PhysicalParams(**values)
    except ValueError as exc:
        raise FormatError(f"invalid params: {exc}") from None

    mraw = _field(doc, "metric", where, dict, "metric")
    mtype = _field(mraw, "type", "metric", None)
    metric: Metric
    if mtype == "euclidean":
        _reject_unknown(mraw, {"type", "dim", "points"}, "metric")
        dim = _field(mraw, "dim", "metric", int)
        points = _field(mraw, "points", "metric", list)
        metric = EuclideanMetric(
            points=_number_rows(points, "metric.points", dim, "coordinates, expected dim={}")
        )
    elif mtype == "matrix":
        _reject_unknown(mraw, {"type", "d"}, "metric")
        rows = _field(mraw, "d", "metric", list)
        metric = MatrixMetric(
            d=_number_rows(rows, "metric.d", None, "entries, expected {} as in metric.d[0]")
        )
    else:
        raise FormatError(f"unknown metric type {_quoted(repr(mtype))}")

    senders, receivers = _link_nodes(_field(doc, "links", where, list, "links"))
    try:
        return Instance(metric=metric, senders=senders, receivers=receivers, params=params)
    except ValueError as exc:
        raise FormatError(f"invalid links: {exc}") from None


def save_instance(inst: Instance) -> str:
    """The instance as JSON; FormatError if it holds a NaN or infinite number."""
    link = '{\n      "id": %d,\n      "receiver": %d,\n      "sender": %d\n    }'
    ends = zip(range(inst.n), inst.receivers.tolist(), inst.senders.tolist())
    out = ['{\n  "links": ', _array([link % x for x in ends], "\n  "), ',\n  "metric": {\n    ']
    metric = inst.metric
    if isinstance(metric, EuclideanMetric):
        out.append(f'"dim": {metric.dim},\n    "points": ')
        _matrix(out, metric.points, "\n    ")
        out.append(',\n    "type": "euclidean"\n  },\n  "params": {\n    ')
    else:
        out.append('"d": ')
        _matrix(out, metric.d, "\n    ")
        out.append(',\n    "type": "matrix"\n  },\n  "params": {\n    ')
    params = sorted(asdict(inst.params).items())
    out.append(",\n    ".join(f'"{key}": {_scalar(x)}' for key, x in params))
    out.append('\n  },\n  "schema": ' + _scalar(SCHEMA) + "\n}\n")
    return "".join(out)


def load_schedule(text: str) -> Schedule:
    where = "schedule document"
    doc = _document(text, where, {"schema", "slots"})
    slots = []
    slots_raw = _field(doc, "slots", where, list, "slots")
    for i, ids in enumerate(slots_raw):
        # Each slot is checked as a whole; only a rejected one is walked id
        # by id, to name its first offender.
        if type(ids) is not list or not set(map(type, ids)) <= {int}:  # bool is not int
            for x in _checked(ids, list, f"slots[{i}]"):
                _checked(x, int, f"slots[{i}]")
            raise InternalError("slots: the slot check rejected what the id walk accepts")
        slot = frozenset(ids)
        if len(slot) != len(ids):
            repeated = next(x for k, x in enumerate(ids) if x in ids[:k])
            raise FormatError(f"slots[{i}] repeats link id {_quoted(str(repeated))}")
        slots.append(slot)
    return Schedule(slots=tuple(slots))


def save_schedule(sched: Schedule) -> str:
    slots = [_array(list(map(_scalar, sorted(slot))), "\n    ") for slot in sched.slots]
    return '{\n  "schema": ' + _scalar(SCHEMA) + ',\n  "slots": ' + _array(slots, "\n  ") + "\n}\n"
