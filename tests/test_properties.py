"""Property tests: bit-exact JSON round trips, the JSON writer byte for
byte against ``json.dumps``, the array loader against its per-number check,
the cached float parse of matrix documents against the plain parse, the
schedule loader against its per-id check,
validation against its per-offender reference (also with triangle
violations at the edge of the tolerance), invariance under relabelling
links (verdicts, and the greedy schedule on tie-free lengths) and under
scaling points or matrix entries by a power of two, the blocked greedy
against one kernel column per link, greedy admission and slot feasibility
on the edges of their cheap-term decisions (loads on a cut, ties, +inf and
underflowing terms, 1 to 3 dimensions, asymmetric matrices, points on
both sides of the float32 range) against the column loops, the grid-pruned
interference measure against the full scan, the subset table against slot
feasibility, the raw-SINR cross-check at the edge of small budgets, and CLI
exit codes on fuzzed instance documents and fuzzed `reduce` arguments.
Hypothesis runs derandomized with few examples, so the suite stays
deterministic and fast.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import math
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from linsched import (
    EuclideanMetric,
    FormatError,
    Instance,
    PhysicalParams,
    SchedulerConfig,
    bounds,
    build_reduction,
    cli,
    greedy_schedule,
    kernel,
    load_instance,
    load_schedule,
    optimal_schedule,
    save_instance,
    save_schedule,
    schedule_feasible,
    validate_instance,
)
from linsched import model
from linsched.bounds import interference_measure
from linsched.gen import collocated, spread
from linsched.model import REL_TOL, MatrixMetric, Schedule
from linsched.oracle import subset_table
from linsched.sinr import slot_feasible

from conftest import (
    affectance_on,
    full_scan_measure,
    line_pseudometric,
    link_terms,
    make_random_instance,
)
from reference import (
    aggregate_per_code,
    greedy_schedule_columns,
    load_schedule_reference,
    number_rows_reference,
    rel_leq_array,
    save_instance_reference,
    save_schedule_reference,
    slot_feasible_columns,
    validate_instance_reference,
)

FIXED = settings(derandomize=True, database=None, deadline=None, max_examples=60)

# Floats whose text form is easy to get wrong: signed zeros, subnormals and
# both ends of the normal range.
AWKWARD = (
    0.0,
    -0.0,
    5e-324,
    -5e-324,
    2.2250738585072014e-308,
    1.7976931348623157e308,
    -1.7976931348623157e308,
    0.1,
    1.0 / 3.0,
)
finite = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(AWKWARD)


def positive(min_value: float = 0.0) -> st.SearchStrategy[float]:
    return st.floats(min_value=min_value, max_value=sys.float_info.max, exclude_min=True)


params = st.builds(
    PhysicalParams,
    alpha=positive(1.0),
    beta=positive() | st.just(5e-324),
    noise=st.sampled_from((0.0, -0.0, 5e-324)) | positive(),
    c_l=positive(),
    K=st.floats(min_value=1.0, max_value=sys.float_info.max),
    m=st.floats(min_value=1.0, max_value=sys.float_info.max),
)


@st.composite
def instances(draw, matrix: bool) -> Instance:
    n_nodes = draw(st.integers(1, 5))
    if matrix:
        rows = st.lists(finite, min_size=n_nodes, max_size=n_nodes)
        metric = MatrixMetric(d=draw(st.lists(rows, min_size=n_nodes, max_size=n_nodes)))
    else:
        dim = draw(st.integers(1, 3))
        coords = st.lists(finite, min_size=dim, max_size=dim)
        metric = EuclideanMetric(points=draw(st.lists(coords, min_size=n_nodes, max_size=n_nodes)))
    node = st.integers(0, n_nodes - 1)
    pairs = [(draw(node), draw(node)) for _ in range(draw(st.integers(0, 4)))]
    senders, receivers = [p for p, _ in pairs], [q for _, q in pairs]
    return Instance(metric=metric, senders=senders, receivers=receivers, params=draw(params))


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).view(np.uint64)


def _param_values(p: PhysicalParams) -> list[float]:
    return [p.alpha, p.beta, p.noise, p.c_l, p.K, p.m]


@FIXED
@given(st.booleans().flatmap(instances))
def test_instance_round_trip_is_bit_exact(inst):
    text = save_instance(inst)
    again = load_instance(text)
    assert again == inst
    old, new = (x.metric.d if isinstance(x.metric, MatrixMetric) else x.metric.points
                for x in (inst, again))
    assert old.shape == new.shape
    assert np.array_equal(_bits(old), _bits(new))
    assert np.array_equal(_bits(_param_values(inst.params)), _bits(_param_values(again.params)))
    assert save_instance(again) == text


# Integer-valued floats, written as 3.0 or, from 1e16 on, as 1e+16.
whole = st.integers(-(2**60), 2**60).map(float) | st.sampled_from((1e16, 1e22, 2.0**53))


@st.composite
def files_to_write(draw) -> Instance:
    """Euclidean points in 1-3 dimensions or a matrix, most entries drawn from
    a few values (both zeros among them), with no nodes or no links at times."""
    n_nodes = draw(st.integers(0, 6))
    pool = draw(st.lists(finite | whole, min_size=1, max_size=4)) + [0.0, -0.0]
    value = st.sampled_from(pool) | finite | whole
    matrix = draw(st.booleans())
    width = n_nodes if matrix else draw(st.integers(1, 3))
    rows = [draw(st.lists(value, min_size=width, max_size=width)) for _ in range(n_nodes)]
    metric = MatrixMetric(d=rows) if matrix else EuclideanMetric(points=rows)
    pairs = draw(st.lists(st.tuples(st.integers(0, n_nodes), st.integers(0, n_nodes)), max_size=4))
    senders, receivers = [p for p, _ in pairs], [q for _, q in pairs]
    return Instance(metric=metric, senders=senders, receivers=receivers, params=draw(params))


_EXTREMES = [[0.0, -0.0, 5e-324], [-0.0, 1.7976931348623157e308, 0.0], [-5e-324, 0.0, 2.0**53]]


@FIXED
@example(Instance(MatrixMetric(d=_EXTREMES), [0, 1], [1, 2], PhysicalParams(alpha=3.0, beta=2.0)))
@example(Instance(EuclideanMetric(points=_EXTREMES), [], [], PhysicalParams(alpha=3, beta=True)))
@example(Instance(MatrixMetric(d=[]), [], [], PhysicalParams(alpha=3.0, beta=2.0)))
@example(Instance(EuclideanMetric(points=np.zeros((2, 0))), [0], [1],
                  PhysicalParams(alpha=np.float64(3.0), beta=2)))
@given(files_to_write())
def test_save_instance_is_the_json_dumps_text(inst):
    assert save_instance(inst) == save_instance_reference(inst)


@FIXED
@example(Schedule(slots=()))
@example(Schedule(slots=(frozenset(),)))
@example(Schedule(slots=(frozenset({True}), frozenset({2**70, -3}))))
@given(st.lists(st.frozensets(st.integers(0, 2**70), max_size=5), max_size=4).map(
    lambda slots: Schedule(slots=tuple(slots))
))
def test_save_schedule_is_the_json_dumps_text(sched):
    assert save_schedule(sched) == save_schedule_reference(sched)


# Number literals that break a metric array: non-numbers, a float beyond the
# range, and integers at and beyond the exact and the float range.
BAD_NUMBERS = ("true", "null", '"1.0"', "[1.0]", "1e400") + tuple(
    str(x) for x in (2**53 + 1, 2**63 + 1, 10**308, 10**309)
)


@st.composite
def number_arrays_to_read(draw) -> str:
    """An instance document whose points or distance matrix holds at most one
    bad number and up to two short or long rows, each anywhere."""
    n_rows = draw(st.integers(1, 5))
    matrix = draw(st.booleans())
    width = n_rows if matrix else draw(st.integers(1, 3))
    rows = [draw(st.lists(finite | st.integers(-3, 3), min_size=width, max_size=width))
            for _ in range(n_rows)]
    bad = draw(st.sampled_from((None, *BAD_NUMBERS)))
    if bad is not None:
        rows[draw(st.integers(0, n_rows - 1))][draw(st.integers(0, width - 1))] = "@BAD@"
    for i in draw(st.lists(st.integers(0, n_rows - 1), max_size=2, unique=True)):
        if draw(st.booleans()):
            rows[i].append(draw(finite))
        else:
            rows[i].pop(draw(st.integers(0, width - 1)))
    metric = {"type": "matrix", "d": rows} if matrix else {"type": "euclidean", "dim": width, "points": rows}
    doc = {"schema": "sinr-linsched/1", "params": _PARAMS, "metric": metric, "links": []}
    return json.dumps(doc).replace('"@BAD@"', str(bad))


@settings(FIXED, max_examples=300)
@given(number_arrays_to_read())
def test_loader_reads_number_arrays_as_the_reference_does(text):
    with mock.patch.object(model, "_number_rows", number_rows_reference):
        try:
            expected = load_instance(text)
        except FormatError as exc:
            expected = str(exc)
    try:
        got = load_instance(text)
    except FormatError as exc:
        assert str(exc) == expected
        return
    assert isinstance(expected, Instance)
    old, new = (x.metric.d if isinstance(x.metric, MatrixMetric) else x.metric.points
                for x in (expected, got))
    assert old.shape == new.shape
    assert np.array_equal(_bits(old), _bits(new))


# Literals of a distance matrix file: both zeros, integers, exponent forms,
# and numbers that json reads but the loader refuses.
MATRIX_LITERALS = (
    "0.0", "-0.0", "0", "-0", "3", "-2", "1E5", "2.5e-7", "1e400", "-1e400", "NaN", "Infinity",
    "-Infinity", "0.1", "1.5", "5e-324", "1.7976931348623157e+308",
)


@st.composite
def matrix_documents(draw) -> str:
    """The text of a matrix instance document: a symmetric matrix whose
    entries repeat a few literals (so the parse cache has hits), at times
    with one entry changed on one side only."""
    n_nodes = draw(st.integers(0, 6))
    pool = draw(st.lists(st.sampled_from(MATRIX_LITERALS) | finite.map(repr), min_size=1, max_size=4))
    literal = st.sampled_from(pool) | st.sampled_from(MATRIX_LITERALS)
    diagonal = draw(st.sampled_from(("0.0", "-0.0", "0")))
    rows = [[diagonal] * n_nodes for _ in range(n_nodes)]
    for p in range(n_nodes):
        for q in range(p + 1, n_nodes):
            rows[p][q] = rows[q][p] = draw(literal)
    if n_nodes and draw(st.booleans()):
        rows[draw(st.integers(0, n_nodes - 1))][draw(st.integers(0, n_nodes - 1))] = draw(literal)
    d = "[" + ", ".join("[" + ", ".join(row) + "]" for row in rows) + "]"
    node = st.integers(0, max(n_nodes - 1, 0))
    links = [{"id": i, "sender": draw(node), "receiver": draw(node)}
             for i in range(draw(st.integers(0, 3)))]
    doc = {"schema": "sinr-linsched/1", "params": _PARAMS, "metric": {"type": "matrix", "d": "@D@"},
           "links": links}
    return json.dumps(doc).replace('"@D@"', d)


def _load_with(text: str, loads):
    """``load_instance(text)`` with ``loads`` as the model's ``json.loads``:
    the instance, or the FormatError text."""
    with mock.patch.object(model, "json", mock.Mock(loads=loads)):
        try:
            return load_instance(text)
        except FormatError as exc:
            return str(exc)


@settings(FIXED, max_examples=200)
@given(matrix_documents())
def test_cached_float_parse_of_a_matrix_document_is_the_plain_parse(text):
    float_parsers = []

    def recording_loads(text, parse_float=None):
        float_parsers.append(parse_float)
        return json.loads(text, parse_float=parse_float)

    got = _load_with(text, recording_loads)
    assert len(float_parsers) == 1 and float_parsers[0] is not None  # the cached parse ran
    expected = _load_with(text, lambda text, parse_float=None: json.loads(text))
    if isinstance(expected, str):
        assert got == expected
        return
    assert isinstance(got, Instance) and got == expected
    assert got.metric.d.shape == expected.metric.d.shape
    assert np.array_equal(got.metric.d.view(np.int64), expected.metric.d.view(np.int64))


# Slot entries that are not link ids, and integers beyond any link range,
# which the loader itself accepts.
BAD_IDS = (True, False, 0.0, 1.5, None, "0", [0], {"id": 0}, 2**70, -1)


@st.composite
def schedule_documents(draw) -> str:
    """A schedule document whose slots hold small link ids, at times repeated,
    with now and then a slot that is not an array or an entry that is not an id."""
    ids = (st.integers(0, 6) | st.sampled_from(BAD_IDS)) if draw(st.booleans()) else st.integers(0, 6)
    slots = draw(st.lists(st.lists(ids, max_size=5), max_size=4))
    if slots and draw(st.integers(0, 4)) == 0:
        slots[draw(st.integers(0, len(slots) - 1))] = draw(st.sampled_from((0, "x", {}, None)))
    return json.dumps({"schema": "sinr-linsched/1", "slots": slots})


@FIXED
@example('{"schema": "sinr-linsched/1", "slots": [[0, 1], [2, true, 2]]}')
@example('{"schema": "sinr-linsched/1", "slots": [[0, 1], [2, 3, 2, 1.0]]}')
@given(schedule_documents())
def test_schedule_loader_is_the_per_id_reference(text):
    results = []
    for load in (load_schedule, load_schedule_reference):
        try:
            results.append(load(text))
        except FormatError as exc:
            results.append(str(exc))
    assert results[0] == results[1]


def _assert_validation_matches_reference(inst: Instance) -> None:
    for check_triangle in (True, False):
        expected = aggregate_per_code(validate_instance_reference(inst, check_triangle))
        assert validate_instance(inst, check_triangle) == expected


@FIXED
@given(st.booleans().flatmap(instances))
def test_validation_is_the_reference_aggregated_per_code(inst):
    _assert_validation_matches_reference(inst)


@st.composite
def symmetric_matrix_instances(draw) -> Instance:
    """Symmetric, zero-diagonal matrices of small integers, so that the entry
    checks pass and the triangle scan runs; links may name missing nodes."""
    n_nodes = draw(st.integers(1, 7))
    upper = np.triu_indices(n_nodes, 1)
    d = np.zeros((n_nodes, n_nodes))
    d[upper] = draw(st.lists(st.integers(0, 9), min_size=len(upper[0]), max_size=len(upper[0])))
    node = st.integers(-1, n_nodes)
    pairs = draw(st.lists(st.tuples(node, node), max_size=5))
    senders, receivers = [p for p, _ in pairs], [q for _, q in pairs]
    return Instance(MatrixMetric(d=d + d.T), senders, receivers, draw(params))


@FIXED
@given(symmetric_matrix_instances())
def test_validation_of_symmetric_matrices_is_the_reference_aggregated(inst):
    _assert_validation_matches_reference(inst)


@st.composite
def triangle_edge_matrices(draw) -> Instance:
    """Line metrics |x_p - x_q| * scale, some scaled so far that a sum of two
    entries overflows to inf, with one pair (p, r) moved to
    d(p,q) + d(q,r) + tol*(1 + eps), at the edge of the triangle tolerance."""
    n_nodes = draw(st.integers(3, 8))
    xs = np.array(draw(st.lists(st.integers(0, 9), min_size=n_nodes, max_size=n_nodes)), float)
    scale = draw(st.sampled_from((1.0, 0.1, 3.0, 1e300, sys.float_info.max / 10)))
    d = np.abs(xs[:, None] - xs) * scale
    last = n_nodes - 1
    p = draw(st.just(last) | st.integers(0, last))  # often a lone violation in the last row
    r = draw(st.integers(0, last).filter(lambda r: r != p))
    q = draw(st.integers(0, last).filter(lambda q: q not in (p, r)))
    eps = draw(st.sampled_from((0.0, 1e-9, -1e-9, 2e-9, -2e-9, 1e-6, -0.5)))
    for _ in range(3):  # tol follows the largest entry, which may be d(p,r) itself
        tol = REL_TOL * max(float(d.max()), 1.0)
        edge = float(d[p, q]) + float(d[q, r]) + tol * (1.0 + eps)  # Python floats overflow quietly
        d[p, r] = d[r, p] = min(edge, sys.float_info.max)
    return Instance(MatrixMetric(d=d), [0], [1], PhysicalParams(alpha=3.0, beta=2.0))


@settings(FIXED, max_examples=200)
@given(triangle_edge_matrices())
def test_triangle_scan_at_the_tolerance_edge_is_the_reference(inst):
    _assert_validation_matches_reference(inst)


# ---------------------------------------------------------------------------
# Valid instances on a small integer grid, where coincident nodes give +inf
# terms.


@st.composite
def grid_instances(draw, max_links: int = 6, clusters: int = 1) -> Instance:
    """Links on a 9x9 grid, or on ``clusters`` x ``clusters`` such grids 128
    apart, beyond each other's near field in the grid-pruned measure."""
    n = draw(st.integers(1, max_links))
    coord = st.integers(0, 8)
    step = st.tuples(st.integers(-2, 2), st.integers(-2, 2)).filter(lambda s: s != (0, 0))
    points = []
    for _ in range(n):
        x, y = draw(coord), draw(coord)
        if clusters > 1:
            x += 128 * draw(st.integers(0, clusters - 1))
            y += 128 * draw(st.integers(0, clusters - 1))
        dx, dy = draw(step)
        points += [(x, y), (x + dx, y + dy)]
    params = PhysicalParams(
        alpha=draw(st.sampled_from((2.5, 3.0, 4.0))),
        beta=draw(st.sampled_from((1.0, 1.5, 2.0))),
        noise=draw(st.sampled_from((0.0, 0.01))),
    )
    nodes = 2 * np.arange(n)
    return Instance(EuclideanMetric(points=points), nodes, nodes + 1, params)


@FIXED
@given(st.data())
def test_relabelling_links_permutes_verdicts(data):
    inst = data.draw(grid_instances())
    perm = data.draw(st.permutations(range(inst.n)))  # new link j is old link perm[j]
    relabelled = Instance(inst.metric, inst.senders[perm], inst.receivers[perm], inst.params)
    new_id = {old: new for new, old in enumerate(perm)}
    members = data.draw(st.sets(st.integers(0, inst.n - 1), min_size=1))
    before = slot_feasible(members, inst)
    after = slot_feasible({new_id[v] for v in members}, relabelled)
    assert after.feasible == before.feasible
    assert after.worst_margin == before.worst_margin
    for v in members:
        new_members = [new_id[w] for w in members]
        assert affectance_on(relabelled, new_id[v], new_members) == affectance_on(inst, v, members)
    assert interference_measure(range(inst.n), relabelled) == interference_measure(
        range(inst.n), inst
    )


@FIXED
@given(st.data())
def test_relabelling_tie_free_links_permutes_the_greedy_schedule(data):
    inst = make_random_instance(
        seed=data.draw(st.integers(0, 999)),
        n=data.draw(st.integers(1, 40)),
        box=data.draw(st.sampled_from((5.0, 20.0, 60.0))),
    )
    assume(len(np.unique(inst.lengths)) == inst.n)  # ties go to the smaller id
    perm = data.draw(st.permutations(range(inst.n)))  # new link j is old link perm[j]
    relabelled = Instance(inst.metric, inst.senders[perm], inst.receivers[perm], inst.params)
    new_id = {old: new for new, old in enumerate(perm)}
    cfg = SchedulerConfig(c=data.draw(st.sampled_from((1.5, 4.0, 14.0))))
    with mock.patch.object(kernel, "BLOCK", data.draw(st.sampled_from((8, kernel.BLOCK)))):
        before, after = greedy_schedule(inst, cfg), greedy_schedule(relabelled, cfg)
    assert after.slots == tuple(frozenset(new_id[v] for v in slot) for slot in before.slots)


# Instances with many slots, length ties or zero distances, up to 40 links.
greedy_instances = st.one_of(
    grid_instances(max_links=20),
    st.builds(line_pseudometric, st.integers(0, 999), st.integers(1, 30)),
    st.builds(collocated, st.integers(1, 40), st.just(PhysicalParams(alpha=3.0, beta=2.0))),
    st.builds(
        spread,
        st.integers(1, 40),
        st.sampled_from((1.5, 4.0, 10.0)),
        st.just(PhysicalParams(alpha=3.0, beta=2.0)),
    ),
    st.builds(
        make_random_instance,
        seed=st.integers(0, 999),
        n=st.integers(1, 40),
        box=st.sampled_from((5.0, 20.0, 60.0)),
    ),
)


@settings(FIXED, max_examples=100)
@given(greedy_instances, st.sampled_from((1, 8, 64, kernel.BLOCK)), st.sampled_from((1.5, 4.0, "auto")))
def test_blocked_greedy_is_the_column_loop(inst, block, c):
    # small blocks split even 20 links into many blocks
    cfg = SchedulerConfig.auto(inst.params) if c == "auto" else SchedulerConfig(c=c)
    with mock.patch.object(kernel, "BLOCK", block):
        blocked = greedy_schedule(inst, cfg)
    assert blocked == greedy_schedule_columns(inst, cfg)


# ---------------------------------------------------------------------------
# Greedy admission and slot feasibility decide on cheap terms within a stated
# bound and take exact terms where it cannot decide: instances on the edges
# of those decisions.


@st.composite
def loads_on_a_cut(draw) -> tuple[Instance, float]:
    """Link 0 from the origin to (4, 0, ...) and a unit link pointing away
    from it along a drawn direction, whose receiver lies where the exact term
    of link 0 on it is the cut of greedy's threshold or of the slot
    threshold, give or take a few floats (about 3 ulps of the term each)."""
    dim = draw(st.integers(1, 3))
    u = -np.abs(np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=dim, max_size=dim))))
    u /= np.sqrt((u * u).sum())
    c = draw(st.floats(1.1, 8.0))
    params = PhysicalParams(alpha=3.0, beta=draw(st.sampled_from((1.5, 2.0, 3.0))), m=float(dim))
    thr = draw(st.sampled_from((SchedulerConfig(c=c).admit_threshold(3.0), params.affectance_threshold())))
    target = kernel.rel_leq_cut(thr)
    x0 = np.float64(4.0 * target ** (-1 / 3))
    xs = (x0.view(np.int64) + np.arange(-300, 301)).view(np.float64)
    d = kernel.euclid(np.zeros((1, dim)), xs[:, None, None] * u)
    terms = kernel.ratio_power(np.full(d.shape, 4.0), d, 3.0)[:, 0]
    assume(terms[0] > target >= terms[-1])  # the terms fall as x grows
    first = int(np.argmax(terms <= target))
    x = float(xs[first + draw(st.integers(-3, 3))])
    r0 = np.zeros(dim)
    r0[0] = 4.0
    points = [np.zeros(dim), r0, (x + 1.0) * u, x * u]
    return Instance(EuclideanMetric(points=points), [0, 2], [1, 3], params), c


@st.composite
def mirrored_links(draw) -> tuple[Instance, float]:
    """Unit links facing in pairs across a square of drawn side: equal loads."""
    side = draw(st.floats(3.0, 60.0))
    points = [(0.0, 0.0), (1.0, 0.0), (side + 1.0, 0.0), (side, 0.0),
              (0.0, side), (1.0, side), (side + 1.0, side), (side, side)]
    nodes = 2 * np.arange(4)
    params = PhysicalParams(alpha=draw(st.sampled_from((2.5, 3.0, 4.0))), beta=2.0)
    return Instance(EuclideanMetric(points=points), nodes, nodes + 1, params), 1.5


@st.composite
def random_links(draw) -> tuple[Instance, float]:
    """Links in 1 to 3 dimensions, at alpha up to 400 (terms that underflow),
    as a chain (a receiver on the next sender: +inf terms), or scaled by a
    power of two beyond the range where squares of differences are exact."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, dim = draw(st.integers(2, 24)), draw(st.integers(1, 3))
    alpha = draw(st.sampled_from((1.5, 3.0, 50.0, 400.0)))
    params = PhysicalParams(alpha=alpha, beta=draw(st.sampled_from((1.0, 2.0))), m=float(dim))
    senders = rng.uniform(0.0, draw(st.sampled_from((5.0, 30.0))), (n, dim))
    if draw(st.booleans()):
        points = np.empty((2 * n, dim))
        points[0::2], points[1::2] = senders, senders + rng.uniform(-2.0, 2.0, (n, dim))
        nodes = 2 * np.arange(n)
        inst = Instance(EuclideanMetric(points=points), nodes, nodes + 1, params)
    else:
        inst = Instance(EuclideanMetric(points=senders), np.arange(n - 1), np.arange(1, n), params)
    scale = 2.0 ** draw(st.sampled_from((0, 0, 600, -600, 1000, -1000)))
    inst = Instance(EuclideanMetric(points=inst.metric.points * scale), inst.senders, inst.receivers,
                    params)
    return inst, draw(st.sampled_from((1.2, 1.5, 4.0)))


@st.composite
def asymmetric_links(draw) -> tuple[Instance, float]:
    """Links over a matrix with d[p, q] != d[q, p], some entries 0."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 12))
    d = rng.uniform(1.0, 4.0, (2 * n, 2 * n)) * (rng.random((2 * n, 2 * n)) > 0.05)
    np.fill_diagonal(d, 0.0)
    nodes = 2 * np.arange(n)
    d[nodes, nodes + 1] = rng.uniform(0.2, 1.0, n)  # the link lengths
    params = PhysicalParams(alpha=draw(st.sampled_from((2.5, 3.0, 4.0))), beta=2.0)
    return Instance(MatrixMetric(d=d), nodes, nodes + 1, params), draw(st.sampled_from((1.2, 1.5, 4.0)))


def _filtered_decisions_are_the_column_loops(inst: Instance, c: float, block: int) -> None:
    cfg = SchedulerConfig(c=c)
    with mock.patch.object(kernel, "BLOCK", block):
        sched = greedy_schedule(inst, cfg)
        assert sched == greedy_schedule_columns(inst, cfg)
        n = inst.n
        for members in (range(n), range(0, n, 2), range(1, n, 3), *map(sorted, sched.slots)):
            if len(members):
                res = slot_feasible(members, inst)
                feasible, worst_link, worst_margin = slot_feasible_columns(members, inst)
                assert (res.feasible, res.worst_link) == (feasible, worst_link)
                assert repr(res.worst_margin) == repr(worst_margin)


@settings(FIXED, max_examples=150)
@given(loads_on_a_cut(), st.sampled_from((1, kernel.BLOCK)))
def test_loads_on_a_cut_are_decided_as_the_column_loops(case, block):
    _filtered_decisions_are_the_column_loops(*case, block)


def _band_edge_pair(scale: float) -> tuple[Instance, float]:
    """Two links on a line scaled by ``scale``, whose worst load (4 / x)^3
    lies within a few hundred ulps of the band edge 0.5*(1 + 1e-9)."""
    x = 5.039684197899402
    points = [[0.0, 0.0], [4.0 * scale, 0.0], [(x + 1.0) * scale, 0.0], [x * scale, 0.0]]
    params = PhysicalParams(alpha=3.0, beta=2.0)
    return Instance(EuclideanMetric(points=points), [0, 2], [1, 3], params), 1.25


@settings(FIXED, max_examples=150)
@example(_band_edge_pair(2.0**600), kernel.BLOCK)
@example(_band_edge_pair(2.0**-600), kernel.BLOCK)
@given(st.one_of(mirrored_links(), random_links(), asymmetric_links()), st.sampled_from((1, 8, kernel.BLOCK)))
def test_filtered_decisions_are_the_column_loops(case, block):
    _filtered_decisions_are_the_column_loops(*case, block)


@st.composite
def links_beyond_float32(draw) -> tuple[Instance, float]:
    """``random_links`` and one more link 1e30 away, of length 1 to 2 (1e15
    to 2e15 on a line, where 1e30 + 1 is 1e30): squared distances beyond the
    float32 range, so the cheap terms take exact distances."""
    inst, c = draw(random_links())
    points, first = inst.metric.points, len(inst.metric.points)
    far = np.zeros((2, points.shape[1]))
    far[:, 0] = 1e30
    far[1, -1] += draw(st.floats(1.0, 2.0)) * (1e15 if points.shape[1] == 1 else 1.0)
    return Instance(EuclideanMetric(points=np.vstack([points, far])), [*inst.senders, first],
                    [*inst.receivers, first + 1], inst.params), c


@settings(FIXED, max_examples=60)
@given(links_beyond_float32(), st.sampled_from((1, 8, kernel.BLOCK)))
def test_decisions_beyond_the_float32_range_are_the_column_loops(case, block):
    assert case[0].cheap_scale == 0.0
    _filtered_decisions_are_the_column_loops(*case, block)


def _floats_around(x: float, k: int = 300) -> list[float]:
    """x and the k floats on each side of it."""
    xs = [x]
    lo = hi = np.float64(x)
    for _ in range(k):
        lo, hi = np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)
        xs += [float(lo), float(hi)]
    return xs


@settings(FIXED, max_examples=40)
@given(
    st.sampled_from((0.0, 5e-324, 1e-300, 4.0**-3, 1.0 - 2.0**-53))  # 0.0: c^-alpha underflows
    | st.sampled_from((-0.0, -5e-324, 2.2250738585072014e-308, -1.0, 1e300, -1e300, -1e-300))
    | st.floats(0.0, 1.0)
    | st.floats(-1e300, 1e300)
    | st.builds(lambda c, alpha: c**-alpha, st.floats(1.001, 1e3), st.floats(1.01, 400.0))
)
def test_the_admission_cut_is_rel_leq(thr):
    cut = kernel.rel_leq_cut(thr)
    xs = np.array(
        [0.0, -0.0, math.inf, math.nan, -1.0]
        + _floats_around(thr)
        + _floats_around(thr * (1.0 + REL_TOL))
        + _floats_around(cut)
    )
    assert ((xs <= cut) == rel_leq_array(xs, thr)).all()


def _loads_on_the_cut() -> list[tuple[str, Instance, SchedulerConfig]]:
    """Two links on a line, where link 0 (length 4) puts a load on link 1
    (length about 1) of exactly the cut, the float above it, thr, or the
    float below thr.  Link 1's receiver goes to the first of 601 consecutive
    floats around (4 / x)^3 = target where the kernel's term is the target;
    where none is, that separation constant gives no case."""
    cases = []
    for c in np.linspace(1.5, 15.0, 28).tolist():
        cfg = SchedulerConfig(c=c)
        thr = cfg.admit_threshold(3.0)
        cut = kernel.rel_leq_cut(thr)
        targets = {"cut": cut, "above cut": np.nextafter(cut, np.inf),
                   "thr": thr, "below thr": np.nextafter(thr, -np.inf)}
        for name, target in targets.items():
            x0 = np.float64(4.0 * target ** (-1 / 3))  # (4 / x0)^3 = target
            xs = (x0.view(np.int64) + np.arange(-300, 301)).view(np.float64)
            hits = xs[kernel.ratio_power(np.full(len(xs), 4.0), xs, 3.0) == target]
            if len(hits):
                x = float(hits[0])
                points = [[0.0, 0.0], [4.0, 0.0], [x + 1.0, 0.0], [x, 0.0]]
                inst = Instance(EuclideanMetric(points=points), [0, 2], [1, 3],
                                PhysicalParams(alpha=3.0, beta=2.0))
                cases.append((name, inst, cfg))
    return cases


@pytest.mark.parametrize("block", (1, kernel.BLOCK))
def test_greedy_admits_loads_on_the_cut_as_the_column_loop(block):
    cases = _loads_on_the_cut()
    assert {name for name, _, _ in cases} == {"cut", "above cut", "thr", "below thr"}
    for name, inst, cfg in cases:
        with mock.patch.object(kernel, "BLOCK", block):
            sched = greedy_schedule(inst, cfg)
        assert sched == greedy_schedule_columns(inst, cfg)
        # link 1 joins link 0 unless its load is past the cut
        assert sched.length == (2 if name == "above cut" else 1)


@FIXED
@given(st.data())
def test_subset_table_downward_closed_and_matches_slots(data):
    inst = data.draw(grid_instances(max_links=8))
    feasible = subset_table(inst).feasible
    masks = np.arange(len(feasible))
    for v in range(inst.n):
        with_v = masks[(masks >> v & 1) == 1]
        assert not (feasible[with_v] & ~feasible[with_v ^ (1 << v)]).any()
    for mask in data.draw(st.lists(st.integers(1, len(feasible) - 1), min_size=1, max_size=8)):
        members = [v for v in range(inst.n) if mask >> v & 1]
        assert feasible[mask] == slot_feasible(members, inst).feasible


@st.composite
def two_term_loads_on_the_cut(draw, beta: float) -> Instance:
    """Unit link A from 0 to 1 on a line, link B beyond it pointing away,
    and unit link C on the other side pointing at it, whose terms on A add
    up to the cut of 1/beta, give or take up to 300 floats.  B's term is
    most of the load and C's a drawn fraction of it, at most 1e-3; C goes
    where its term is the target less B's, which is exact, so its own
    rounding, far below an ulp of the target, leaves the sum on the target.
    A load of at most two nonzero terms rounds once in any order."""
    params = PhysicalParams(alpha=draw(st.sampled_from((2.0, 3.0))), beta=beta)
    alpha = params.alpha
    cut = kernel.rel_leq_cut(params.affectance_threshold())
    target = cut + draw(st.integers(-3, 3) | st.integers(-300, 300)) * math.ulp(cut)
    share = draw(st.floats(1e-9, 1e-3))  # of the target, from C
    s_b = 1.0 + (target * (1.0 - share)) ** (-1 / alpha)
    points = np.array([[0.0], [1.0], [s_b], [s_b + 1.0], [0.0], [0.0]])

    def term_on_a(sender: int) -> float:
        inst = Instance(EuclideanMetric(points=points), [0, sender], [1, sender + 1], params)
        return float(kernel.terms(inst, points[[sender]], inst.lengths[1:], points[[1]])[0, 0])

    rest = target - term_on_a(2)
    points[4, 0] = 1.0 - rest ** (-1 / alpha)
    points[5, 0] = points[4, 0] + 1.0  # exact, so C's length is 1
    assert 0.0 < rest < target / 2 and term_on_a(2) + term_on_a(4) == target
    order = draw(st.permutations((0, 2, 4)))  # the senders of A, B and C in any order of link ids
    return Instance(EuclideanMetric(points=points), order, [p + 1 for p in order], params)


@pytest.mark.parametrize("beta", (1.5, 2.0, 3.0, 4.0))
@settings(FIXED, max_examples=80)
@given(st.data())
def test_subset_table_decides_two_term_loads_on_the_cut_as_slot_feasible(beta, data):
    # Both sum the same terms, and with at most three links a load has two
    # nonzero terms, so both compare the same float with the same cut.
    inst = data.draw(two_term_loads_on_the_cut(beta))
    with mock.patch.object(kernel, "BLOCK", data.draw(st.sampled_from((1, 8, kernel.BLOCK)))):
        feasible = subset_table(inst).feasible
    for mask in range(1, 8):
        members = [v for v in range(3) if mask >> v & 1]
        assert feasible[mask] == slot_feasible(members, inst).feasible


@settings(FIXED, max_examples=60)
@given(
    st.booleans().flatmap(instances)
    | grid_instances(max_links=12)
    | grid_instances(max_links=12, clusters=4),  # sparse enough for finite bounds
    st.sampled_from((1, 8, kernel.BLOCK)),
)
def test_pruned_measure_is_the_full_scan(inst, block):
    assume(inst.n > 0)
    with mock.patch.object(kernel, "BLOCK", block):  # small blocks stop the scan early
        pruned = interference_measure(range(inst.n), inst)
    # repr compares NaN too: unvalidated instances may give one
    assert repr(pruned) == repr(full_scan_measure(range(inst.n), inst))


@settings(FIXED, max_examples=20)
@given(grid_instances(max_links=12, clusters=4), st.sampled_from((2.0**-20, 0.125, 2.0, 2.0**30)))
def test_scaling_by_a_power_of_two_changes_nothing(inst, scale):
    scaled = Instance(
        EuclideanMetric(points=inst.metric.points * scale), inst.senders, inst.receivers,
        inst.params,
    )
    W, nodes = np.arange(inst.n), inst.used_nodes()
    # the grid and the cheap terms scale with the lengths, so every node's
    # bounds are the same (one-element blocks, so that they are computed at all)
    with mock.patch.object(kernel, "BLOCK", 1):
        assert np.array_equal(
            bounds._node_bounds(scaled, W, nodes), bounds._node_bounds(inst, W, nodes)
        )
    assert interference_measure(W, scaled) == interference_measure(W, inst)
    cfg = SchedulerConfig.auto(inst.params)
    sched = greedy_schedule(inst, cfg)
    assert greedy_schedule(scaled, cfg) == sched
    assert schedule_feasible(sched, scaled) == schedule_feasible(sched, inst)


def _as_matrix(inst: Instance) -> Instance:
    """The same links over the Euclidean distances of their nodes, as a matrix."""
    points = inst.metric.points
    return Instance(MatrixMetric(d=kernel.euclid(points[:, None], points[None, :])),
                    inst.senders, inst.receivers, inst.params)


matrix_instances = st.one_of(
    grid_instances(max_links=8).map(_as_matrix),
    st.builds(line_pseudometric, st.integers(0, 999), st.integers(1, 10)),  # +inf terms
    st.lists(st.integers(1, 5), min_size=1, max_size=3).map(
        lambda a: build_reduction(a, 3.0, 2.0).instance
    ),
)


@settings(FIXED, max_examples=30)
@given(matrix_instances, st.sampled_from((2.0**-20, 0.125, 2.0, 2.0**30)))
def test_scaling_a_matrix_by_a_power_of_two_changes_nothing(inst, scale):
    scaled = Instance(MatrixMetric(d=inst.metric.d * scale), inst.senders, inst.receivers,
                      inst.params)
    W = np.arange(inst.n)
    assert interference_measure(W, scaled) == interference_measure(W, inst)
    greedy = greedy_schedule(inst, SchedulerConfig.auto(inst.params))
    assert greedy_schedule(scaled, SchedulerConfig.auto(inst.params)) == greedy
    optimal = optimal_schedule(inst)
    assert optimal_schedule(scaled) == optimal
    for sched in (greedy, optimal):
        assert schedule_feasible(sched, scaled) == schedule_feasible(sched, inst)


# ---------------------------------------------------------------------------
# Slots whose worst load sits at the affectance threshold, with noise using
# up all but a small part of the budget.


def _worst_load(inst: Instance) -> float:
    """The largest affectance on a link of the slot that holds every link."""
    links = np.arange(inst.n)
    t = link_terms(inst, links, inst.receivers)
    t[links, links] = 0.0
    return float(kernel.ascending_sums(t).max())


@st.composite
def budget_edge_slots(draw) -> tuple[Instance, float]:
    """A valid instance whose relative budget 1 - beta*noise/c_l is drawn from
    1 down to 1e-7, with each sender moved along its link until the worst
    load of the full slot is thr*(1 + eps); returns it and that load."""
    n = draw(st.integers(2, 6))
    cells = draw(st.lists(st.integers(0, 35), min_size=n, max_size=n, unique=True))
    receivers = 10.0 * np.array([divmod(cell, 6) for cell in cells], dtype=float)
    angle = np.array(draw(st.lists(st.floats(0.0, 2 * math.pi), min_size=n, max_size=n)))
    length = np.array(draw(st.lists(st.floats(0.5, 2.0), min_size=n, max_size=n)))
    offsets = length[:, None] * np.stack([np.cos(angle), np.sin(angle)], axis=1)
    beta = draw(st.sampled_from((1.5, 2.0, 3.0)))
    c_l = draw(st.sampled_from((1.0, 2.5)))
    budget = draw(st.sampled_from((1.0, 1e-2, 1e-4, 1e-6, 1e-7)))
    params = PhysicalParams(
        alpha=draw(st.sampled_from((2.5, 3.0, 4.0))),
        beta=beta,
        noise=(1.0 - budget) * c_l / beta,
        c_l=c_l,
    )
    eps = draw(st.sampled_from((0.0, 1e-9, -1e-9, 1e-8, -1e-8, 1e-6, -1e-6)))
    target = params.affectance_threshold() * (1.0 + eps)
    nodes = 2 * np.arange(n)
    scale = 1.0
    for _ in range(40):  # the load grows about as scale**alpha
        points = np.empty((2 * n, 2))
        points[0::2], points[1::2] = receivers + scale * offsets, receivers
        inst = Instance(EuclideanMetric(points=points), nodes, nodes + 1, params)
        load = _worst_load(inst)
        if load == target:
            break
        scale *= (target / load) ** (1.0 / params.alpha)
    assume(abs(load / target - 1.0) <= 1e-12)
    return inst, load


@settings(FIXED, max_examples=300)
@given(budget_edge_slots())
def test_cross_check_agrees_at_small_budgets(case):
    inst, load = case
    p = inst.params
    assert [d for d in validate_instance(inst) if d.severity == "error"] == []
    # Never InternalError: a split of the two forms on the band edge itself
    # keeps the affectance verdict.
    res = slot_feasible(range(inst.n), inst)
    assert res.feasible == bool(rel_leq_array(load, p.affectance_threshold()))


# ---------------------------------------------------------------------------
# Fuzzed documents through the CLI: every one must be handled (exit 0 or 1)
# or rejected with exit 2, never end in an internal error (3) or a traceback.

_PARAMS = {"alpha": 3.0, "beta": 2.0, "noise": 0.0, "c_l": 1.0, "K": 1.0, "m": 2.0}
BASE_DOCS = (
    {
        "schema": "sinr-linsched/1",
        "params": _PARAMS,
        "metric": {
            "type": "euclidean",
            "dim": 2,
            "points": [[0.0, 0.0], [1.0, 0.0], [5.0, 0.0], [6.0, 0.0], [0.0, 8.0], [0.0, 9.5]],
        },
        "links": [{"id": i, "sender": 2 * i, "receiver": 2 * i + 1} for i in range(3)],
    },
    {
        "schema": "sinr-linsched/1",
        "params": _PARAMS,
        "metric": {
            "type": "matrix",
            "d": [[abs(p - q) * 2.0 for q in range(4)] for p in range(4)],
        },
        "links": [{"id": 0, "sender": 0, "receiver": 1}, {"id": 1, "sender": 3, "receiver": 2}],
    },
)

junk = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=3),
    st.integers(-(10**400), 10**400),
    st.floats(),  # NaN and +-inf included: json.dumps writes them as NaN/Infinity
    st.sampled_from(AWKWARD),
    st.lists(st.integers(-2, 8), max_size=3),
    st.dictionaries(st.sampled_from(["id", "x", "type"]), st.integers(-1, 3), max_size=2),
)
matrix_rows = st.one_of(
    # ragged or rectangular rows, with numbers or junk in them
    st.lists(st.lists(finite | st.integers(-3, 3), max_size=5), max_size=5),
    st.lists(st.lists(junk, max_size=4), max_size=4),
)


def _paths(node, prefix=()):
    """Every path (a tuple of keys and indices) to a value inside the document."""
    yield prefix
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _paths(child, prefix + (key,))


def _get(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _replace(doc, path, value):
    if not path:
        return value
    _get(doc, path[:-1])[path[-1]] = value
    return doc


def _delete(doc, path):
    del _get(doc, path[:-1])[path[-1]]
    return doc


def _numeric_paths(doc):
    return [p for p in _paths(doc) if p and type(_get(doc, p)) in (int, float)]


EDITS = st.lists(st.sampled_from(["number", "number", "number", "junk", "delete", "matrix"]), max_size=3)


@st.composite
def fuzzed_documents(draw, edits=EDITS) -> str:
    """A valid base document under up to three edits: a number changed to
    another number, any value below the root replaced by junk, a field
    deleted, or the metric replaced by a ragged or rectangular matrix.  The
    root stays an object, so every edit finds one."""
    doc = copy.deepcopy(draw(st.sampled_from(BASE_DOCS)))
    for action in draw(edits):
        below_root = [p for p in _paths(doc) if p]
        if action == "number":
            paths = _numeric_paths(doc)
            if paths:
                value = draw(st.floats(0.0, 20.0) | st.integers(-1, 6) | finite)
                doc = _replace(doc, draw(st.sampled_from(paths)), value)
        elif action == "junk" and below_root:
            doc = _replace(doc, draw(st.sampled_from(below_root)), draw(junk))
        elif action == "delete" and below_root:
            doc = _delete(doc, draw(st.sampled_from(below_root)))
        elif action == "matrix":
            doc = _replace(doc, ("metric",), {"type": "matrix", "d": draw(matrix_rows)})
    return json.dumps(doc)


@settings(FIXED, max_examples=40)
@given(text=fuzzed_documents(st.lists(st.sampled_from(["junk", "number", "matrix"]), min_size=2, max_size=3)))
def test_fuzzed_documents_keep_an_object_at_the_root(text):
    # junk or a number once replaced the root, and a later matrix edit then
    # indexed a non-object while the document was drawn
    assert isinstance(json.loads(text), dict)


schedules = st.one_of(
    st.lists(st.lists(st.integers(-1, 4), max_size=3), max_size=4),
    st.just([[0], [1], [2]]),
    st.just([[0, 1, 2]]),
    junk,
)


def _run(argv: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, err.getvalue()


@settings(FIXED, max_examples=100)
@given(
    text=fuzzed_documents(),
    slots=schedules,
    own_schedule=st.booleans(),
    c=st.sampled_from(["auto", "4"]),
)
def test_cli_exit_codes_on_fuzzed_instances(tmp_path_factory, text, slots, own_schedule, c):
    d = tmp_path_factory.mktemp("fuzz")
    inst, sched, out = d / "inst.json", d / "sched.json", d / "out.json"
    inst.write_text(text, encoding="utf-8")
    sched.write_text(json.dumps({"schema": "sinr-linsched/1", "slots": slots}), encoding="utf-8")
    code, err = _run(["schedule", "--in", str(inst), "--c", c, "--out", str(out)])
    assert code in (0, 1, 2), ("schedule", code, err, text)
    assert "Traceback" not in err
    if own_schedule and out.exists():
        sched = out  # verify and bound the greedy schedule itself
    for argv in (
        ["verify", "--in", str(inst), "--sched", str(sched)],
        ["bound", "--in", str(inst), "--sched", str(sched), "--c", c],
    ):
        code, err = _run(argv)
        assert code in (0, 1, 2), (argv[0], code, err, text)
        assert "Traceback" not in err


@settings(FIXED, max_examples=100)
@given(text=fuzzed_documents(), cap=st.sampled_from(["16", "20", "0", "-1", "21", "x"]))
def test_oracle_exit_codes_on_fuzzed_instances(tmp_path_factory, text, cap):
    d = tmp_path_factory.mktemp("fuzz")
    inst = d / "inst.json"
    inst.write_text(text, encoding="utf-8")
    for argv in (
        ["exact", "--in", str(inst), "--cap", cap, "--out", str(d / "opt.json")],
        ["decide2", "--in", str(inst), "--cap", cap],
    ):
        code, err = _run(argv)
        assert code in (0, 1, 2), (argv[0], code, err, text)
        assert "Traceback" not in err


# odd float options: NaN, both infinities, zeros, a negative and the ends of
# the float range; reduce also takes 1e306, where beta lets the closure's sums
# overflow
ODD_FLOATS = ["nan", "inf", "-inf", "0", "-0.0", "-2", "1e308", "1e-320"]
ODD_NUMBERS = st.sampled_from([*ODD_FLOATS, "1e306"])
ODD_ENTRIES = st.sampled_from([str(10**30), "0", "-3", "", " ", "x", "1.5", "nan", "1e3", "0x10"])


@st.composite
def reduce_arguments(draw) -> tuple[str, str, str]:
    """alpha, beta and a partition, at most one of them odd (a partition with
    one huge, zero, negative, empty or junk entry)."""
    alpha = draw(st.sampled_from(["1.0000001", "1.5", "2", "3", "4", "1e308"]))
    beta = draw(st.sampled_from(["0.5", "1", "1.7", "2", "3", "1e306"]))
    entries = draw(st.lists(st.integers(1, 40).map(str), min_size=1, max_size=5))
    odd = draw(st.sampled_from(["none", "alpha", "beta", "partition"]))
    if odd == "alpha":
        alpha = draw(ODD_NUMBERS)
    elif odd == "beta":
        beta = draw(ODD_NUMBERS)
    elif odd == "partition":
        entries.insert(draw(st.integers(0, len(entries))), draw(ODD_ENTRIES))
    return alpha, beta, ",".join(entries)


@settings(FIXED, max_examples=150)
@given(args=reduce_arguments())
@example(args=("1.0000001", "1e306", "1,2,3"))  # the closure's sums overflow
@example(args=("3", "2", "3074457345618258602"))  # PARTITION of a value near 2^62
@example(args=("3", "2", "72057594037927937,72057594037927937,2"))  # 2 is lost beside 2^56
def test_reduce_exit_codes_on_fuzzed_arguments(tmp_path_factory, args):
    alpha, beta, partition = args
    d = tmp_path_factory.mktemp("reduce")
    argv = ["reduce", f"--partition={partition}", f"--alpha={alpha}", f"--beta={beta}",
            "--out", str(d / "red.json")]
    code, err = _run(argv)
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err
    if code == 2:  # a refusal writes neither the instance nor its sidecar
        assert list(d.iterdir()) == [], argv
    elif code == 0:  # what reduce writes encodes 2/beta and PARTITION's answer
        report = json.loads((d / "red.verify.json").read_text(encoding="utf-8"))["report"]
        assert report["identity_ok"] is True and report["equivalence_ok"] is not False, argv


# gen's and constants' float options at odd values; gen's --n stays small,
# since gen allocates per link
PARAM_OPTIONS = ["--alpha", "--beta", "--noise", "--cl", "--K", "--m"]
GEN_OPTIONS = [*PARAM_OPTIONS, "--box", "--lmin", "--lmax", "--separation"]
FAMILIES = ["random-euclidean", "collocated", "spread"]
SMALL_N = ["-1", "0", "1", "7"]


def _check_gen(d, family: str, n: str, odd: dict[str, str]) -> None:
    out = d / "inst.json"
    options = {"--alpha": "3", "--beta": "2", "--separation": "2", **odd}
    argv = ["gen", "--family", family, "--n", n, *(f"{k}={v}" for k, v in options.items()),
            "--out", str(out)]
    code, err = _run(argv)
    assert code in (0, 2), (argv, code, err)
    assert "Traceback" not in err
    assert out.exists() == (code == 0), argv
    out.unlink(missing_ok=True)


def _check_constants(odd: dict[str, str]) -> None:
    options = {"--alpha": "3", "--beta": "2", **odd}
    argv = ["constants", *(f"{k}={v}" for k, v in options.items())]
    code, err = _run(argv)
    assert code in (0, 2), (argv, code, err)
    assert "Traceback" not in err


@pytest.mark.parametrize("option", GEN_OPTIONS)
def test_gen_and_constants_exit_codes_on_each_odd_float(tmp_path, option):
    for value in ODD_FLOATS:
        for family in FAMILIES:
            for n in SMALL_N:
                _check_gen(tmp_path, family, n, {option: value})
        if option in PARAM_OPTIONS:
            _check_constants({option: value})


@settings(FIXED, max_examples=100)
@given(
    family=st.sampled_from(FAMILIES),
    n=st.sampled_from(SMALL_N),
    odd=st.dictionaries(st.sampled_from(GEN_OPTIONS), st.sampled_from(ODD_FLOATS), min_size=2, max_size=4),
)
def test_gen_and_constants_exit_codes_on_fuzzed_arguments(tmp_path_factory, family, n, odd):
    _check_gen(tmp_path_factory.mktemp("gen"), family, n, odd)
    _check_constants({k: v for k, v in odd.items() if k in PARAM_OPTIONS})
