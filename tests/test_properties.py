"""Property tests: bit-exact JSON round trips, validation against its
per-offender reference, invariance under relabelling links, the subset table
against slot feasibility, the raw-SINR cross-check at the edge of small
budgets, and CLI exit codes on fuzzed instance documents.
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

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from linsched import (
    EuclideanMetric,
    Instance,
    PhysicalParams,
    cli,
    kernel,
    load_instance,
    save_instance,
    validate_instance,
)
from linsched.bounds import interference_measure
from linsched.model import REL_TOL, InternalError, MatrixMetric
from linsched.oracle import subset_table
from linsched.sinr import slot_feasible

from conftest import affectance_on
from reference import aggregate_per_code, validate_instance_reference

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


# ---------------------------------------------------------------------------
# Valid instances on a small integer grid, where coincident nodes give +inf
# terms.


@st.composite
def grid_instances(draw, max_links: int = 6) -> Instance:
    n = draw(st.integers(1, max_links))
    coord = st.integers(0, 8)
    step = st.tuples(st.integers(-2, 2), st.integers(-2, 2)).filter(lambda s: s != (0, 0))
    points = []
    for _ in range(n):
        x, y = draw(coord), draw(coord)
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


# ---------------------------------------------------------------------------
# Slots whose worst load sits at the affectance threshold, with noise using
# up all but a small part of the budget.


def _worst_load(inst: Instance) -> float:
    """The largest affectance on a link of the slot that holds every link."""
    links = np.arange(inst.n)
    t = kernel.terms(inst, links, inst.receivers)
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
    try:
        slot_feasible(range(inst.n), inst)
    except InternalError:
        # Only a load on the edge of the band itself may split the two forms.
        # Each form rounds its own budget, by up to an ulp of 1/beta and of
        # noise/c_l relative to thr, and its own loads, by a few dozen ulps.
        thr = p.affectance_threshold()
        window = sys.float_info.epsilon * ((1 / p.beta + p.noise / p.c_l) / thr + 64)
        assert abs(load / (thr * (1 + REL_TOL)) - 1) <= window


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


@st.composite
def fuzzed_documents(draw) -> str:
    """A valid base document under up to three edits: a number changed to
    another number, any value replaced by junk, a field deleted, or the
    metric replaced by a ragged or rectangular matrix."""
    doc = copy.deepcopy(draw(st.sampled_from(BASE_DOCS)))
    edits = st.sampled_from(["number", "number", "number", "junk", "delete", "matrix"])
    for action in draw(st.lists(edits, max_size=3)):
        if action == "number":
            value = draw(st.floats(0.0, 20.0) | st.integers(-1, 6) | finite)
            doc = _replace(doc, draw(st.sampled_from(_numeric_paths(doc) or [()])), value)
        elif action == "junk":
            doc = _replace(doc, draw(st.sampled_from(list(_paths(doc)))), draw(junk))
        elif action == "delete":
            paths = [p for p in _paths(doc) if p]
            if paths:
                doc = _delete(doc, draw(st.sampled_from(paths)))
        else:
            doc = _replace(doc, ("metric",), {"type": "matrix", "d": draw(matrix_rows)})
    return json.dumps(doc)


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
