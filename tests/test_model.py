from __future__ import annotations

import json
import math

import pytest

from linsched import (
    EuclideanMetric,
    FormatError,
    Instance,
    PhysicalParams,
    kernel,
    load_instance,
    load_schedule,
    save_instance,
    save_schedule,
    validate_instance,
)
from linsched.model import Diagnostic, MatrixMetric, Schedule, check_partition
from linsched.gen import SplitMix64

import reference as ref
from conftest import make_random_instance


def _pairs(metric, senders, receivers):
    return Instance(metric, senders, receivers, PhysicalParams(alpha=3.0, beta=2.0))


def test_euclidean_distance_pythagorean():
    inst = _pairs(EuclideanMetric(points=((0.0, 0.0), (3.0, 4.0))), [0, 1], [1, 0])
    assert inst.lengths.tolist() == [5.0, 5.0]
    assert kernel.dist(inst, inst.senders, inst.receivers).tolist() == [[5.0, 0.0], [0.0, 5.0]]


def test_distance_to_self_is_zero():
    inst = _pairs(EuclideanMetric(points=((1.5, -2.0), (3.0, 4.0))), [0], [0])
    assert inst.lengths.tolist() == [0.0]
    assert kernel.dist(inst, inst.senders, inst.receivers).tolist() == [[0.0]]
    inst = _pairs(MatrixMetric(d=((0.0, 2.0), (2.0, 0.0))), [1, 0], [1, 1])
    assert inst.lengths.tolist() == [0.0, 2.0]
    assert kernel.dist(inst, inst.senders, inst.receivers).tolist() == [[0.0, 0.0], [2.0, 2.0]]


def test_distance_index_out_of_range():
    # links naming a node the metric lacks are caught by validation
    metric = EuclideanMetric(points=((0.0, 0.0),))
    for senders, receivers in (([0], [1]), ([-1], [0])):
        codes = [d.code for d in validate_instance(_pairs(metric, senders, receivers))]
        assert codes == ["link-node-range"]


def test_physical_params_rejects_bad_values():
    with pytest.raises(ValueError):
        PhysicalParams(alpha=1.0, beta=2.0)
    with pytest.raises(ValueError):
        PhysicalParams(alpha=3.0, beta=0.0)
    with pytest.raises(ValueError):
        PhysicalParams(alpha=3.0, beta=2.0, noise=-0.1)
    with pytest.raises(ValueError):
        PhysicalParams(alpha=3.0, beta=2.0, c_l=0.0)
    with pytest.raises(ValueError):
        PhysicalParams(alpha=3.0, beta=2.0, K=0.5)
    with pytest.raises(ValueError):
        PhysicalParams(alpha=3.0, beta=2.0, m=0.5)
    # NaN fails every comparison, so each check must be written to reject it
    for field in ("alpha", "beta", "noise", "c_l", "K", "m"):
        for bad in (math.nan, math.inf):
            kwargs = {"alpha": 3.0, "beta": 2.0, field: bad}
            with pytest.raises(ValueError, match=field):
                PhysicalParams(**kwargs)


def test_validate_clean_random_instance():
    inst = make_random_instance(seed=7, n=10)
    diags = validate_instance(inst)
    assert [d for d in diags if d.severity == "error"] == []


def test_validate_singleton_infeasible_boundary():
    params = PhysicalParams(alpha=3.0, beta=2.0, noise=0.5, c_l=1.0)  # c_l = beta*noise
    inst = Instance(
        metric=EuclideanMetric(points=((0.0, 0.0), (1.0, 0.0))),
        senders=[0],
        receivers=[1],
        params=params,
    )
    errors = [d for d in validate_instance(inst) if d.severity == "error"]
    assert any(d.code == "singleton-infeasible" for d in errors)


def test_validate_triangle_violation_names_triple():
    d = (
        (0.0, 1.0, 2.001),
        (1.0, 0.0, 1.0),
        (2.001, 1.0, 0.0),
    )
    inst = Instance(
        metric=MatrixMetric(d=d),
        senders=[0],
        receivers=[1],
        params=PhysicalParams(alpha=3.0, beta=2.0),
    )
    errors = [x for x in validate_instance(inst) if x.severity == "error"]
    assert any(x.code == "triangle-violation" and "0,1,2" in x.message for x in errors)
    # the check is skippable
    skipped = validate_instance(inst, check_triangle=False)
    assert not any(x.code == "triangle-violation" for x in skipped)


def _matrix_instance(d):
    return Instance(
        metric=MatrixMetric(d=d),
        senders=[0],
        receivers=[1],
        params=PhysicalParams(alpha=3.0, beta=2.0),
    )


def test_validate_matrix_diagnostics_exact():
    # one diagnostic per code: the count, then the first three offenders in
    # (p, q, r) order, values printed as plain floats
    d = (
        (0.0, 0.1, 0.5, 0.1),
        (0.1, 0.0, 0.2, 0.1),
        (0.5, 0.2, 0.0, 0.3),
        (0.1, 0.1, 0.3, 0.0),
    )
    triangle = "triangle-violation"
    per_triple = [
        "d(0,2) = 0.5 exceeds d(0,1) + d(1,2) = 0.30000000000000004 (triple 0,1,2)",
        "d(0,2) = 0.5 exceeds d(0,3) + d(3,2) = 0.4 (triple 0,3,2)",
        "d(2,0) = 0.5 exceeds d(2,1) + d(1,0) = 0.30000000000000004 (triple 2,1,0)",
        "d(2,0) = 0.5 exceeds d(2,3) + d(3,0) = 0.4 (triple 2,3,0)",
    ]
    inst = _matrix_instance(d)
    assert validate_instance(inst) == [
        Diagnostic("error", triangle, "4 errors, the first 3: " + "; ".join(per_triple[:3]))
    ]
    # the reference still names every triple
    assert ref.validate_instance_reference(inst) == [
        Diagnostic("error", triangle, message) for message in per_triple
    ]
    assert validate_instance(inst, check_triangle=False) == []
    # entry checks in the order they run, each code's offenders in row order
    d = (
        (0.5, 1.0, -2.0),
        (1.0, 0.0, 0.0),
        (-1.0, 0.0, 0.25),
    )
    inst = _matrix_instance(d)
    diagonal = ["d(0,0) = 0.5, expected 0", "d(2,2) = 0.25, expected 0"]
    assert validate_instance(inst) == [
        Diagnostic("error", "matrix-diagonal", "2 errors, the first 2: " + "; ".join(diagonal)),
        Diagnostic("error", "matrix-asymmetric", "d(0,2) = -2.0 but d(2,0) = -1.0"),
        Diagnostic("error", "matrix-negative", "d(0,2) = -2.0 < 0"),
        Diagnostic("warning", "pseudometric-zero", "distinct nodes 1 and 2 are at distance 0"),
    ]
    assert ref.validate_instance_reference(inst) == [
        Diagnostic("error", "matrix-diagonal", diagonal[0]),
        Diagnostic("error", "matrix-asymmetric", "d(0,2) = -2.0 but d(2,0) = -1.0"),
        Diagnostic("error", "matrix-negative", "d(0,2) = -2.0 < 0"),
        Diagnostic("warning", "pseudometric-zero", "distinct nodes 1 and 2 are at distance 0"),
        Diagnostic("error", "matrix-diagonal", diagonal[1]),
    ]
    rectangular = _matrix_instance(((0.0, 1.0, 2.0), (1.0, 0.0, 1.0)))
    for check_triangle in (True, False):
        assert validate_instance(rectangular, check_triangle) == [
            Diagnostic("error", "matrix-shape", "distance matrix is not square")
        ]


def test_validate_zero_length_link():
    inst = Instance(
        metric=MatrixMetric(d=((0.0, 0.0), (0.0, 0.0))),
        senders=[0],
        receivers=[1],
        params=PhysicalParams(alpha=3.0, beta=2.0),
    )
    errors = [x for x in validate_instance(inst) if x.severity == "error"]
    assert any(x.code == "zero-length-link" for x in errors)


def test_validate_pseudometric_zero_pair_is_warning_only():
    d = (
        (0.0, 1.0, 0.0),
        (1.0, 0.0, 1.0),
        (0.0, 1.0, 0.0),
    )
    inst = Instance(
        metric=MatrixMetric(d=d),
        senders=[0],
        receivers=[1],
        params=PhysicalParams(alpha=3.0, beta=2.0),
    )
    diags = validate_instance(inst)
    assert [x for x in diags if x.severity == "error"] == []
    assert any(x.code == "pseudometric-zero" for x in diags)


def test_validate_alpha_condition_warning():
    inst = Instance(
        metric=EuclideanMetric(points=((0.0, 0.0), (1.0, 0.0))),
        senders=[0],
        receivers=[1],
        params=PhysicalParams(alpha=1.5, beta=2.0, m=2.0),
    )
    diags = validate_instance(inst)
    assert any(x.code == "alpha-condition" and x.severity == "warning" for x in diags)
    assert [x for x in diags if x.severity == "error"] == []
    # m >= 2^53: m + 1.0 rounds to m, but m + 1 - ceil(m) is still 1
    huge_m = Instance(
        inst.metric, inst.senders, inst.receivers, PhysicalParams(alpha=3.0, beta=2.0, m=1e17)
    )
    assert validate_instance(huge_m) == [
        Diagnostic(
            "warning",
            "alpha-condition",
            "alpha*(m+1-ceil(m)) = 3.0 must exceed m = 1e+17 (alpha = 3.0); "
            "the greedy feasibility guarantee does not apply",
        )
    ]


def test_validate_link_id_and_range_errors():
    # ids must be positional: schedules name links by id, algorithms by index
    doc = json.loads(save_instance(make_random_instance(seed=1, n=2)))
    for ids in ([1, 1], [1, 0], [0, 2]):
        bad = json.loads(json.dumps(doc))
        for link, link_id in zip(bad["links"], ids):
            link["id"] = link_id
        with pytest.raises(FormatError, match="link-ids"):
            load_instance(json.dumps(bad))
    metric = EuclideanMetric(points=((0.0, 0.0), (1.0, 0.0)))
    bad_node = _pairs(metric, [0, 1, -1], [5, 0, 1])
    message = "link {} references node out of range (sender={}, receiver={}, n_nodes=2)"
    per_link = [message.format(0, 0, 5), message.format(2, -1, 1)]
    assert validate_instance(bad_node) == [
        Diagnostic("error", "link-node-range", "2 errors, the first 2: " + "; ".join(per_link))
    ]
    assert ref.validate_instance_reference(bad_node) == [
        Diagnostic("error", "link-node-range", text) for text in per_link
    ]
    # node indices beyond int64 cannot be stored
    with pytest.raises(ValueError, match="int64"):
        _pairs(metric, [2**70], [1])
    doc["links"][1]["sender"] = 2**70
    with pytest.raises(FormatError, match="senders must be node indices"):
        load_instance(json.dumps(doc))
    with pytest.raises(ValueError, match="2 senders but 1 receivers"):
        _pairs(metric, [0, 1], [1])


def test_validate_infinite_length_link():
    # both points are finite, but 2e308 is beyond the float range
    inst = _pairs(EuclideanMetric(points=((-1e308, 0.0), (1e308, 0.0))), [0], [1])
    assert inst.lengths.tolist() == [math.inf]
    message = "link 0 has length inf, beyond the float range"
    assert validate_instance(inst) == [Diagnostic("error", "infinite-length-link", message)]


def test_instance_round_trip():
    inst = make_random_instance(seed=3, n=3)
    text = save_instance(inst)
    again = load_instance(text)
    assert again == inst
    # and a second save is byte-identical
    assert save_instance(again) == text


def test_matrix_instance_round_trip():
    d = (
        (0.0, 1.25, 2.5),
        (1.25, 0.0, 1.3),
        (2.5, 1.3, 0.0),
    )
    inst = Instance(
        metric=MatrixMetric(d=d),
        senders=[0, 1],
        receivers=[1, 2],
        params=PhysicalParams(alpha=2.5, beta=1.5, noise=0.01, c_l=2.0, K=1.0, m=2.0),
    )
    assert load_instance(save_instance(inst)) == inst


def test_round_trip_preserves_awkward_floats():
    pts = ((0.1 + 0.2, 1.0 / 3.0), (math.pi, math.e))
    inst = Instance(
        metric=EuclideanMetric(points=pts),
        senders=[0],
        receivers=[1],
        params=PhysicalParams(alpha=3.0, beta=2.0),
    )
    again = load_instance(save_instance(inst))
    assert again.metric == EuclideanMetric(points=pts)


def test_load_rejects_unknown_field():
    inst = make_random_instance(seed=1, n=2)
    text = save_instance(inst).replace('"links"', '"linkz"')
    with pytest.raises(FormatError, match="linkz|links"):
        load_instance(text)


def test_load_rejects_wrong_schema():
    inst = make_random_instance(seed=1, n=2)
    text = save_instance(inst).replace("sinr-linsched/1", "sinr-linsched/2")
    with pytest.raises(FormatError, match="schema"):
        load_instance(text)


def test_load_rejects_bad_json():
    with pytest.raises(FormatError, match="JSON"):
        load_instance("{not json")


def test_load_rejects_non_numeric_param():
    inst = make_random_instance(seed=1, n=2)
    text = save_instance(inst).replace('"alpha": 3.0', '"alpha": "three"')
    with pytest.raises(FormatError, match="alpha"):
        load_instance(text)


def test_load_rejects_non_finite_numbers():
    text = save_instance(make_random_instance(seed=1, n=2))
    for old, new in [
        ('"noise": 0.0', '"noise": NaN'),
        ('"K": 1.0', '"K": Infinity'),
        ('"alpha": 3.0', '"alpha": 1' + "0" * 400),
    ]:
        with pytest.raises(FormatError, match="finite"):
            load_instance(text.replace(old, new))
    doc = json.loads(text)
    for bad in (math.nan, -math.inf):
        doc["metric"]["points"][0][1] = bad
        with pytest.raises(FormatError, match="finite"):
            load_instance(json.dumps(doc))


def test_validate_rejects_non_finite_metric():
    params = PhysicalParams(alpha=3.0, beta=2.0)
    euclid = Instance(EuclideanMetric(points=((0.0, 0.0), (math.nan, 1.0))), [0], [1], params)
    matrix = Instance(MatrixMetric(d=((0.0, math.inf), (math.inf, 0.0))), [0], [1], params)
    for inst in (euclid, matrix):
        assert any(d.code == "non-finite" for d in validate_instance(inst))
    # many non-finite points: counted, the first three named in index order
    points = ((math.inf, 0.0), (0.0, 0.0), (math.nan, 1.0), (0.0, -math.inf), (math.nan, 0.0))
    inst = Instance(EuclideanMetric(points=points), [1], [0], params)
    named = "; ".join(f"point {i} = {points[i]!r} is not finite" for i in (0, 2, 3))
    assert validate_instance(inst) == [
        Diagnostic("error", "non-finite", f"4 errors, the first 3: {named}")
    ]
    assert ref.aggregate_per_code(ref.validate_instance_reference(inst)) == validate_instance(inst)


def test_load_rejects_wrong_container_types():
    import json as _json

    base = _json.loads(save_instance(make_random_instance(seed=1, n=2)))
    for field, value in [
        ("links", 42),
        ("params", [1, 2]),
        ("metric", {"type": "euclidean", "dim": 2, "points": 7}),
    ]:
        doc = dict(base)
        doc[field] = value
        with pytest.raises(FormatError, match=field.split(".")[0]):
            load_instance(_json.dumps(doc))
    # a ragged distance matrix cannot be stored as an array
    doc = dict(base, metric={"type": "matrix", "d": [[0.0, 1.0], [1.0]]})
    with pytest.raises(FormatError, match=r"metric\.d\[1\] has 1 entries, expected 2"):
        load_instance(_json.dumps(doc))


def test_schedule_round_trip_and_partition_check():
    inst = make_random_instance(seed=2, n=4)
    sched = Schedule(slots=(frozenset({0, 2}), frozenset({1, 3})))
    again = load_schedule(save_schedule(sched))
    assert again == sched
    assert check_partition(again, inst) == []

    missing = Schedule(slots=(frozenset({0, 2}), frozenset({1})))
    problems = check_partition(missing, inst)
    assert any("not a partition" in p for p in problems)

    dup = Schedule(slots=(frozenset({0, 1}), frozenset({1, 2, 3})))
    assert any("repeats" in p for p in check_partition(dup, inst))

    empty = Schedule(slots=(frozenset({0, 1, 2, 3}), frozenset()))
    assert any("empty" in p for p in check_partition(empty, inst))


def test_matrix_symmetry_and_triangle_property():
    # Distance matrices built from embedded points must always validate.
    rng = SplitMix64(99)
    for _ in range(20):
        pts = [(rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(6)]
        d = tuple(
            tuple(math.dist(p, q) for q in pts) for p in pts
        )
        inst = Instance(
            metric=MatrixMetric(d=d),
            senders=[0],
            receivers=[1],
            params=PhysicalParams(alpha=3.0, beta=2.0),
        )
        errors = [x for x in validate_instance(inst) if x.severity == "error"]
        assert errors == []


def test_lengths_positive_after_validation():
    for seed in range(5):
        inst = make_random_instance(seed=seed, n=6)
        assert [d for d in validate_instance(inst) if d.severity == "error"] == []
        assert all(length > 0 for length in inst.lengths)


# Every FormatError branch of the loaders, one malformed document each, with
# the exact message.  Each case changes one value of a valid document; the
# path names it, and _DELETE removes the field instead.
_DELETE = object()
_INSTANCE = {
    "schema": "sinr-linsched/1",
    "params": {"alpha": 3.0, "beta": 2.0, "noise": 0.0, "c_l": 1.0, "K": 1.0, "m": 2.0},
    "metric": {"type": "euclidean", "dim": 2, "points": [[0.0, 0.0], [1.0, 0.0]]},
    "links": [{"id": 0, "sender": 0, "receiver": 1}],
}
_MATRIX = dict(_INSTANCE, metric={"type": "matrix", "d": [[0.0, 1.0], [1.0, 0.0]]})
_SCHEDULE = {"schema": "sinr-linsched/1", "slots": [[0]]}


def _changed(base, path, value):
    if not path:
        return value
    doc = json.loads(json.dumps(base))
    *parents, key = path
    obj = doc
    for step in parents:
        obj = obj[step]
    if value is _DELETE:
        del obj[key]
    else:
        obj[key] = value
    return doc


_INSTANCE_CASES = [
    # missing field
    (_INSTANCE, ("schema",), _DELETE, "missing field 'schema' in instance document"),
    (_INSTANCE, ("params",), _DELETE, "missing field 'params' in instance document"),
    (_INSTANCE, ("metric",), _DELETE, "missing field 'metric' in instance document"),
    (_INSTANCE, ("links",), _DELETE, "missing field 'links' in instance document"),
    (_INSTANCE, ("params", "beta"), _DELETE, "missing field 'beta' in params"),
    (_INSTANCE, ("params", "m"), _DELETE, "missing field 'm' in params"),
    (_INSTANCE, ("metric", "type"), _DELETE, "missing field 'type' in metric"),
    (_INSTANCE, ("metric", "dim"), _DELETE, "missing field 'dim' in metric"),
    (_INSTANCE, ("metric", "points"), _DELETE, "missing field 'points' in metric"),
    (_MATRIX, ("metric", "d"), _DELETE, "missing field 'd' in metric"),
    (_INSTANCE, ("links", 0, "id"), _DELETE, "missing field 'id' in links[0]"),
    (_INSTANCE, ("links", 0, "receiver"), _DELETE, "missing field 'receiver' in links[0]"),
    # unknown field
    (_INSTANCE, ("extra",), 1, "unknown field 'extra' in instance document"),
    (_INSTANCE, ("params", "gamma"), 1.0, "unknown field 'gamma' in params"),
    (_INSTANCE, ("metric", "d"), [[0.0]], "unknown field 'd' in metric"),
    (_MATRIX, ("metric", "dim"), 2, "unknown field 'dim' in metric"),
    (_INSTANCE, ("links", 0, "weight"), 1, "unknown field 'weight' in links[0]"),
    (_INSTANCE, ("metric", "type"), "polar", "unknown metric type 'polar'"),
    # wrong schema
    (
        _INSTANCE, ("schema",), "sinr-linsched/2",
        "unsupported schema 'sinr-linsched/2', expected 'sinr-linsched/1'",
    ),
    # non-object or non-array container
    (_INSTANCE, (), [], "instance document must be a JSON object"),
    (_INSTANCE, ("params",), [1, 2], "field 'params' must be a JSON object"),
    (_INSTANCE, ("metric",), "euclidean", "field 'metric' must be a JSON object"),
    (_INSTANCE, ("links", 0), 7, "field 'links[0]' must be a JSON object"),
    (_INSTANCE, ("links",), 42, "field 'links' must be a JSON array"),
    (_INSTANCE, ("metric", "points"), 7, "field 'metric.points' must be a JSON array"),
    (_INSTANCE, ("metric", "points", 1), {"x": 1}, "field 'metric.points[1]' must be a JSON array"),
    (_MATRIX, ("metric", "d"), {}, "field 'metric.d' must be a JSON array"),
    (_MATRIX, ("metric", "d", 0), 0.0, "field 'metric.d[0]' must be a JSON array"),
    # non-number
    (_INSTANCE, ("params", "alpha"), "three", "field 'params.alpha' must be a number, got 'three'"),
    (_INSTANCE, ("params", "m"), True, "field 'params.m' must be a number, got True"),
    (_INSTANCE, ("metric", "points", 1, 0), None, "field 'metric.points[1]' must be a number, got None"),
    (_MATRIX, ("metric", "d", 1, 0), "1", "field 'metric.d[1]' must be a number, got '1'"),
    # non-finite
    (_INSTANCE, ("params", "noise"), math.nan, "field 'params.noise' must be a finite number, got nan"),
    (_INSTANCE, ("params", "K"), math.inf, "field 'params.K' must be a finite number, got inf"),
    (
        _INSTANCE, ("params", "alpha"), 10**400,
        f"field 'params.alpha' must be a finite number, got {10**400!r}",
    ),
    (
        _INSTANCE, ("metric", "points", 0, 1), -math.inf,
        "field 'metric.points[0]' must be a finite number, got -inf",
    ),
    (_MATRIX, ("metric", "d", 0, 1), math.nan, "field 'metric.d[0]' must be a finite number, got nan"),
    # over-range integer
    (
        _INSTANCE, ("links", 0, "sender"), 2**70,
        "invalid links: senders must be node indices within the int64 range",
    ),
    (
        _INSTANCE, ("links", 0, "receiver"), -(2**70),
        "invalid links: receivers must be node indices within the int64 range",
    ),
    # non-integer index
    (_INSTANCE, ("metric", "dim"), 2.0, "field 'metric.dim' must be an integer, got 2.0"),
    (_INSTANCE, ("links", 0, "id"), "0", "field 'links[0].id' must be an integer, got '0'"),
    (_INSTANCE, ("links", 0, "sender"), False, "field 'links[0].sender' must be an integer, got False"),
    (_INSTANCE, ("links", 0, "receiver"), 1.0, "field 'links[0].receiver' must be an integer, got 1.0"),
    # wrong dim, ragged d row, link id != position
    (_INSTANCE, ("metric", "dim"), 3, "metric.points[0] has 2 coordinates, expected dim=3"),
    (_INSTANCE, ("metric", "points", 1), [1.0], "metric.points[1] has 1 coordinates, expected dim=2"),
    (_MATRIX, ("metric", "d", 1), [1.0], "metric.d[1] has 1 entries, expected 2 as in metric.d[0]"),
    (
        _INSTANCE, ("links", 0, "id"), 1,
        "field 'links[0].id' is 1, but link ids must equal their positions (link-ids)",
    ),
    # parameters out of their domain
    (_INSTANCE, ("params", "alpha"), 1.0, "invalid params: alpha must be > 1, got 1.0"),
    (_INSTANCE, ("params", "c_l"), 0.0, "invalid params: c_l must be > 0, got 0.0"),
]

_SCHEDULE_CASES = [
    (_SCHEDULE, ("schema",), _DELETE, "missing field 'schema' in schedule document"),
    (_SCHEDULE, ("slots",), _DELETE, "missing field 'slots' in schedule document"),
    (_SCHEDULE, ("extra",), 1, "unknown field 'extra' in schedule document"),
    (_SCHEDULE, ("schema",), 1, "unsupported schema 1, expected 'sinr-linsched/1'"),
    (_SCHEDULE, (), "x", "schedule document must be a JSON object"),
    (_SCHEDULE, ("slots",), {}, "field 'slots' must be a JSON array"),
    (_SCHEDULE, ("slots", 0), 0, "field 'slots[0]' must be a JSON array"),
    (_SCHEDULE, ("slots", 0, 0), 0.5, "field 'slots[0]' must be an integer, got 0.5"),
    (_SCHEDULE, ("slots", 0, 0), None, "field 'slots[0]' must be an integer, got None"),
    (_SCHEDULE, ("slots",), [[1], [0, 2, 0]], "slots[1] repeats link id 0"),
]


@pytest.mark.parametrize(
    "loader, base, path, value, message",
    [(load_instance, *case) for case in _INSTANCE_CASES]
    + [(load_schedule, *case) for case in _SCHEDULE_CASES],
)
def test_loader_messages_exact(loader, base, path, value, message):
    text = json.dumps(_changed(base, path, value))
    with pytest.raises(FormatError) as exc:
        loader(text)
    assert str(exc.value) == message


def test_loader_bad_json_message_exact():
    for loader, where in ((load_instance, "instance document"), (load_schedule, "schedule document")):
        with pytest.raises(FormatError) as exc:
            loader("{not json")
        assert str(exc.value) == (
            f"invalid JSON in {where}: Expecting property name enclosed in double quotes: "
            "line 1 column 2 (char 1)"
        )


def test_loader_accepts_the_unchanged_documents():
    assert load_instance(json.dumps(_INSTANCE)).lengths.tolist() == [1.0]
    assert load_instance(json.dumps(_MATRIX)).lengths.tolist() == [1.0]
    assert load_schedule(json.dumps(_SCHEDULE)).slots == (frozenset({0}),)
