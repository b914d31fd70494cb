from __future__ import annotations

import json
import math

import pytest

from linsched import (
    EuclideanMetric,
    FormatError,
    Instance,
    Link,
    MatrixMetric,
    PhysicalParams,
    Schedule,
    check_partition,
    distance,
    load_instance,
    load_schedule,
    save_instance,
    save_schedule,
    validate_instance,
)
from linsched.gen import SplitMix64

from conftest import make_random_instance


def test_euclidean_distance_pythagorean():
    metric = EuclideanMetric(points=((0.0, 0.0), (3.0, 4.0)))
    assert distance(metric, 0, 1) == 5.0
    assert distance(metric, 1, 0) == 5.0


def test_distance_to_self_is_zero():
    metric = EuclideanMetric(points=((1.5, -2.0), (3.0, 4.0)))
    assert distance(metric, 0, 0) == 0.0
    matrix = MatrixMetric(d=((0.0, 2.0), (2.0, 0.0)))
    assert distance(matrix, 1, 1) == 0.0


def test_distance_index_out_of_range():
    metric = EuclideanMetric(points=((0.0, 0.0),))
    with pytest.raises(IndexError):
        distance(metric, 0, 1)
    with pytest.raises(IndexError):
        distance(metric, -1, 0)


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
        links=(Link(0, 0, 1),),
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
        links=(Link(0, 0, 1),),
        params=PhysicalParams(alpha=3.0, beta=2.0),
    )
    errors = [x for x in validate_instance(inst) if x.severity == "error"]
    assert any(x.code == "triangle-violation" and "0,1,2" in x.message for x in errors)
    # the check is skippable
    skipped = validate_instance(inst, check_triangle=False)
    assert not any(x.code == "triangle-violation" for x in skipped)


def test_validate_zero_length_link():
    inst = Instance(
        metric=MatrixMetric(d=((0.0, 0.0), (0.0, 0.0))),
        links=(Link(0, 0, 1),),
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
        links=(Link(0, 0, 1),),
        params=PhysicalParams(alpha=3.0, beta=2.0),
    )
    diags = validate_instance(inst)
    assert [x for x in diags if x.severity == "error"] == []
    assert any(x.code == "pseudometric-zero" for x in diags)


def test_validate_alpha_condition_warning():
    inst = Instance(
        metric=EuclideanMetric(points=((0.0, 0.0), (1.0, 0.0))),
        links=(Link(0, 0, 1),),
        params=PhysicalParams(alpha=1.5, beta=2.0, m=2.0),
    )
    diags = validate_instance(inst)
    assert any(x.code == "alpha-condition" and x.severity == "warning" for x in diags)
    assert [x for x in diags if x.severity == "error"] == []


def test_validate_link_id_and_range_errors():
    metric = EuclideanMetric(points=((0.0, 0.0), (1.0, 0.0)))
    params = PhysicalParams(alpha=3.0, beta=2.0)
    bad_ids = Instance(metric=metric, links=(Link(1, 0, 1),), params=params)
    assert any(d.code == "link-ids" for d in validate_instance(bad_ids))
    # ids must be positional: schedules name links by id, algorithms by index
    swapped = Instance(metric=metric, links=(Link(1, 0, 1), Link(0, 1, 0)), params=params)
    assert any(d.code == "link-ids" for d in validate_instance(swapped))
    bad_node = Instance(metric=metric, links=(Link(0, 0, 5),), params=params)
    assert any(d.code == "link-node-range" for d in validate_instance(bad_node))


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
        links=(Link(0, 0, 1), Link(1, 1, 2)),
        params=PhysicalParams(alpha=2.5, beta=1.5, noise=0.01, c_l=2.0, K=1.0, m=2.0),
    )
    assert load_instance(save_instance(inst)) == inst


def test_round_trip_preserves_awkward_floats():
    pts = ((0.1 + 0.2, 1.0 / 3.0), (math.pi, math.e))
    inst = Instance(
        metric=EuclideanMetric(points=pts),
        links=(Link(0, 0, 1),),
        params=PhysicalParams(alpha=3.0, beta=2.0),
    )
    again = load_instance(save_instance(inst))
    assert again.metric.points == pts


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
    links = (Link(0, 0, 1),)
    euclid = Instance(EuclideanMetric(points=((0.0, 0.0), (math.nan, 1.0))), links, params)
    matrix = Instance(MatrixMetric(d=((0.0, math.inf), (math.inf, 0.0))), links, params)
    for inst in (euclid, matrix):
        assert any(d.code == "non-finite" for d in validate_instance(inst))


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
            links=(Link(0, 0, 1),),
            params=PhysicalParams(alpha=3.0, beta=2.0),
        )
        errors = [x for x in validate_instance(inst) if x.severity == "error"]
        assert errors == []


def test_lengths_positive_after_validation():
    for seed in range(5):
        inst = make_random_instance(seed=seed, n=6)
        assert [d for d in validate_instance(inst) if d.severity == "error"] == []
        assert all(length > 0 for length in inst.lengths)
