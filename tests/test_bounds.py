from __future__ import annotations

import numpy as np
import pytest

from linsched import (
    EuclideanMetric,
    Instance,
    PhysicalParams,
    SchedulerConfig,
    bound_report,
    greedy_schedule,
    kernel,
)
from linsched.bounds import interference_measure
from linsched.gen import collocated
from linsched.model import Schedule

import reference as ref
from conftest import make_random_instance


def line_instance(params):
    pts = ((0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (3.0, 0.0))
    return Instance(
        metric=EuclideanMetric(points=pts),
        senders=[0],
        receivers=[1],
        params=params,
    )


def capped_terms(inst, nodes):
    """min(1, term) of every link at each of ``nodes``, from the kernel."""
    return np.minimum(kernel.terms(inst, np.arange(inst.n), np.asarray(nodes)), 1.0)


def test_interference_capped_at_own_sender(params):
    inst = line_instance(params)
    assert capped_terms(inst, [0]).tolist() == [[1.0]]
    assert ref.interference_at(0, [0], inst) == 1.0
    # the measure's maximum sits on the sender
    assert interference_measure([0], inst) == (1.0, 0)


def test_interference_single_term_value(params):
    inst = line_instance(params)
    # node 2 is at distance 2 from the sender, link length 1, alpha 3
    assert capped_terms(inst, [2])[0, 0] == pytest.approx(0.125, rel=1e-12)
    assert capped_terms(inst, [2])[0, 0] == ref.interference_at(2, [0], inst)


def test_interference_every_term_in_unit_interval(params):
    inst = make_random_instance(seed=3, n=10, box=8.0)
    terms = capped_terms(inst, inst.used_nodes())
    assert ((0.0 <= terms) & (terms <= 1.0)).all()
    for j, p in enumerate(inst.used_nodes().tolist()):
        for w in range(inst.n):
            assert terms[w, j] == pytest.approx(ref.interference_at(p, [w], inst), rel=1e-12)


def test_collocated_interference_is_link_count(params):
    for k in (1, 3, 6):
        inst = collocated(k, params)
        value, node = interference_measure(range(k), inst)
        assert value == pytest.approx(float(k), rel=1e-12)
        assert node == 0  # every sender ties; smallest index wins


def test_single_link_measure_is_one(params):
    inst = line_instance(params)
    value, _ = interference_measure([0], inst)
    assert value == pytest.approx(1.0, rel=1e-12)


def test_measure_monotone_under_inclusion(params):
    for seed in range(5):
        inst = make_random_instance(seed=seed, n=10, box=10.0)
        small, _ = interference_measure(range(5), inst)
        full, _ = interference_measure(range(10), inst)
        assert small <= full * (1 + 1e-12)


def test_measure_subadditive(params):
    for seed in range(5):
        inst = make_random_instance(seed=seed, n=10, box=10.0)
        left, _ = interference_measure(range(5), inst)
        right, _ = interference_measure(range(5, 10), inst)
        union, _ = interference_measure(range(10), inst)
        assert union <= (left + right) * (1 + 1e-12)


def test_measure_scale_invariant(params):
    base = make_random_instance(seed=8, n=10, box=10.0)
    i0, node0 = interference_measure(range(10), base)
    for lam in (1e-3, 1e3):
        pts = tuple(tuple(lam * x for x in p) for p in base.metric.points)
        scaled = Instance(
            metric=EuclideanMetric(points=pts),
            senders=base.senders,
            receivers=base.receivers,
            params=base.params,
        )
        i1, node1 = interference_measure(range(10), scaled)
        assert i1 == pytest.approx(i0, rel=1e-12)
        assert node1 == node0


def test_bound_report_single_link(params):
    inst = line_instance(params)
    cfg = SchedulerConfig.auto(params)
    rep = bound_report(inst, Schedule((frozenset({0}),)), cfg)
    assert rep.schedule_length == 1
    assert rep.I_value == pytest.approx(1.0, rel=1e-12)
    assert rep.upper_bound == pytest.approx(cfg.c**3 + 1.0, rel=1e-9)
    assert rep.upper_bound > 1.0
    assert rep.bound_holds


def test_bound_holds_for_greedy_output(params):
    cfg = SchedulerConfig.auto(params)
    for seed in range(10):
        inst = make_random_instance(seed=seed, n=25, box=18.0)
        sched = greedy_schedule(inst, cfg)
        rep = bound_report(inst, sched, cfg)
        assert rep.bound_holds
        assert rep.schedule_length < rep.upper_bound + 1e-9
    # the counting bound needs only c > 1, not the feasibility threshold
    small_cfg = SchedulerConfig(c=1.3)
    for seed in range(10):
        inst = make_random_instance(seed=seed, n=25, box=18.0)
        sched = greedy_schedule(inst, small_cfg)
        assert bound_report(inst, sched, small_cfg).bound_holds


def test_bound_report_rejects_invalid_schedule(params):
    inst = make_random_instance(seed=2, n=4)
    cfg = SchedulerConfig.auto(params)
    with pytest.raises(ValueError, match="partition"):
        bound_report(inst, Schedule((frozenset({0, 1}),)), cfg)


def test_argmax_tie_break_smallest_node(params):
    inst = collocated(2, params)
    _, node = interference_measure(range(2), inst)
    assert node == 0
