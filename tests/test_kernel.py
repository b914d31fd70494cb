"""Parity of the block kernel and its callers with the scalar reference loops.

Verdicts, schedules and argmax nodes must match exactly, values at rel 1e-12.
Every check also runs with blocks small enough to split slots and node sets.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

import reference as ref
from conftest import affectance_on, line_pseudometric, make_random_instance
from linsched import (
    EuclideanMetric,
    Instance,
    PhysicalParams,
    SchedulerConfig,
    greedy_schedule,
    kernel,
)
from linsched.bounds import interference_measure
from linsched.sinr import slot_feasible
from linsched.gen import SplitMix64
from linsched.oracle import _HUGE, _term_matrix

REL = 1e-12


def euclid3(seed: int, n: int = 14, box: float = 40.0) -> Instance:
    rng = SplitMix64(seed)
    pts = []
    for _ in range(n):
        sender = [rng.uniform(0.0, box) for _ in range(3)]
        pts += [tuple(sender), tuple(x + rng.uniform(-1.5, 1.5) for x in sender)]
    nodes = 2 * np.arange(n)
    return Instance(
        EuclideanMetric(points=pts), nodes, nodes + 1, PhysicalParams(alpha=3.0, beta=2.0, m=3.0)
    )


INSTANCES = {
    "euclid2": lambda seed: make_random_instance(seed=seed, n=16, box=40.0),
    "euclid2-noise": lambda seed: make_random_instance(
        seed=seed, n=16, box=60.0, params=PhysicalParams(alpha=2.5, beta=1.5, noise=0.05, c_l=2.0)
    ),
    "euclid3": euclid3,
    "pseudometric": line_pseudometric,
    # box 4 keeps d^400 finite for the raw form; short cross distances overflow the terms
    "alpha400": lambda seed: make_random_instance(
        seed=seed, n=10, box=4.0, params=PhysicalParams(alpha=400.0, beta=2.0)
    ),
}


@pytest.fixture(params=[None, 1, 40], ids=["block-default", "block-1", "block-40"])
def block(request, monkeypatch):
    if request.param is not None:
        monkeypatch.setattr(kernel, "BLOCK", request.param)


def cases():
    for name, make in INSTANCES.items():
        for seed in range(3):
            yield pytest.param(make(seed), id=f"{name}-{seed}")


def member_sets(inst: Instance):
    n = inst.n
    yield list(range(n))
    yield list(range(0, n, 2))
    yield [1, n - 1]
    rng = SplitMix64(n)
    for _ in range(4):
        yield [v for v in range(n) if rng.random() < 0.5] or [0]


def test_dist_agrees_with_math_dist():
    eps = np.finfo(np.float64).eps
    for inst in [make_random_instance(seed=s, n=30, box=15.0) for s in range(5)] + [euclid3(0)]:
        pts = inst.metric.points
        nodes = np.arange(len(pts))
        expected = np.array([[math.dist(p, q) for q in pts] for p in pts])
        np.testing.assert_allclose(kernel.dist(inst, nodes, nodes), expected, rtol=eps, atol=0)


@pytest.mark.parametrize("inst", cases())
def test_terms_match_reference(inst, block):
    n = inst.n
    expected = np.array([[ref.affectance_term(w, v, inst) for v in range(n)] for w in range(n)])
    got = kernel.terms(inst, np.arange(n), inst.receivers)
    np.testing.assert_allclose(got, expected, rtol=REL)
    table = _term_matrix(inst)
    np.fill_diagonal(expected, 0.0)
    np.testing.assert_allclose(table, np.where(np.isinf(expected), _HUGE, expected), rtol=REL)
    for v in (0, n - 1):
        assert affectance_on(inst, v, range(n)) == pytest.approx(ref.affectance(v, range(n), inst), rel=REL)


@pytest.mark.parametrize("inst", cases())
def test_slot_feasible_matches_reference(inst, block):
    for members in member_sets(inst):
        res = slot_feasible(members, inst)
        feasible, worst_link, worst_margin, per_link = ref.slot_feasible(members, inst)
        assert res.feasible == feasible == ref.raw_slot_feasible(sorted(set(members)), inst)
        assert res.worst_link == worst_link
        assert res.worst_margin == pytest.approx(worst_margin, rel=REL, abs=REL)
        for v, a in per_link.items():
            assert affectance_on(inst, v, members) == pytest.approx(a, rel=REL)


@pytest.mark.parametrize("inst", cases())
def test_interference_matches_reference(inst, block):
    for members in member_sets(inst):
        value, node = interference_measure(members, inst)
        ref_value, ref_node = ref.interference_measure(members, inst)
        assert node == ref_node
        assert value == pytest.approx(ref_value, rel=REL)
    nodes = inst.used_nodes()[:4]
    capped = np.minimum(kernel.terms(inst, np.arange(inst.n), nodes), 1.0)
    for p, value in zip(nodes.tolist(), kernel.ascending_sums(capped).tolist()):
        assert value == pytest.approx(ref.interference_at(p, range(inst.n), inst), rel=REL)


@pytest.mark.parametrize("inst", cases())
def test_greedy_matches_reference(inst, block):
    for c in (1.2, 2.0, 4.0):
        cfg = SchedulerConfig(c=c)
        assert greedy_schedule(inst, cfg) == ref.greedy_schedule_reference(inst, cfg)


def test_vectorized_rel_leq_matches_scalar():
    inf, nan = math.inf, math.nan
    values = [0.0, 1.0, 1.0 + 5e-10, 1.0 + 2e-9, -1.0, 1e308, -1e308, inf, -inf, nan]
    xs = np.array([x for x in values for _ in values])
    ys = np.array([y for _ in values for y in values])
    got = kernel.rel_leq(xs, ys)
    assert got.tolist() == [ref.rel_leq(x, y) for x, y in zip(xs.tolist(), ys.tolist())]


def test_blocks_cover_range_within_budget(monkeypatch):
    monkeypatch.setattr(kernel, "BLOCK", 10)
    for n_items, per_item in [(0, 3), (7, 3), (25, 1), (5, 40)]:
        parts = list(kernel.blocks(n_items, per_item))
        assert [i for p in parts for i in range(n_items)[p]] == list(range(n_items))
        assert all(len(range(n_items)[p]) * per_item <= max(10, per_item) for p in parts)
