from __future__ import annotations

import math

import numpy as np
import pytest

from linsched import EuclideanMetric, Instance, PhysicalParams, schedule_feasible, sinr
from linsched.gen import SplitMix64, collocated
from linsched.model import InternalError, MatrixMetric, Schedule
from linsched.scheduler import compute_c
from linsched.sinr import slot_feasible

import reference as ref
from conftest import affectance_on, make_random_instance, term_on as term
from reference import asym_distance, length, raw_slot_feasible


def unit_link_instance(cross: float, alpha: float = 3.0, beta: float = 2.0):
    """Two unit links; distance from sender of link 0 to receiver of link 1
    pinned to ``cross`` (matrix metric, no validation applied)."""
    d = [[0.0] * 4 for _ in range(4)]
    coords = [0.0, 1.0, 10.0, 11.0]
    for p in range(4):
        for q in range(4):
            d[p][q] = abs(coords[p] - coords[q])
    d[0][3] = d[3][0] = cross
    inst = Instance(
        metric=MatrixMetric(d=tuple(tuple(r) for r in d)),
        senders=[0, 2],
        receivers=[1, 3],
        params=PhysicalParams(alpha=alpha, beta=beta),
    )
    return inst


def test_affectance_term_simple_ratio():
    # d_ww = 1, d_wv = 2, alpha = 3 -> (1/2)^3
    inst = unit_link_instance(cross=2.0)
    assert term(inst, 0, 1) == pytest.approx(0.125, rel=1e-12)
    assert term(inst, 0, 1) == ref.affectance_term(0, 1, inst)


def test_affectance_term_zero_distance_saturates():
    # Two antiparallel links over the same node pair: the sender of each
    # sits exactly on the receiver of the other.
    inst = Instance(
        metric=MatrixMetric(d=((0.0, 1.0), (1.0, 0.0))),
        senders=[0, 1],
        receivers=[1, 0],
        params=PhysicalParams(alpha=3.0, beta=2.0),
    )
    assert term(inst, 0, 1) == math.inf == ref.affectance_term(0, 1, inst)
    assert not slot_feasible([0, 1], inst).feasible


def test_affectance_empty_set_is_zero():
    inst = make_random_instance(seed=0, n=3)
    assert affectance_on(inst, 0, []) == 0.0 == ref.affectance(0, [], inst)
    assert affectance_on(inst, 0, [0]) == 0.0 == ref.affectance(0, [0], inst)  # self is excluded


def test_affectance_matches_independent_resummation():
    inst = make_random_instance(seed=11, n=5)
    alpha = inst.params.alpha
    for v in range(5):
        # independent oracle: raw formula, unsorted fsum
        expected = math.fsum(
            (length(inst, w) / asym_distance(inst, w, v)) ** alpha
            for w in range(5)
            if w != v
        )
        got = affectance_on(inst, v, range(5))
        assert got == pytest.approx(expected, rel=1e-12)


def test_affectance_additive_over_disjoint_sets():
    rng = SplitMix64(5)
    for seed in range(10):
        inst = make_random_instance(seed=seed, n=10)
        members = list(range(10))
        cut = 1 + int(rng.random() * 8)
        left, right = members[:cut], members[cut:]
        for v in (0, 5, 9):
            whole = affectance_on(inst, v, members)
            parts = affectance_on(inst, v, left) + affectance_on(inst, v, right)
            assert whole == pytest.approx(parts, rel=1e-12)


def test_affectance_monotone_in_set():
    inst = make_random_instance(seed=4, n=8)
    for v in range(8):
        small = affectance_on(inst, v, [1, 2, 3])
        big = affectance_on(inst, v, range(8))
        assert small <= big * (1 + 1e-12)


def test_singleton_margin_is_inverse_beta():
    inst = make_random_instance(seed=1, n=1)
    res = slot_feasible([0], inst)
    assert res.feasible
    assert res.worst_link == 0
    assert res.worst_margin == pytest.approx(0.5, rel=1e-12)  # 1/beta, beta=2
    assert affectance_on(inst, 0, [0]) == 0.0 == ref.slot_feasible([0], inst)[3][0]


def test_collocated_pair_infeasible():
    inst = collocated(2, PhysicalParams(alpha=3.0, beta=2.0))
    res = slot_feasible([0, 1], inst)
    assert not res.feasible
    # each link sees a single term of exactly 1
    for v in (0, 1):
        assert affectance_on(inst, v, [0, 1]) == pytest.approx(1.0, rel=1e-12)
        assert affectance_on(inst, v, [0, 1]) == ref.affectance(v, [0, 1], inst)
    assert res.worst_margin < 0


def test_raw_and_affectance_forms_agree():
    # checked internally by slot_feasible on every call; exercise both
    # verdicts explicitly across a parameter sweep
    for seed in range(10):
        for noise, c_l in [(0.0, 1.0), (0.05, 1.0), (0.1, 2.5)]:
            params = PhysicalParams(alpha=3.0, beta=2.0, noise=noise, c_l=c_l)
            inst = make_random_instance(seed=seed, n=6, box=8.0, params=params)
            for members in ([0, 1], [2, 3, 4], list(range(6))):
                res = slot_feasible(members, inst)
                assert res.feasible == raw_slot_feasible(sorted(members), inst)


def test_noise_tightens_threshold():
    quiet = PhysicalParams(alpha=3.0, beta=2.0, noise=0.0, c_l=1.0)
    noisy = PhysicalParams(alpha=3.0, beta=2.0, noise=0.4, c_l=1.0)
    assert noisy.affectance_threshold() < quiet.affectance_threshold()
    assert compute_c(noisy) > compute_c(quiet)
    inst_q = make_random_instance(seed=9, n=6, box=6.0, params=quiet)
    inst_n = make_random_instance(seed=9, n=6, box=6.0, params=noisy)
    # identical geometry, so any slot feasible under noise is feasible quiet
    for members in ([0, 1, 2], list(range(6))):
        if slot_feasible(members, inst_n).feasible:
            assert slot_feasible(members, inst_q).feasible


def test_downward_closure_on_enumerated_subsets():
    inst = make_random_instance(seed=13, n=6, box=6.0)
    n = 6
    feas = {}
    for mask in range(1, 1 << n):
        members = [v for v in range(n) if mask >> v & 1]
        feas[mask] = slot_feasible(members, inst).feasible
    for mask, ok in feas.items():
        if not ok:
            continue
        for v in range(n):
            sub = mask & ~(1 << v)
            if sub:
                assert feas[sub], (mask, sub)


def test_scale_invariance_of_affectance_and_verdicts():
    base = make_random_instance(seed=21, n=8, box=10.0)
    for lam in (1e-3, 1e3):
        scaled_pts = tuple(
            tuple(lam * x for x in pt) for pt in base.metric.points
        )
        scaled = Instance(
            metric=EuclideanMetric(points=scaled_pts),
            senders=base.senders,
            receivers=base.receivers,
            params=base.params,
        )
        for v in range(8):
            a0 = affectance_on(base, v, range(8))
            a1 = affectance_on(scaled, v, range(8))
            assert a1 == pytest.approx(a0, rel=1e-12)
        for members in ([0, 1, 2], list(range(8))):
            r0 = slot_feasible(members, base)
            r1 = slot_feasible(members, scaled)
            assert r0.feasible == r1.feasible
            assert r1.worst_margin == pytest.approx(r0.worst_margin, rel=1e-12)


def test_schedule_feasible_reports():
    params = PhysicalParams(alpha=3.0, beta=2.0)
    inst = collocated(2, params)

    ok = schedule_feasible(Schedule((frozenset({0}), frozenset({1}))), inst)
    assert ok.verdict == "feasible"
    assert ok.first_infeasible_slot() is None

    bad = schedule_feasible(Schedule((frozenset({0, 1}),)), inst)
    assert bad.verdict == "infeasible"
    assert bad.first_infeasible_slot() == 0

    not_partition = schedule_feasible(Schedule((frozenset({0}),)), inst)
    assert not_partition.verdict == "invalid-partition"
    assert not not_partition.feasible
    assert any("not a partition" in p for p in not_partition.partition_problems)


def test_slot_feasible_requires_nonempty():
    inst = make_random_instance(seed=0, n=2)
    with pytest.raises(ValueError):
        slot_feasible([], inst)


def test_cross_check_disagreement_raises(monkeypatch):
    # a kernel that drops every term makes the affectance form say feasible
    # while the raw power form still sees the collocated senders
    inst = collocated(2, PhysicalParams(alpha=3.0, beta=2.0))
    monkeypatch.setattr(sinr.kernel, "ratio_power", lambda num, den, alpha: np.zeros(den.shape))
    with pytest.raises(InternalError, match="diverged"):
        slot_feasible([0, 1], inst)


def test_raw_form_survives_power_overflow():
    # two links of length 10 at distance 1000: at alpha = 400 both len^alpha
    # and d^alpha overflow, yet each cross term is (10/1000)^400, which is 0
    inst = Instance(
        metric=EuclideanMetric(points=((0.0, 0.0), (10.0, 0.0), (1000.0, 0.0), (1010.0, 0.0))),
        senders=[0, 2],
        receivers=[1, 3],
        params=PhysicalParams(alpha=400.0, beta=2.0),
    )
    res = slot_feasible([0, 1], inst)
    assert res.feasible
    assert term(inst, 0, 1) == term(inst, 1, 0) == 0.0 == ref.affectance_term(0, 1, inst)
    assert res.worst_margin == inst.params.affectance_threshold()
