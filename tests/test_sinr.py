from __future__ import annotations

import math

import numpy as np
import pytest

from linsched import (
    EuclideanMetric,
    Instance,
    PhysicalParams,
    SchedulerConfig,
    greedy_schedule,
    kernel,
    schedule_feasible,
    sinr,
)
from linsched.bounds import interference_measure
from linsched.gen import SplitMix64, collocated
from linsched.model import InternalError, MatrixMetric, Schedule
from linsched.scheduler import compute_c
from linsched.sinr import slot_feasible

import reference as ref
from conftest import affectance_on, line_pseudometric, make_random_instance, term_on as term
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


def asymmetric_matrix(seed: int, n: int = 12) -> Instance:
    """Links over a matrix with d[p, q] != d[q, p] (not a metric, so never
    validated): a block that read d[x, s_w] for d[s_w, x] would get other loads."""
    rng = np.random.default_rng(seed)
    d = rng.uniform(1.0, 4.0, (2 * n, 2 * n))
    np.fill_diagonal(d, 0.0)
    nodes = 2 * np.arange(n)
    d[nodes, nodes + 1] = rng.uniform(0.2, 1.0, n)  # the link lengths
    return Instance(MatrixMetric(d=d), nodes, nodes + 1, PhysicalParams(alpha=3.0, beta=2.0))


COLUMN_CASES = {
    "euclid": make_random_instance(seed=1, n=40, box=30.0),
    "euclid-noise": make_random_instance(
        seed=2, n=40, box=40.0, params=PhysicalParams(alpha=2.5, beta=1.5, noise=0.05, c_l=2.0)
    ),
    "collocated": line_pseudometric(3, n=20),  # zero cross distances: +inf terms
    "asymmetric": asymmetric_matrix(0),
}


def column_member_sets(n: int):
    yield from ([v] for v in range(n))
    yield list(range(n))
    yield list(range(0, n, 3))
    rng = SplitMix64(n)
    for _ in range(6):
        yield [v for v in range(n) if rng.random() < 0.3] or [n - 1]


@pytest.mark.parametrize("block", (1, 8, 64, kernel.BLOCK))
@pytest.mark.parametrize("name", sorted(COLUMN_CASES))
def test_slot_feasible_is_the_column_loop(name, block, monkeypatch):
    monkeypatch.setattr(kernel, "BLOCK", block)
    inst = COLUMN_CASES[name]
    verdicts = set()
    for members in column_member_sets(inst.n):
        res = slot_feasible(members, inst)
        feasible, worst_link, worst_margin = ref.slot_feasible_columns(members, inst)
        assert (res.feasible, res.worst_link) == (feasible, worst_link)
        assert repr(res.worst_margin) == repr(worst_margin)  # bit for bit
        verdicts.add(feasible)
    assert verdicts == {True, False}


def test_an_asymmetric_matrix_is_read_from_sender_to_receiver():
    inst = asymmetric_matrix(1)
    for v in range(inst.n):
        for w in range(inst.n):
            assert term(inst, w, v) == ref.affectance_term(w, v, inst)
    cfg = SchedulerConfig(c=1.5)
    assert greedy_schedule(inst, cfg) == ref.greedy_schedule_reference(inst, cfg)
    assert interference_measure(range(inst.n), inst) == ref.interference_measure(range(inst.n), inst)


def test_worst_link_is_the_first_of_exactly_tied_loads():
    # four unit links facing in pairs across a square: every load is equal
    D = 50.0
    points = [(0.0, 0.0), (1.0, 0.0), (D + 1.0, 0.0), (D, 0.0),
              (0.0, D), (1.0, D), (D + 1.0, D), (D, D)]
    nodes = 2 * np.arange(4)
    inst = Instance(EuclideanMetric(points=points), nodes, nodes + 1, PhysicalParams(alpha=3.0, beta=2.0))
    for members in ([0, 1, 2, 3], [1, 2], [2, 3], [3, 0]):
        _, _, _, loads = ref.slot_feasible(members, inst)
        assert len(set(loads.values())) == 1
        res = slot_feasible(members, inst)
        feasible, worst_link, worst_margin = ref.slot_feasible_columns(members, inst)
        assert (res.feasible, res.worst_link) == (feasible, worst_link) == (True, min(members))
        assert repr(res.worst_margin) == repr(worst_margin)


@pytest.mark.parametrize("e", [2.0**-52, 2.0**-50, 1e-8, 1e-7, 1e-6])
def test_worst_link_is_the_first_whose_margin_rounds_to_the_worst(e):
    # Two unit links 1e4 apart, link 0 longer by e: the load on link 1 is the
    # larger, by about 3e of it, yet at 1e-12 against thr = 0.5 both margins
    # round to the same float, so link 0 is the worst link.  From e = 1e-8 on
    # the loads lie farther apart than the cheap loads' bound.
    points = [(0.0, 0.0), (1.0 + e, 0.0), (1e4, 0.0), (1e4 - 1.0, 0.0)]
    inst = Instance(EuclideanMetric(points=points), [0, 2], [1, 3], PhysicalParams(alpha=3.0, beta=2.0))
    thr = inst.params.affectance_threshold()
    _, _, _, loads = ref.slot_feasible([0, 1], inst)
    assert loads[0] < loads[1] and thr - loads[0] == thr - loads[1]
    res = slot_feasible([0, 1], inst)
    assert res.worst_link == 0 == ref.slot_feasible_columns([0, 1], inst)[1]
    assert repr(res.worst_margin) == repr(thr - loads[1])


def test_a_load_from_a_float32_subnormal_squared_distance_settles_nothing():
    # Link 1's sender sits 8.8e-20 from receiver 0, and link 3's 7.9e-17
    # from receiver 2.  Scaled, the first squared distance is a float32
    # subnormal of a few bits, and the cheap load on link 0 lies 4% above
    # its exact load and above the cheap load on link 2, although link 2
    # has the larger exact load.  Loads past 2^29 settle nothing, so both
    # are taken exactly and link 2 is the worst.
    d1, d3, r2 = 8.806458127359893e-20, 7.925759476315478e-17, 2.0**-20
    points = [(-1.0, 0.0), (0.0, 0.0), (d1, 0.0), (d1 + 1.0, 0.0),
              (-1.0, r2), (0.0, r2), (0.0, r2 + d3), (0.0, r2 + d3 + 900.0)]
    inst = Instance(EuclideanMetric(points=points), [0, 2, 4, 6], [1, 3, 5, 7],
                    PhysicalParams(alpha=1.5, beta=2.0**-120))
    assert inst.cheap_scale
    res = slot_feasible(range(4), inst)
    assert (res.feasible, res.worst_link, res.worst_margin) == ref.slot_feasible_columns(range(4), inst)
    assert res.worst_link == 2
