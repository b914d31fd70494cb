from __future__ import annotations

import math

import numpy as np
import pytest

from linsched import (
    EuclideanMetric,
    GenSpec,
    Instance,
    PhysicalParams,
    SchedulerConfig,
    greedy_schedule,
    kernel,
    random_euclidean,
    schedule_feasible,
    validate_instance,
)
from linsched.gen import collocated, spread
from linsched.model import MatrixMetric
from linsched.scheduler import compute_c, compute_c0
from conftest import make_random_instance
from reference import (
    admission_trace_ok,
    greedy_schedule_columns,
    greedy_schedule_reference,
    separation_violations,
)


def test_compute_c0_closed_form_values():
    # hand-evaluated: 3^3 * (2*2)^(3/2) * 3/(3-2) and 3^4 * (2*2)^(4/2) * 4/(4-2)
    assert compute_c0(PhysicalParams(alpha=3.0, beta=2.0, K=1.0, m=2.0)) == 648.0
    assert compute_c0(PhysicalParams(alpha=4.0, beta=2.0, K=1.0, m=2.0)) == 2592.0


def test_compute_c0_alpha_condition_error():
    with pytest.raises(ValueError, match="alpha"):
        compute_c0(PhysicalParams(alpha=2.0, beta=2.0, K=1.0, m=2.0))
    # non-integer m shifts the bound: m=1.5 needs alpha > 3
    with pytest.raises(ValueError, match="alpha"):
        compute_c0(PhysicalParams(alpha=2.5, beta=2.0, K=1.0, m=1.5))
    assert compute_c0(PhysicalParams(alpha=3.5, beta=2.0, K=1.0, m=1.5)) > 0


def test_compute_c_threshold_values():
    assert compute_c(PhysicalParams(alpha=3.0, beta=2.0)) == pytest.approx(
        (2.0 * 649.0) ** (1.0 / 3.0) + 3.0, rel=1e-12
    )
    assert compute_c(PhysicalParams(alpha=4.0, beta=2.0)) == pytest.approx(
        (2.0 * 2593.0) ** (1.0 / 4.0) + 3.0, rel=1e-12
    )
    # shrinking beta_eff = 1/(1/beta - noise/c_l) drives c toward 3 from above
    tiny = PhysicalParams(alpha=3.0, beta=1e-12)
    assert compute_c(tiny) > 3.0
    assert compute_c(tiny) == pytest.approx(3.0, abs=1e-3)
    # c0 = 648 is finite, but beta_eff * (c0 + 1) overflows
    with pytest.raises(ValueError, match="overflow"):
        compute_c(PhysicalParams(alpha=3.0, beta=1e306))
    # no budget left: the reason is the one validation reports
    for params in (
        PhysicalParams(alpha=3.0, beta=2.0, noise=0.5),  # beta*noise = c_l
        PhysicalParams(alpha=3.0, beta=1e-310),  # 1/beta is inf
        # within an ulp of c_l = beta*noise, where one of the two forms of the
        # budget is positive and the other is not
        PhysicalParams(alpha=3.0, beta=3.7397093054149, noise=0.6423946750021581,
                       c_l=2.4023693438545513),
        PhysicalParams(alpha=3.0, beta=4.514583552517121, noise=0.2804171273178167,
                       c_l=1.2659665508331148),
    ):
        with pytest.raises(ValueError) as exc:
            compute_c(params)
        assert str(exc.value) == params.budget_problem()
        inst = Instance(EuclideanMetric(points=[[0.0], [1.0]]), [0], [1], params)
        assert "singleton-infeasible" in [d.code for d in validate_instance(inst)]


def test_scheduler_config_validation():
    with pytest.raises(ValueError):
        SchedulerConfig(c=1.0)
    for c in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            SchedulerConfig(c=c)
    cfg = SchedulerConfig(c=2.0)
    assert cfg.admit_threshold(3.0) == pytest.approx(0.125, rel=1e-12)


def test_single_link_single_slot(params):
    inst = make_random_instance(seed=0, n=1)
    sched = greedy_schedule(inst, SchedulerConfig.auto(params))
    assert [sorted(s) for s in sched.slots] == [[0]]


def test_collocated_links_get_singleton_slots(params):
    # every pairwise term is exactly 1, above 1/c^alpha for any c > 1
    for k in (2, 4, 7):
        inst = collocated(k, params)
        sched = greedy_schedule(inst, SchedulerConfig(c=1.5))
        assert sched.length == k
        assert all(len(s) == 1 for s in sched.slots)


def test_far_spread_links_share_one_slot(params):
    cfg = SchedulerConfig.auto(params)
    k = 4
    # pairwise cross distances >= c * k^(1/alpha) keep every accumulated
    # affectance at most (k-1)/(c^alpha * k), below the admit threshold
    sep = cfg.c * k ** (1.0 / params.alpha) + 2.0
    inst = spread(k, sep, params)
    sched = greedy_schedule(inst, cfg)
    assert sched.length == 1


def test_empty_instance_empty_schedule(params):
    inst = random_euclidean(GenSpec(n=0, params=params, seed=0))
    assert greedy_schedule(inst, SchedulerConfig.auto(params)).slots == ()


def test_incremental_matches_naive_reference(params):
    cfg = SchedulerConfig.auto(params)
    for seed in (0, 1, 2):
        inst = make_random_instance(seed=seed, n=50, box=60.0)
        assert greedy_schedule(inst, cfg) == greedy_schedule_reference(inst, cfg)
    one = make_random_instance(seed=0, n=1)
    assert greedy_schedule(one, cfg) == greedy_schedule_reference(one, cfg)


@pytest.mark.parametrize("n", [128, 129, 300, 1000])
@pytest.mark.parametrize("c", ["4", "auto"])
def test_blocked_greedy_matches_one_column_per_link(params, n, c, monkeypatch):
    # One block of all 128 links; 127, 54 and 16 links per block, where the
    # last block is short; then blocks of 1, 8 and 64 links
    inst = random_euclidean(GenSpec(n=n, params=params, box=100.0 * math.sqrt(n / 50), seed=1))
    cfg = SchedulerConfig.auto(params) if c == "auto" else SchedulerConfig(c=float(c))
    expected = greedy_schedule_columns(inst, cfg)
    assert greedy_schedule(inst, cfg) == expected
    for width in (1, 8, 64):
        monkeypatch.setattr(kernel, "BLOCK", width * n)
        assert greedy_schedule(inst, cfg) == expected


@pytest.mark.parametrize("width", (1, 8, 64, None))
def test_blocked_greedy_on_many_slots_matches_one_column_per_link(params, width, monkeypatch):
    # A dense instance at c = auto: 69 slots, so placements grow runs on
    # both sides of the middle of the buffer.  In blocks of 8 links or more,
    # several land in one block, and a block's moves pass columns through
    # runs that moved before in it.
    n = 300
    inst = random_euclidean(GenSpec(n=n, params=params, box=60.0, seed=2))
    cfg = SchedulerConfig.auto(params)
    expected = greedy_schedule_columns(inst, cfg)
    assert expected.length >= 10
    if width is not None:  # None: the default, 54 links per block
        monkeypatch.setattr(kernel, "BLOCK", width * n)
    assert greedy_schedule(inst, cfg) == expected


def test_greedy_is_deterministic(params):
    cfg = SchedulerConfig.auto(params)
    inst = make_random_instance(seed=5, n=40, box=40.0)
    assert greedy_schedule(inst, cfg) == greedy_schedule(inst, cfg)


def test_output_is_partition_with_at_most_n_slots(params):
    cfg = SchedulerConfig(c=2.0)
    for seed in range(5):
        inst = make_random_instance(seed=seed, n=20, box=12.0)
        sched = greedy_schedule(inst, cfg)
        placed = sorted(v for slot in sched.slots for v in slot)
        assert placed == list(range(20))
        assert 1 <= sched.length <= 20
        assert all(slot for slot in sched.slots)


def test_admission_soundness_replay(params):
    cfg = SchedulerConfig.auto(params)
    for seed in range(5):
        inst = make_random_instance(seed=seed, n=30, box=30.0)
        sched = greedy_schedule(inst, cfg)
        assert admission_trace_ok(inst, cfg, sched)


def test_guaranteed_mode_output_is_feasible(params):
    cfg = SchedulerConfig.auto(params)
    for seed in range(10):
        inst = make_random_instance(seed=seed, n=30, box=25.0)
        sched = greedy_schedule(inst, cfg)
        assert schedule_feasible(sched, inst).feasible


def test_separation_of_co_scheduled_pairs(params):
    cfg = SchedulerConfig.auto(params)
    for seed in range(5):
        inst = make_random_instance(seed=seed, n=30, box=30.0)
        sched = greedy_schedule(inst, cfg)
        assert separation_violations(inst, cfg, sched) == []


def test_tie_break_by_link_id():
    # equal lengths: processing order must be by ascending id, so link 0
    # opens slot 0 and link 1 joins or opens slot 1 deterministically
    params = PhysicalParams(alpha=3.0, beta=2.0)
    inst = collocated(3, params)
    sched = greedy_schedule(inst, SchedulerConfig(c=1.5))
    assert [min(s) for s in sched.slots] == [0, 1, 2]


def test_exploration_mode_can_be_infeasible():
    # tiny c admits everything into one slot; feasibility must be verified,
    # not assumed, in that mode
    params = PhysicalParams(alpha=3.0, beta=2.0)
    inst = collocated(2, params)
    sched = greedy_schedule(inst, SchedulerConfig(c=1.0000001))
    report = schedule_feasible(sched, inst)
    assert sched.length == 2  # term 1 > 1/c^alpha even here
    assert report.feasible


def test_greedy_scale_invariance(params):
    from linsched import EuclideanMetric, Instance

    cfg = SchedulerConfig.auto(params)
    base = make_random_instance(seed=17, n=25, box=25.0)
    expected = greedy_schedule(base, cfg)
    for lam in (1e-3, 1e3):
        pts = tuple(tuple(lam * x for x in p) for p in base.metric.points)
        scaled = Instance(
            metric=EuclideanMetric(points=pts),
            senders=base.senders,
            receivers=base.receivers,
            params=base.params,
        )
        assert greedy_schedule(scaled, cfg) == expected


@pytest.mark.parametrize("block", (1, 2, 5, 8, 64, kernel.BLOCK))
def test_greedy_on_degenerate_instances_is_the_column_loop(block, monkeypatch):
    # Few distinct positions give zero-length links, senders on foreign
    # receivers (+inf terms) and 0/0 cheap terms (NaN), on a line and in a
    # matrix, and some lines hold a NaN point.  Loads then turn +inf or NaN
    # inside a block, where first fit must still match the column loop.
    monkeypatch.setattr(kernel, "BLOCK", block)
    rng = np.random.default_rng(7)
    for trial in range(40):
        n = int(rng.integers(3, 16))
        if trial % 2:
            points = rng.integers(0, 4, (n + 2, 1)).astype(float)
            if trial % 4 == 1:
                points[rng.integers(0, n + 2)] = np.nan
            metric = EuclideanMetric(points=points)
        else:
            d = rng.integers(0, 3, (n + 2, n + 2)).astype(float)
            np.fill_diagonal(d, 0.0)
            metric = MatrixMetric(d=d)
        inst = Instance(metric, rng.integers(0, n + 2, n), rng.integers(0, n + 2, n),
                        PhysicalParams(alpha=3.0, beta=2.0, m=1.0))
        for c in (1.2, 4.0):
            cfg = SchedulerConfig(c=c)
            assert greedy_schedule(inst, cfg) == greedy_schedule_columns(inst, cfg)


def test_cheap_loads_settle_every_admission_of_a_random_instance(monkeypatch):
    # No load of this instance lies near enough to the cut to need exact
    # terms, before its block or inside it, at c = 4 and at c = auto.
    exact_rows = []
    terms = kernel.terms
    monkeypatch.setattr(kernel, "terms", lambda inst, S, L, X: exact_rows.append(len(X)) or terms(inst, S, L, X))
    params = PhysicalParams(alpha=3.0, beta=2.0)
    inst = random_euclidean(GenSpec(n=300, params=params, box=100.0 * math.sqrt(6.0), seed=1))
    configs = (SchedulerConfig(c=4.0), SchedulerConfig.auto(params))
    schedules = [greedy_schedule(inst, cfg) for cfg in configs]
    assert exact_rows == []
    monkeypatch.undo()
    assert schedules == [greedy_schedule_columns(inst, cfg) for cfg in configs]
