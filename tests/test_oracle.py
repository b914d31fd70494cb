from __future__ import annotations

import itertools

import numpy as np
import pytest

from linsched import (
    Instance,
    PhysicalParams,
    SchedulerConfig,
    greedy_schedule,
    optimal_schedule,
    oracle,
    schedule_feasible,
)
from linsched.gen import SplitMix64, collocated, spread
from linsched.model import InternalError, MatrixMetric
from linsched.oracle import partition_solve, subset_table, two_slot_decision
from linsched.sinr import slot_feasible

from conftest import line_pseudometric, make_random_instance
from reference import optimal_schedule_reference


def test_single_link_needs_one_slot(params):
    inst = make_random_instance(seed=0, n=1)
    assert optimal_schedule(inst).length == 1


def test_collocated_needs_k_slots(params):
    for k in (1, 3, 5):
        inst = collocated(k, params)
        sched = optimal_schedule(inst)
        assert sched.length == k
        assert schedule_feasible(sched, inst).feasible


def test_far_spread_needs_one_slot(params):
    inst = spread(4, 1e6, params)
    assert optimal_schedule(inst).length == 1


def test_optimal_never_beaten_by_greedy(params):
    cfg = SchedulerConfig.auto(params)
    for seed in range(20):
        inst = make_random_instance(seed=seed, n=8, box=8.0)
        opt = optimal_schedule(inst)
        greedy = greedy_schedule(inst, cfg)
        assert 1 <= opt.length <= greedy.length
        rep = schedule_feasible(opt, inst)
        assert rep.feasible, f"seed {seed}: oracle produced an infeasible schedule"


PARAMS = PhysicalParams(alpha=3.0, beta=2.0)
PARITY_INSTANCES = {
    **{
        f"euclid-box{box:g}-n{n}": make_random_instance(seed=n, n=n, box=box)
        for box in (3.0, 6.0, 12.0, 30.0)
        for n in (7, 10, 12)
    },
    **{f"collocated-{k}": collocated(k, PARAMS) for k in (1, 4, 9)},
    **{f"spread-{k}-sep{sep:g}": spread(k, sep, PARAMS) for k in (5, 11) for sep in (1.0, 2.0)},
    **{f"pseudometric-{seed}": line_pseudometric(seed, n=10) for seed in range(3)},
}


@pytest.mark.parametrize("name", list(PARITY_INSTANCES))
def test_optimal_schedule_matches_reference_dp(name):
    inst = PARITY_INSTANCES[name]
    assert optimal_schedule(inst).slots == optimal_schedule_reference(inst).slots


def test_optimal_schedule_rejects_non_downward_closed_table(monkeypatch):
    # {0,1,2,3} and {2,3,4,5} cover six links, but neither leaves a feasible
    # rest, so the cover count 2 has no partition witness
    n = 6
    feasible = np.zeros(1 << n, dtype=bool)
    feasible[[0, 0b001111, 0b111100] + [1 << v for v in range(n)]] = True
    monkeypatch.setattr(oracle, "subset_table", lambda inst, cap: oracle.SubsetTable(feasible))
    with pytest.raises(InternalError, match="downward closed"):
        optimal_schedule(collocated(n, PARAMS))


def test_subset_table_matches_slot_feasible(params):
    rng = SplitMix64(123)
    for seed in range(5):
        inst = make_random_instance(seed=seed, n=8, box=8.0)
        table = subset_table(inst)
        for _ in range(50):
            mask = 1 + int(rng.random() * ((1 << 8) - 1))
            members = [v for v in range(8) if mask >> v & 1]
            assert table.feasible[mask] == slot_feasible(members, inst).feasible


def test_subset_table_downward_closed(params):
    for seed in range(5):
        inst = make_random_instance(seed=seed, n=8, box=6.0)
        feas = subset_table(inst).feasible
        for mask in range(1, 1 << 8):
            if not feas[mask]:
                continue
            rest = mask
            while rest:
                low = rest & -rest
                sub = mask ^ low
                assert sub == 0 or feas[sub]
                rest ^= low


def test_two_slot_far_pair(params):
    inst = spread(2, 1e6, params)
    assert two_slot_decision(inst)


def test_two_slot_rejects_conflicting_triple(params):
    assert not two_slot_decision(collocated(3, params))
    assert two_slot_decision(collocated(2, params))


def test_two_slot_agrees_with_optimal(params):
    for seed in range(15):
        inst = make_random_instance(seed=seed, n=7, box=5.0)
        assert two_slot_decision(inst) == (optimal_schedule(inst).length <= 2)


def test_oracle_refuses_above_cap(params):
    inst = collocated(9, params)
    with pytest.raises(ValueError, match="cap"):
        optimal_schedule(inst, cap=8)
    with pytest.raises(ValueError, match="hard cap"):
        optimal_schedule(inst, cap=24)
    with pytest.raises(ValueError, match="cap"):
        two_slot_decision(inst, cap=8)


def test_oracle_rejects_infeasible_singleton():
    # c_l < beta*noise: negative affectance budget, nothing can decode
    params = PhysicalParams(alpha=3.0, beta=2.0, noise=1.0, c_l=1.0)
    inst = Instance(
        metric=MatrixMetric(d=((0.0, 1.0), (1.0, 0.0))),
        senders=[0],
        receivers=[1],
        params=params,
    )
    with pytest.raises(ValueError, match="singleton"):
        optimal_schedule(inst)


def test_partition_trivial_cases():
    assert partition_solve([1, 1]) == [0]
    assert partition_solve([1, 2]) is None
    picked = partition_solve([3, 1, 1, 2, 2, 1])
    assert picked is not None
    values = [3, 1, 1, 2, 2, 1]
    assert sum(values[i] for i in picked) == 5


def test_partition_rejects_bad_input():
    with pytest.raises(ValueError):
        partition_solve([])
    with pytest.raises(ValueError):
        partition_solve([1, 0])
    with pytest.raises(ValueError):
        partition_solve([1, -2])


def test_partition_matches_exhaustive_search():
    rng = SplitMix64(777)
    for trial in range(60):
        n = 1 + int(rng.random() * 12)
        values = [1 + int(rng.random() * 30) for _ in range(n)]
        total = sum(values)
        brute = any(
            2 * sum(combo) == total
            for size in range(n + 1)
            for combo in itertools.combinations(values, size)
        )
        picked = partition_solve(values)
        assert (picked is not None) == brute, values
        if picked is not None:
            assert 2 * sum(values[i] for i in picked) == total
            assert len(set(picked)) == len(picked)
            assert all(0 <= i < n for i in picked)


def test_empty_instance(params):
    inst = make_random_instance(seed=0, n=0)
    assert subset_table(inst).feasible.tolist() == [True]
    assert optimal_schedule(inst).slots == ()
    assert two_slot_decision(inst)
