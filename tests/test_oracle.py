from __future__ import annotations

import itertools
import operator
from unittest import mock

import numpy as np
import pytest

from linsched import (
    EuclideanMetric,
    Instance,
    PhysicalParams,
    SchedulerConfig,
    build_reduction,
    greedy_schedule,
    kernel,
    optimal_schedule,
    oracle,
    schedule_feasible,
)
from linsched.gen import SplitMix64, collocated, spread
from linsched.hardness import pad_partition
from linsched.model import InternalError, MatrixMetric
from linsched.oracle import partition_solve, subset_table, two_slot_decision
from linsched.sinr import slot_feasible

from conftest import affectance_on, line_pseudometric, make_random_instance
from reference import optimal_schedule_reference, subset_table_elementwise, zeta_reference


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


@pytest.mark.parametrize("k", range(1, 7))
def test_optimal_schedule_starts_at_layer_one_the_table_itself(monkeypatch, k):
    # none at L = 1; else zeta(table), a Moebius transform per layer from 2
    # to L and a zeta transform per layer that another follows: 2L - 2
    inst = collocated(k, PARAMS)
    zeta, calls = oracle._zeta, []
    monkeypatch.setattr(oracle, "_zeta", lambda *args: calls.append(args[1]) or zeta(*args))
    sched = optimal_schedule(inst)
    assert len(calls) == 2 * sched.length - 2
    assert sched.slots == optimal_schedule_reference(inst).slots


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


def _noisy(noise: float) -> Instance:
    inst = make_random_instance(seed=4, n=10, box=8.0)
    return Instance(inst.metric, inst.senders, inst.receivers,
                    PhysicalParams(alpha=3.0, beta=2.0, noise=noise))


ELEMENTWISE_CASES = {
    # two-slot splits load an end link with 1/beta, the threshold itself
    **{f"reduction-{'-'.join(map(str, a))}": build_reduction(a, 3.0, 2.0).instance
       for a in ([1, 1], [1, 2, 3], [2, 2, 4])},
    "reduction-alpha4-beta3": build_reduction([1, 2, 3], 4.0, 3.0).instance,
    **{f"collocated-{k}": collocated(k, PARAMS) for k in (3, 7)},  # +inf terms
    "spread-6": spread(6, 1.0, PARAMS),
    "noise-0.1": _noisy(0.1),
    "budget-0": _noisy(0.5),  # thr = 0: only loads of exactly 0 pass
    "budget-below-0": _noisy(0.6),
    "pseudometric": line_pseudometric(1, n=9),
    # at the default block the ranked high half holds 2^3 and 2^5 masks
    **{f"euclid-box10-n{n}": make_random_instance(seed=3, n=n, box=10.0) for n in (13, 15)},
    # the load on link 0 is 0.5000000005, the float above the cut of thr = 0.5
    "band-edge": Instance(EuclideanMetric(points=[[0.0], [1.0], [2.414213561665988], [3.414213561665988]]),
                          [0, 2], [1, 3], PhysicalParams(alpha=2.0, beta=2.0)),
    # sender 2 on receiver 1: a +inf term against thr = 1e301
    "saturated-huge-budget": Instance(
        MatrixMetric(d=[[0, 1, 1, 2], [1, 0, 0, 1], [1, 0, 0, 1], [2, 1, 1, 0]]),
        [0, 2], [1, 3], PhysicalParams(alpha=3.0, beta=1e-301)),
}


def test_reduction_split_loads_an_end_link_at_the_threshold():
    for a in ([1, 1], [1, 2, 3], [2, 2, 4]):
        inst = ELEMENTWISE_CASES[f"reduction-{'-'.join(map(str, a))}"]
        half = [1 + i for i in partition_solve(pad_partition(a))]
        load = affectance_on(inst, 0, [0, *half])
        assert load == pytest.approx(inst.params.affectance_threshold(), rel=1e-14)


@pytest.mark.parametrize("block", (1, 8, 64, kernel.BLOCK))
@pytest.mark.parametrize("name", list(ELEMENTWISE_CASES))
def test_subset_table_is_the_elementwise_loop(name, block):
    # small blocks split the high patterns into many groups
    inst = ELEMENTWISE_CASES[name]
    with mock.patch.object(kernel, "BLOCK", block):
        table = subset_table(inst, 20).feasible
        expected = subset_table_elementwise(inst, 20)
    assert table.dtype == expected.dtype == bool
    assert np.array_equal(table, expected)


# The reference loops over the high patterns in Python, so these run at the
# default block only.
LARGE_CASES = {
    # 20 links, whose balanced splits load an end link at the threshold itself
    "reduction-3-1-1-2-2-1": build_reduction([3, 1, 1, 2, 2, 1], 3.0, 2.0).instance,
    "euclid-box12-n20": make_random_instance(seed=20, n=20, box=12.0),
    "collocated-17": collocated(17, PARAMS),  # +inf terms, every load equal
    "pseudometric-18": line_pseudometric(2, n=18),  # integer distances: many tied loads
}


@pytest.mark.parametrize("name", list(LARGE_CASES))
def test_subset_table_of_17_to_20_links_is_the_elementwise_loop(name):
    inst = LARGE_CASES[name]
    table = subset_table(inst, 20).feasible
    assert table.dtype == bool
    assert np.array_equal(table, subset_table_elementwise(inst, 20))


@pytest.mark.parametrize("n", [
    # a block of 1 leaves one link in the low half
    16,
    # and above 16 links the n - 15 floor keeps 2^15 masks in the high half
    17,
    20,
], ids=["high-2^15", "n17-high-2^15", "n20-high-2^15"])
def test_ranks_at_the_edge_of_their_type_are_the_elementwise_loop(monkeypatch, n):
    # the ranked high half holds 2^15 masks: ranks fill int16 from -1 to 2^15 - 1
    ranked = []
    real = oracle._ranked

    def spy(load, bits):
        s, rank = real(load, bits)
        ranked.append((len(load), rank.dtype, int(rank.min()), int(rank.max())))
        return s, rank

    monkeypatch.setattr(oracle, "_ranked", spy)
    monkeypatch.setattr(kernel, "BLOCK", 1)
    inst = make_random_instance(seed=n, n=n, box=12.0)
    table = subset_table(inst, 20).feasible
    assert ranked == [(1 << 15, np.int16, -1, (1 << 15) - 1)]
    assert np.array_equal(table, subset_table_elementwise(inst, 20))


@pytest.mark.parametrize("op, scalar_op", [(np.add, operator.add), (np.subtract, operator.sub)])
def test_zeta_is_the_mask_loop(op, scalar_op):
    rng = np.random.default_rng(0)
    for n in range(13):  # bits 0 to 2 run as strided passes, the rest as pair views
        values = rng.integers(-1000, 1000, 1 << n)
        got = oracle._zeta(values.copy(), n, op)
        assert got.tolist() == zeta_reference(values.tolist(), n, scalar_op)


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


@pytest.mark.parametrize("cap", [-1, 21])
def test_oracle_refuses_a_cap_outside_0_to_20_on_an_empty_instance(cap):
    empty = Instance(EuclideanMetric(points=[[0.0, 0.0]]), [], [], PhysicalParams(alpha=3.0, beta=2.0))
    for entry in (subset_table, optimal_schedule, two_slot_decision):
        with pytest.raises(ValueError, match=f"^cap {cap} "):
            entry(empty, cap)


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


def test_partition_of_values_as_wide_as_a_machine_word():
    # a bitset of reachable sums would be as wide as the values themselves
    for values, solvable in [
        ([3074457345618258602], False),
        ([2**58 + 1] * 2, True),
        ([2**56 + 1, 2**56 + 1, 2], False),
        ([2**53 + 1, 3, 2**53 - 2, 2, 4, 6], True),
        ([2**62 + 5, 2**61 + 2, 2**61 + 3], True),
    ]:
        picked = partition_solve(values)
        assert (picked is not None) is solvable, values
        if picked is not None:
            assert 2 * sum(values[i] for i in picked) == sum(values)


def test_empty_instance(params):
    inst = make_random_instance(seed=0, n=0)
    assert subset_table(inst).feasible.tolist() == [True]
    assert optimal_schedule(inst).slots == ()
    assert two_slot_decision(inst)
