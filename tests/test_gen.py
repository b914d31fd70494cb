from __future__ import annotations

import pytest

from linsched import (
    GenSpec,
    PhysicalParams,
    SchedulerConfig,
    greedy_schedule,
    optimal_schedule,
    random_euclidean,
    save_instance,
    validate_instance,
)
from linsched.gen import SplitMix64, collocated, spread


def test_splitmix64_reference_values():
    # first outputs for seed 0 of the splitmix64 sequence
    rng = SplitMix64(0)
    assert rng.next_u64() == 0xE220A8397B1DCDAF
    assert rng.next_u64() == 0x6E789E6AA1B965F4
    assert rng.next_u64() == 0x06C45D188009454F


def test_splitmix64_doubles_in_unit_interval():
    rng = SplitMix64(99)
    vals = [rng.random() for _ in range(1000)]
    assert all(0.0 <= v < 1.0 for v in vals)
    assert min(vals) < 0.1 and max(vals) > 0.9


def test_same_spec_same_bytes(params):
    spec = GenSpec(n=12, params=params, seed=5)
    a = save_instance(random_euclidean(spec))
    b = save_instance(random_euclidean(spec))
    assert a == b
    c = save_instance(random_euclidean(GenSpec(n=12, params=params, seed=6)))
    assert c != a


def test_lengths_within_requested_range(params):
    spec = GenSpec(n=50, params=params, box=100.0, lmin=1.0, lmax=2.0, seed=0)
    inst = random_euclidean(spec)
    for length in inst.lengths:
        assert 1.0 - 1e-12 <= length <= 2.0 + 1e-12
    for sx, sy in inst.metric.points[inst.senders]:
        assert 0.0 <= sx < 100.0 and 0.0 <= sy < 100.0


def test_degenerate_length_range(params):
    spec = GenSpec(n=10, params=params, lmin=1.5, lmax=1.5, seed=3)
    inst = random_euclidean(spec)
    for length in inst.lengths:
        assert length == pytest.approx(1.5, rel=1e-12)


def test_generated_instances_validate(params):
    for seed in range(5):
        inst = random_euclidean(GenSpec(n=20, params=params, seed=seed))
        assert [d for d in validate_instance(inst) if d.severity == "error"] == []
    assert [
        d for d in validate_instance(collocated(4, params)) if d.severity == "error"
    ] == []
    assert [
        d for d in validate_instance(spread(4, 10.0, params)) if d.severity == "error"
    ] == []


def test_genspec_rejects_bad_ranges(params):
    with pytest.raises(ValueError):
        GenSpec(n=5, params=params, lmin=0.0)
    with pytest.raises(ValueError):
        GenSpec(n=5, params=params, lmin=2.0, lmax=1.0)
    with pytest.raises(ValueError):
        GenSpec(n=5, params=params, box=1.0, lmin=1.0, lmax=2.0)
    with pytest.raises(ValueError):
        GenSpec(n=-1, params=params)
    for field in ("box", "lmin", "lmax"):
        with pytest.raises(ValueError, match="finite"):
            GenSpec(n=5, params=params, **{field: float("nan")})


def test_collocated_family_against_oracle(params):
    assert optimal_schedule(collocated(1, params)).length == 1
    assert optimal_schedule(collocated(3, params)).length == 3


def test_spread_family_against_oracle(params):
    assert optimal_schedule(spread(4, 1e9, params)).length == 1
    cfg = SchedulerConfig.auto(params)
    assert greedy_schedule(spread(4, 1e9, params), cfg).length == 1


def test_family_input_validation(params):
    with pytest.raises(ValueError):
        collocated(0, params)
    with pytest.raises(ValueError):
        spread(0, 1.0, params)
    with pytest.raises(ValueError):
        spread(3, 0.0, params)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            spread(3, bad, params)
