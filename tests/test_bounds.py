from __future__ import annotations

import numpy as np
import pytest

from linsched import (
    EuclideanMetric,
    GenSpec,
    Instance,
    PhysicalParams,
    SchedulerConfig,
    bound_report,
    bounds,
    greedy_schedule,
    kernel,
    random_euclidean,
)
from linsched.bounds import interference_measure
from linsched.gen import SplitMix64, collocated
from linsched.model import Schedule

import reference as ref
from conftest import full_scan_measure, line_pseudometric, link_terms, make_random_instance


def line_instance(params):
    pts = ((0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (3.0, 0.0))
    return Instance(
        metric=EuclideanMetric(points=pts),
        senders=[0],
        receivers=[1],
        params=params,
    )


def capped_terms(inst, nodes):
    """min(1, term) of every link (columns) at each of ``nodes`` (rows), from the kernel."""
    return np.minimum(link_terms(inst, np.arange(inst.n), nodes), 1.0)


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
            assert terms[j, w] == pytest.approx(ref.interference_at(p, [w], inst), rel=1e-12)


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


# ---------------------------------------------------------------------------
# The grid-pruned measure against the full scan and the scalar reference.

PARAMS = PhysicalParams(alpha=3.0, beta=2.0)


def _links(points, senders, receivers) -> Instance:
    return Instance(EuclideanMetric(points=points), senders, receivers, PARAMS)


def _pairs(points) -> Instance:
    """Links 2i -> 2i+1 over ``points``."""
    nodes = 2 * np.arange(len(points) // 2)
    return _links(points, nodes, nodes + 1)


def _random_points(n: int, box: float, seed: int, dim: int = 2) -> np.ndarray:
    """n links as sender/receiver rows: senders uniform in [0, box]^dim,
    receivers 1 to 2 away in a random direction."""
    rng = SplitMix64(seed)
    out = []
    for _ in range(n):
        s = np.array([rng.uniform(0.0, box) for _ in range(dim)])
        step = np.array([rng.uniform(-1.0, 1.0) for _ in range(dim)]) + 1e-3
        out += [s, s + rng.uniform(1.0, 2.0) * step / np.linalg.norm(step)]
    return np.array(out)


def clustered() -> Instance:
    # two dense clusters, 40 and 25 senders in one fine cell each, and a
    # sparse background
    return _pairs(np.concatenate((
        _random_points(40, 3.0, seed=1),
        _random_points(25, 2.0, seed=2) + (300.0, 40.0),
        _random_points(30, 400.0, seed=3),
    )))


def line_of_links(dim: int) -> Instance:
    xs = [[10.0 * i, 10.0 * i + 1.0 + (i % 3) / 2.0] for i in range(40)]
    return _pairs([[x] + [0.0] * (dim - 1) for x in np.ravel(xs)])


def huge_span() -> Instance:
    # cell indices beyond 2^52, and differences beyond the float range (inf)
    rows = []
    for x in (0.0, 1e300, -1e300, 1e308, -1e308, 3.0):
        rows += [[x, 0.0], [x, 1.5]]
    return _pairs(rows)


def duplicated() -> Instance:
    # every link twice over, on distinct nodes at the same coordinates
    pts = _random_points(30, 60.0, seed=4)
    return _pairs(np.concatenate((pts, pts)))


def shared_nodes() -> Instance:
    # link 1 sends from link 0's receiver node, link 2 from a separate node
    # at link 1's receiver position: two +inf terms, each capped to 1; a
    # sparse background keeps the near field below half of all pairs
    points = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.5], [1.0, 1.5], [2.5, 1.5], [30.0, 0.0], [31.0, 0.0]]
    background = 7 + 2 * np.arange(30)
    return _links(
        np.concatenate((points, _random_points(30, 400.0, seed=3))),
        np.concatenate(([0, 1, 3, 5], background)),
        np.concatenate(([1, 2, 4, 6], background + 1)),
    )


def beyond_the_near_block() -> Instance:
    # with lmax = 2 the fine cells are 32 wide: the receiver at 250 sits in
    # cell 7, near the end of its 8-cell coarse cell, and link 1's sender
    # at 290 lies two cells on, in the next coarse cell, 40 away
    return _pairs([[248.0, 0.0], [250.0, 0.0], [290.0, 0.0], [292.0, 0.0]])


def exact_cheap_terms() -> Instance:
    # one link 2^-40 as long as the longest: too short for the float32 cheap
    # pass, so the cheap terms take exact distances (``cheap_scale`` 0.0)
    points = _random_points(40, 300.0, seed=8)
    return _pairs(np.concatenate((points, points[:1], points[:1] + (2.0**-40, 0.0))))


def zero_length() -> Instance:
    # link 0 sends and receives at node 0: a 0/0 cheap term (NaN) at node 0,
    # whose bounds give up, and an exact term of +inf there, capped to 1
    points = np.concatenate(([[0.0, 0.0]], _random_points(30, 300.0, seed=9)))
    return _links(points, np.arange(-1, 60, 2).clip(0), np.arange(0, 61, 2))


CASES = {
    "beyond-near-block": (beyond_the_near_block, None),
    "exact-cheap-terms": (exact_cheap_terms, None),
    "zero-length": (zero_length, None),
    "clustered": (clustered, None),
    "line-2d": (lambda: line_of_links(2), None),
    "line-1d": (lambda: line_of_links(1), None),
    "points-3d": (lambda: _pairs(_random_points(40, 60.0, seed=5, dim=3)), None),
    "huge-span": (huge_span, None),
    "duplicated": (duplicated, None),
    "shared-nodes": (shared_nodes, None),
    "subset": (lambda: make_random_instance(seed=6, n=60, box=60.0), range(0, 60, 3)),
    "matrix": (lambda: line_pseudometric(seed=3), None),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_pruned_measure_is_the_full_scan_and_the_reference(case, monkeypatch):
    make, members = CASES[case]
    inst = make()
    members = range(inst.n) if members is None else members
    expected = ref.interference_measure(members, inst)
    assert full_scan_measure(members, inst) == expected
    for block in (kernel.BLOCK, 1, 40):  # small blocks stop the scan early
        monkeypatch.setattr(kernel, "BLOCK", block)
        assert interference_measure(members, inst) == expected


@pytest.mark.parametrize("case", sorted(CASES))
def test_upper_bounds_cover_every_node(case, monkeypatch):
    make, members = CASES[case]
    inst = make()
    W = np.arange(inst.n) if members is None else np.array(members)
    nodes = inst.used_nodes()
    exact = kernel.ascending_sums(np.minimum(link_terms(inst, W, nodes), 1.0))
    monkeypatch.setattr(kernel, "BLOCK", 1)  # so that one exact block never holds every node
    lower, upper = bounds._node_bounds(inst, W, nodes)
    assert (lower <= exact).all() and (exact <= upper).all()
    # only the matrix metric and the huge span leave the grid
    assert np.isinf(upper).all() == (case in ("matrix", "huge-span"))
    assert np.isinf(lower).all() == (case in ("matrix", "huge-span"))
    if case == "exact-cheap-terms":
        assert inst.cheap_scale == 0.0
    if case == "zero-length":  # the NaN cheap term gives node 0 no bound
        assert (lower[0], upper[0]) == (0.0, np.inf) and np.isfinite(upper[1:]).all()


@pytest.mark.parametrize("case", sorted(CASES))
def test_exact_pass_sums_no_node_below_the_largest_lower_bound(case, monkeypatch):
    make, members = CASES[case]
    inst = make()
    W = np.arange(inst.n) if members is None else np.array(members)
    nodes = inst.used_nodes()
    monkeypatch.setattr(kernel, "BLOCK", 1)
    lower, upper = bounds._node_bounds(inst, W, nodes)
    expected = full_scan_measure(W, inst)
    summed = []  # the evaluation points of every exact block
    terms = kernel.terms
    monkeypatch.setattr(kernel, "terms", lambda inst, S, L, X: summed.extend(X.tolist()) or terms(inst, S, L, X))
    assert interference_measure(W, inst) == expected
    kept = inst.metric.points[nodes[upper >= lower.max()]].tolist() if case != "matrix" else nodes.tolist()
    assert summed and all(x in kept for x in summed)


def test_no_bounds_when_one_exact_block_holds_every_node(monkeypatch):
    inst = make_random_instance(seed=1, n=50, box=100.0)
    W, nodes = np.arange(inst.n), inst.used_nodes()
    assert len(nodes) * len(W) == 5000
    for block, bounded in ((kernel.BLOCK, False), (5000, False), (4999, True)):
        monkeypatch.setattr(kernel, "BLOCK", block)
        assert np.isfinite(bounds._node_bounds(inst, W, nodes)[1]).all() == bounded


def test_one_dense_cluster_takes_the_full_scan(monkeypatch):
    # every sender is near every node, so the bound would sum the full scan
    inst = random_euclidean(GenSpec(n=300, params=PARAMS, box=4.0, seed=1))
    W, nodes = np.arange(inst.n), inst.used_nodes()
    monkeypatch.setattr(kernel, "BLOCK", 1)
    assert np.isinf(bounds._node_bounds(inst, W, nodes)[1]).all()
    assert interference_measure(W, inst) == full_scan_measure(W, inst)


def test_bounds_while_the_near_field_is_at_most_half_of_all_pairs(monkeypatch):
    # two clusters far apart: each node has its own cluster's senders near
    cluster = _random_points(10, 3.0, seed=7)
    monkeypatch.setattr(kernel, "BLOCK", 1)
    for extra, bounded in ((0, True), (1, False)):  # half of all pairs, then just over
        inst = _pairs(np.concatenate((cluster, cluster[: 2 * extra] + 0.5, cluster + 500.0)))
        W, nodes = np.arange(inst.n), inst.used_nodes()
        assert np.isfinite(bounds._node_bounds(inst, W, nodes)[1]).all() == bounded
        assert interference_measure(W, inst) == full_scan_measure(W, inst)


def test_pruned_measure_at_n_3000():
    inst = random_euclidean(GenSpec(n=3000, params=PARAMS, box=100.0 * 60**0.5, seed=1))
    assert interference_measure(range(inst.n), inst) == full_scan_measure(range(inst.n), inst)
