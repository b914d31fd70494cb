"""Parity of the block kernel and its callers with the scalar reference loops.

Verdicts, schedules and argmax nodes must match exactly, values at rel 1e-12.
Every check also runs with blocks small enough to split slots and node sets.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

import reference as ref
from conftest import affectance_on, line_pseudometric, link_terms, make_random_instance, with_far_links
from linsched import (
    EuclideanMetric,
    Instance,
    PhysicalParams,
    SchedulerConfig,
    greedy_schedule,
    kernel,
)
from linsched.bounds import interference_measure
from linsched.model import MatrixMetric
from linsched.sinr import slot_feasible
from linsched.gen import SplitMix64
from linsched.oracle import _term_matrix

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
        nodes = kernel.coords(inst, np.arange(len(pts)))
        expected = np.array([[math.dist(p, q) for p in pts] for q in pts])  # row q: at node q
        np.testing.assert_allclose(kernel.dist(inst, nodes, nodes), expected, rtol=eps, atol=0)


@pytest.mark.parametrize("inst", cases())
def test_terms_match_reference(inst, block):
    n = inst.n
    expected = np.array([[ref.affectance_term(w, v, inst) for v in range(n)] for w in range(n)])
    got = link_terms(inst, np.arange(n), inst.receivers)  # got[v, w]
    np.testing.assert_allclose(got, expected.T, rtol=REL)
    table = _term_matrix(inst)
    np.fill_diagonal(expected, 0.0)
    np.testing.assert_allclose(table, expected, rtol=REL)  # +inf where expected is
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
    capped = np.minimum(link_terms(inst, np.arange(inst.n), nodes), 1.0)
    for p, value in zip(nodes.tolist(), kernel.ascending_sums(capped).tolist()):
        assert value == pytest.approx(ref.interference_at(p, range(inst.n), inst), rel=REL)


@pytest.mark.parametrize("inst", cases())
def test_greedy_matches_reference(inst, block):
    for c in (1.2, 2.0, 4.0):
        cfg = SchedulerConfig(c=c)
        assert greedy_schedule(inst, cfg) == ref.greedy_schedule_reference(inst, cfg)


def scaled(inst: Instance, k: int) -> Instance:
    """The instance with every point scaled by 2^k."""
    points = inst.metric.points * 2.0**k
    return Instance(EuclideanMetric(points=points), inst.senders, inst.receivers, inst.params)


def asymmetric_matrix(seed: int, n: int = 8) -> Instance:
    rng = np.random.default_rng(seed)
    d = rng.uniform(1.0, 4.0, (2 * n, 2 * n))
    np.fill_diagonal(d, 0.0)
    nodes = 2 * np.arange(n)
    return Instance(MatrixMetric(d=d), nodes, nodes + 1, PhysicalParams(alpha=3.0, beta=2.0))


def line(points, senders, receivers, alpha: float = 3.0) -> Instance:
    """Links over points on a line or in the plane."""
    points = np.array(points, dtype=float).reshape(len(points), -1)
    return Instance(EuclideanMetric(points=points), senders, receivers,
                    PhysicalParams(alpha=alpha, beta=2.0, m=float(points.shape[1])))


def bound_cases():
    yield from cases()
    for k in (600, -600, 1000, -1000):  # the float32 terms read points scaled back near 1
        yield pytest.param(scaled(make_random_instance(seed=k % 7, n=16, box=40.0), k), id=f"scaled-{k}")
    yield pytest.param(line(np.linspace(0.0, 37.0, 24), np.arange(0, 24, 2), np.arange(1, 24, 2)), id="dim1")
    far = make_random_instance(seed=5, n=16, box=40.0)  # a third axis, constant at 2^999
    points = np.column_stack([far.metric.points, np.full(len(far.metric.points), 2.0**999)])
    yield pytest.param(Instance(EuclideanMetric(points=points), far.senders, far.receivers,
                                PhysicalParams(alpha=3.0, beta=2.0, m=3.0)), id="far-axis")
    yield pytest.param(asymmetric_matrix(0), id="asymmetric")
    yield pytest.param(  # float32 terms that underflow
        make_random_instance(seed=4, n=16, box=30.0, params=PhysicalParams(alpha=50.0, beta=2.0)),
        id="alpha50")
    yield pytest.param(  # an exponent -alpha/2 that float32 rounds
        make_random_instance(seed=5, n=16, box=30.0, params=PhysicalParams(alpha=3.1, beta=2.0)),
        id="alpha3.1")
    # Senders 2^-70 and 2^-45 from receiver 1: squared distances that are a
    # float32 subnormal and a normal float32 whose power overflows.
    near = [[0.0, 1.0], [0.0, 0.0], [2.0**-70, 0.0], [2.0**-70, -1.0], [-(2.0**-45), 0.0], [-1.0, 0.0]]
    yield pytest.param(line(near, [0, 2, 4], [1, 3, 5]), id="near-collocated")
    yield pytest.param(  # distances beyond the float32 range: exact distances
        with_far_links(make_random_instance(seed=6, n=16, box=40.0)), id="huge-span")


def cheap_and_exact_terms(inst: Instance) -> tuple[np.ndarray, np.ndarray]:
    """Every cheap term and exact term of one link on another, as float64 blocks."""
    S, X, L = kernel.coords(inst, inst.senders), kernel.coords(inst, inst.receivers), inst.lengths
    CS, CX = kernel.cheap_coords(inst, inst.senders), kernel.cheap_coords(inst, inst.receivers)
    cheap = kernel.cheap_power(inst, kernel.cheap_distances(inst, CS, CX), kernel.cheap_weights(inst, L)[0])
    return cheap.astype(np.float64), kernel.terms(inst, S, L, X)


@pytest.mark.parametrize("inst", bound_cases())
def test_cheap_terms_lie_within_the_stated_bound(inst):
    cheap, exact = cheap_and_exact_terms(inst)
    bound = kernel.cheap_bound(inst)
    r, f = kernel.cheap_error(bound, 1)  # a load of one term
    assert r < (3e-5 if inst.cheap_scale else 1e-8)
    small = cheap <= bound.huge
    assert (exact[small] <= cheap[small] * (1.0 + r) + f).all()
    assert (exact[small] >= cheap[small] * (1.0 - r) - f).all()
    assert (exact[cheap > bound.huge] > bound.huge / 2).all()


def test_the_bound_cases_take_both_kinds_of_cheap_terms():
    cases = {param.id: param.values[0] for param in bound_cases()}
    float32 = {name for name, inst in cases.items() if inst.cheap_scale}
    assert {"euclid2-0", "alpha50", "alpha3.1", "near-collocated", "scaled-1000", "dim1", "far-axis"} <= float32
    assert {"huge-span", "asymmetric", "pseudometric-0", "alpha400-0"}.isdisjoint(float32)
    cheap, exact = cheap_and_exact_terms(cases["near-collocated"])
    assert np.isinf(cheap).sum() == 2 and not np.isinf(exact).any()  # the edges are reached
    cheap, exact = cheap_and_exact_terms(cases["alpha50"])
    assert ((cheap > 0.0) & (cheap < 2.0**-126)).any() and (cheap == 0.0).any()


@pytest.mark.parametrize("alpha", (1.5, 2.0, 2.5, 3.0, 4.0, 6.0))
def test_float32_power_error_is_a_quarter_of_the_assumed_at_most(alpha):
    # Every positive finite float32 bit pattern is as likely: all magnitudes,
    # subnormals included, against the C library pow in float64.
    rng = np.random.default_rng(int(alpha * 2))
    x = rng.integers(1, 0x7F800000, 2**20, dtype=np.int32).view(np.float32)
    e = np.float32(-alpha / 2)
    with np.errstate(over="ignore", under="ignore"):
        got = np.power(x, e).astype(np.float64)
        want = np.float_power(x.astype(np.float64), float(e))
    normal = (want >= 2.0**-126) & (want <= float(np.finfo(np.float32).max))
    assert normal.mean() > 0.3
    assert np.abs(got[normal] / want[normal] - 1.0).max() <= kernel.POW32_ERROR / 4


def test_cheap_scale_puts_the_longest_link_below_one_within_the_float32_range():
    # Link 0 -> 1 has length 0.75, so the scale is 1; the extra points and
    # links move one condition at a time to its edge and just past it.
    def scale(extra, links=(), alpha=3.0):
        points = [[0.0, 0.0], [0.75, 0.0], *extra]
        senders, receivers = zip((0, 1), *links)
        return line(points, senders, receivers, alpha).cheap_scale

    past = lambda x: float(np.nextafter(x, np.inf))  # noqa: E731
    short = lambda x: float(np.nextafter(x, 0.0))  # noqa: E731
    assert scale([]) == 1.0
    assert scale([[2.0**-400, 0.0]]) == 1.0 and scale([[short(2.0**-400), 0.0]]) == 0.0
    assert scale([[2.0**62, 2.0**62]]) == 1.0 and scale([[2.0**62, past(2.0**62)]]) == 0.0
    far = lambda y: line([[0.0, y], [0.75, y]], [0], [1]).cheap_scale  # noqa: E731
    assert far(2.0**1000) == 1.0 and far(past(2.0**1000)) == 0.0  # a far constant axis
    assert far(1e300) == 1.0 and line([[0.0, 1e300], [2.0**-33, 1e300]], [0], [1]).cheap_scale == 0.0
    assert scale([[0.0, 2.0**-32]], [(0, 2)]) == 1.0  # a link from the origin
    assert scale([[0.0, short(2.0**-32)]], [(0, 2)]) == 0.0
    assert scale([[0.0, 2.0**-24]], [(0, 2)], alpha=4.0) == 1.0  # length^alpha = 2^-96
    assert scale([[0.0, 2.0**-24]], [(0, 2)], alpha=past(4.0)) == 0.0
    inst = make_random_instance(seed=0, n=16, box=40.0)
    assert inst.cheap_scale == 0.5  # lengths from 1 to 2
    assert [scaled(inst, k).cheap_scale for k in (600, -600, 1000)] == [2.0**-601, 2.0**599, 2.0**-1001]
    assert line([0.0, 2.0**1019], [0], [1]).cheap_scale == 2.0**-1020
    assert line([0.0, 2.0**1020], [0], [1]).cheap_scale == 0.0  # the scale would be subnormal
    assert asymmetric_matrix(0).cheap_scale == 0.0
    assert with_far_links(inst).cheap_scale == 0.0


def test_vectorized_rel_leq_matches_scalar():
    inf, nan = math.inf, math.nan
    values = [0.0, 1.0, 1.0 + 5e-10, 1.0 + 2e-9, -1.0, 1e308, -1e308, inf, -inf, nan]
    xs = np.array([x for x in values for _ in values])
    ys = np.array([y for _ in values for y in values])
    got = ref.rel_leq_array(xs, ys)
    assert got.tolist() == [ref.rel_leq(x, y) for x, y in zip(xs.tolist(), ys.tolist())]


def test_blocks_cover_range_within_budget(monkeypatch):
    monkeypatch.setattr(kernel, "BLOCK", 10)
    for n_items, per_item in [(0, 3), (7, 3), (25, 1), (5, 40)]:
        parts = list(kernel.blocks(n_items, per_item))
        assert [i for p in parts for i in range(n_items)[p]] == list(range(n_items))
        assert all(len(range(n_items)[p]) * per_item <= max(10, per_item) for p in parts)
