from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from linsched import (
    SchedulerConfig,
    build_reduction,
    greedy_schedule,
    optimal_schedule,
    validate_instance,
    verify_reduction,
)
from linsched.hardness import encoding_problem, metric_complete, pad_partition
from linsched.model import MatrixMetric
from linsched.oracle import partition_solve
from linsched.sinr import slot_feasible
from linsched.gen import SplitMix64

import reference as ref
from conftest import affectance_on, link_terms, term_on as term


def test_pad_small_example():
    b = pad_partition([1, 2, 3])
    assert b == [1, 2, 3] + [27] * 6  # |A|^2 * max(A) = 9 * 3
    assert sum(b) == 168
    # every original element is tiny relative to the total ...
    assert all(a / 168 <= 1 / (2 * 3**3) for a in [1, 2, 3])
    # ... and every padded element is moderately small
    assert all(x / 168 <= 1 / (2 * 3) for x in b[3:])


def test_pad_singleton():
    assert pad_partition([5]) == [5, 5, 5]
    assert partition_solve([5]) is False
    assert partition_solve(pad_partition([5])) is False


def test_pad_properties_random():
    rng = SplitMix64(31)
    for _ in range(30):
        k = 1 + int(rng.random() * 6)
        a = [1 + int(rng.random() * 50) for _ in range(k)]
        b = pad_partition(a)
        assert len(b) == 3 * len(a)
        assert b[: len(a)] == a
        total = sum(b)
        assert all(x / total <= 1 / (2 * len(a) ** 3) for x in a)
        assert all(x / total <= 1 / (2 * len(a)) for x in b[len(a):])
        assert all(x >= sum(a) for x in b[len(a):])


def test_pad_rejects_bad_input():
    with pytest.raises(ValueError):
        pad_partition([])
    with pytest.raises(ValueError):
        pad_partition([0, 1])
    with pytest.raises(ValueError, match="64-bit"):
        pad_partition([2**59, 2**59])


def test_padding_preserves_partition_answer_exhaustively():
    for k in range(1, 7):
        for a in itertools.combinations_with_replacement(range(1, 4), k):
            a = list(a)
            assert partition_solve(a) is partition_solve(pad_partition(a)), a


def test_reduction_geometry():
    art = build_reduction([1, 2, 3], alpha=3.0, beta=2.0)
    inst = art.instance
    n = len(art.padded_b)
    assert n == 9
    assert art.sum_b == 168
    assert inst.metric.n_nodes == 2 * n + 4
    assert inst.n == n + 2

    # end links short by exactly 3^(-1/alpha), middle links unit length
    end = 3.0 ** (-1.0 / 3.0)
    assert inst.lengths[0] == pytest.approx(end, rel=1e-12)
    assert inst.lengths[n + 1] == pytest.approx(end, rel=1e-12)
    for i in range(1, n + 1):
        assert inst.lengths[i] == pytest.approx(1.0, rel=1e-12)

    # the two end receivers coincide
    r0 = art.node_map["r0"]
    r_last = art.node_map[f"r{n + 1}"]
    d = inst.metric.d
    assert d[r0, r_last] == 0.0

    # sender-to-end-receiver distance for the link carrying value 3
    i = art.padded_b.index(3) + 1
    s_i = art.node_map[f"s{i}"]
    expected = (2.0 * 168 / (2.0 * 3)) ** (1.0 / 3.0)  # cube root of 56
    assert d[s_i, r0] == pytest.approx(expected, rel=1e-9)

    # closure-derived distance: receiver i reaches r0 through its own sender
    r_i = art.node_map[f"r{i}"]
    assert d[r_i, r0] == pytest.approx(1.0 + expected, rel=1e-9)

    # the instance is structurally valid (closure yields a true pseudometric)
    errors = [d for d in validate_instance(inst) if d.severity == "error"]
    assert errors == []


def test_reduction_term_for_single_middle_link():
    art = build_reduction([1, 2, 3], alpha=3.0, beta=2.0)
    inst = art.instance
    for i in range(1, 10):
        a_i = art.padded_b[i - 1]
        assert term(inst, i, 0) == pytest.approx(2 * a_i / (2.0 * 168), rel=1e-9)
        assert term(inst, i, 0) == ref.affectance_term(i, 0, inst)


def test_affectance_identity_across_parameters():
    rng = SplitMix64(202)
    for trial in range(15):
        k = 1 + int(rng.random() * 4)
        a = [1 + int(rng.random() * 40) for _ in range(k)]
        alpha = 1.5 + rng.random() * 3.0
        beta = 0.5 + rng.random() * 3.0
        art = build_reduction(a, alpha=alpha, beta=beta)
        n = len(art.padded_b)
        middle = list(range(1, n + 1))
        for end in (0, n + 1):
            got = affectance_on(art.instance, end, middle)
            assert got == pytest.approx(2.0 / beta, rel=1e-9), (a, alpha, beta)
            assert got == pytest.approx(ref.affectance(end, middle, art.instance), rel=1e-12)


def test_end_links_never_share_a_slot():
    art = build_reduction([2, 3], alpha=3.0, beta=2.0)
    n = len(art.padded_b)
    # mutual term is exactly 1 because each end sender sits at the end
    # length from both coincident end receivers
    assert term(art.instance, 0, n + 1) == pytest.approx(1.0, rel=1e-12)
    assert term(art.instance, n + 1, 0) == pytest.approx(1.0, rel=1e-12)
    assert term(art.instance, 0, n + 1) == ref.affectance_term(0, n + 1, art.instance)
    assert not slot_feasible([0, n + 1], art.instance).feasible


def test_overloaded_end_slot_is_infeasible():
    # a middle group carrying more than half the total weight pushes the
    # end link over its budget
    art = build_reduction([1, 2, 3], alpha=3.0, beta=2.0)
    b = art.padded_b
    heavy = [i + 1 for i, x in enumerate(b) if x == 27][:5]  # 135 > 84
    res = slot_feasible([0] + heavy, art.instance)
    assert not res.feasible
    assert res.worst_link == 0
    expected = 2.0 * sum(b[i - 1] for i in heavy) / (2.0 * art.sum_b)
    assert affectance_on(art.instance, 0, heavy) == pytest.approx(expected, rel=1e-9)
    assert affectance_on(art.instance, 0, heavy) == ref.affectance(0, heavy, art.instance)


def test_build_reduction_rejects_bad_parameters():
    with pytest.raises(ValueError, match="alpha"):
        build_reduction([1, 2], alpha=1.0, beta=2.0)
    with pytest.raises(ValueError, match="beta"):
        build_reduction([1, 2], alpha=3.0, beta=0.0)


def test_metric_complete_preserves_reduction_distances():
    art = build_reduction([1, 2, 3, 4], alpha=2.5, beta=1.7)
    inst = art.instance
    n = len(art.padded_b)
    total = art.sum_b
    for i in range(1, n + 1):
        d_i0 = (1.7 * total / (2.0 * art.padded_b[i - 1])) ** (1.0 / 2.5)
        s_i = art.node_map[f"s{i}"]
        assert inst.metric.d[s_i, art.node_map["r0"]] == pytest.approx(d_i0, rel=1e-9)
        assert inst.metric.d[art.node_map["s0"], art.node_map[f"r{i}"]] == (
            pytest.approx(d_i0 + 1.0, rel=1e-9)
        )


def test_metric_complete_detects_shortcut():
    # direct distance 10 between 0 and 2, but a path of length 2 exists
    specified = [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 10.0)]
    with pytest.raises(ValueError, match="shortens"):
        metric_complete(specified, 3)


def test_metric_complete_detects_conflict_and_disconnect():
    with pytest.raises(ValueError, match="conflicting"):
        metric_complete([(0, 1, 1.0), (1, 0, 2.0)], 2)
    with pytest.raises(ValueError, match="connected"):
        metric_complete([(0, 1, 1.0)], 3)
    with pytest.raises(ValueError, match="negative"):
        metric_complete([(0, 1, -1.0)], 2)


def _completion(complete, specified, n_nodes):
    try:
        return "matrix", complete(specified, n_nodes).tobytes()
    except ValueError as err:
        return "error", str(err)


def test_metric_complete_is_the_pair_loop_in_matrix_and_message():
    # out-of-range ids, signs of zero, ints, NaN, +inf, repeats and conflicts:
    # the array checks name the offender the loop raised at, with its message
    rng = SplitMix64(7)
    values = (0.0, -0.0, 0, 1, 1.0, 2.0, 0.5, 1.5, 3.0, 1.0 + 1e-10, -1.0, math.inf, math.nan)
    kinds = ("out of range", "negative", "must be 0", "conflicting", "not connected", "shortens")
    outcomes = set()
    for _ in range(3000):
        n = 1 + int(rng.random() * 5)
        specified = []
        for _ in range(int(rng.random() * 12)):
            p, q = (int(rng.random() * (n + 2)) - 1 for _ in range(2))
            if rng.random() < 0.9:  # mostly in range
                p, q = p % n, q % n
            specified.append((p, q, values[int(rng.random() * len(values))]))
        expected = _completion(ref.metric_complete_loop, specified, n)
        assert _completion(metric_complete, specified, n) == expected, specified
        outcome, text = expected
        outcomes |= {kind for kind in kinds if kind in text} if outcome == "error" else {"matrix"}
    assert outcomes == {"matrix", *kinds}


def _same_bits(x: np.ndarray, y: np.ndarray) -> bool:
    return x.shape == y.shape and np.array_equal(x.view(np.int64), y.view(np.int64))


@pytest.mark.parametrize("size", range(1, 41))
def test_reduction_matrix_is_the_pair_loop_closure(size):
    # the numpy blocks and the split closure against the former specification
    # list under the full per-node passes, bit for bit; sizes 1-40 sweep all
    # 25 (alpha, beta) pairs, and size 30 is also the benchmark's 1..30
    rng = SplitMix64(1000 + size)
    alpha, beta = (1.5, 2.5, 3.0, 4.0, 6.0)[size % 5], (0.5, 1.0, 1.7, 2.0, 3.0)[size // 5 % 5]
    top = (5, 100, 10**6)[size % 3]
    cases = [[1 + int(rng.random() * top) for _ in range(size)]]
    if size == 30:
        cases.append(list(range(1, 31)))
        alpha, beta = 3.0, 2.0
    for a in cases:
        expected = ref.metric_complete_loop(ref.reduction_pairs_loop(a, alpha, beta), 6 * size + 4)
        assert _same_bits(build_reduction(a, alpha, beta).instance.metric.d, expected), a


def test_metric_complete_after_a_long_leading_run_is_the_pair_loop():
    # 8 of 14 nodes with no pair among them, zero and -0.0 edges: the split
    # closure replays pass k's minimum(x, 0.0 + x) on row k; without it
    # d(0,8) stays -0.0, where the passes turn it into +0.0
    rng = SplitMix64(23)
    weights = (0.0, -0.0, -0.0, 1.0, 0.5, 2.0, 0)
    n, lead = 14, 8
    cases = [[(0, 8, -0.0), (0, 9, 1.0), *((q - 1, q, 1.0) for q in range(9, n))]
             + [(p, 10 + p % 4, 0.5) for p in range(1, lead)]]
    for _ in range(300):  # a random tree on nodes 8-13, each of 0-7 joined to one or two of them
        specified = [(lead + int(rng.random() * (q - lead)), q, 0.5) for q in range(lead + 1, n)]
        specified += [(p, lead + int(rng.random() * (n - lead)), 1.0) for p in range(lead)]
        specified += [(p, lead + int(rng.random() * (n - lead)), 1.0) for p in range(lead) if rng.random() < 0.1]
        cases.append([(p, q, weights[int(rng.random() * len(weights))]) for p, q, _ in specified])
    outcomes = [_completion(metric_complete, specified, n) for specified in cases]
    assert outcomes == [_completion(ref.metric_complete_loop, specified, n) for specified in cases]
    assert sum(kind == "matrix" for kind, _ in outcomes) > 150
    assert math.copysign(1.0, metric_complete(cases[0], n)[0, 8]) == 1.0


def test_metric_complete_output_is_metric():
    rng = SplitMix64(55)
    # random connected graphs complete into valid pseudometrics
    for trial in range(10):
        n = 5
        specified = [(i, i + 1, 0.5 + rng.random()) for i in range(n - 1)]
        if rng.random() < 0.5:
            # chord pinned to the exact chain length: preserved as equality
            specified.append((0, n - 1, sum(v for _, _, v in specified)))
        matrix = metric_complete(specified, n)
        metric = MatrixMetric(d=matrix)
        for p in range(n):
            assert matrix[p][p] == 0.0
            for q in range(n):
                assert matrix[p][q] == matrix[q][p]
                for r in range(n):
                    assert matrix[p][r] <= matrix[p][q] + matrix[q][r] + 1e-12


def test_verify_reduction_yes_and_no_instances():
    yes = verify_reduction(build_reduction([1, 1], alpha=3.0, beta=2.0))
    assert yes.identity_ok
    assert yes.middle_slot_feasible
    assert yes.partition_solvable is True
    assert yes.two_slot_schedulable is True
    assert yes.equivalence_ok is True
    assert not yes.oracle_skipped

    no = verify_reduction(build_reduction([1, 2], alpha=3.0, beta=2.0))
    assert no.identity_ok
    assert no.partition_solvable is False
    assert no.two_slot_schedulable is False
    assert no.equivalence_ok is True


def test_verify_reduction_respects_cap():
    art = build_reduction([1, 1, 2], alpha=3.0, beta=2.0)  # 11 links
    rep = verify_reduction(art, cap=8)
    assert rep.oracle_skipped
    assert rep.two_slot_schedulable is None
    assert rep.equivalence_ok is None
    assert "skipped" in rep.notes
    assert rep.identity_ok  # the algebraic check still runs


@pytest.mark.parametrize("cap", [-5, 25])
def test_verify_reduction_refuses_a_cap_outside_0_to_20_before_skipping(cap):
    # 11 links: at cap -5 the oracle would be skipped, at cap 25 it would refuse
    with pytest.raises(ValueError, match=f"^cap {cap} "):
        verify_reduction(build_reduction([1, 2, 3], alpha=3.0, beta=2.0), cap=cap)


@pytest.mark.parametrize("alpha, beta", [(3.0, 2.0), (4.0, 3.0)])
def test_reductions_pin_the_gap_of_one_half(alpha, beta):
    # Every multiset of 1-4 values from 1-5 (125 inputs, up to 14 links): a
    # "yes" input needs two slots and a "no" input exactly three, never more:
    # telling 2 from 3 decides PARTITION, so no polynomial-time algorithm
    # approximates within a factor below 3/2 unless P = NP.
    lengths = {True: set(), False: set()}
    for k in range(1, 5):
        for a in itertools.combinations_with_replacement(range(1, 6), k):
            inst = build_reduction(list(a), alpha=alpha, beta=beta).instance
            optimal = optimal_schedule(inst).length
            lengths[partition_solve(list(a))].add(optimal)
            assert greedy_schedule(inst, SchedulerConfig.auto(inst.params)).length >= optimal
    assert lengths == {True: {2}, False: {3}}


@pytest.mark.parametrize("a", [list(range(1, 31)), [3074457345618258602]])
def test_encoding_problem_passes_inputs_the_reduction_encodes(a):
    art = build_reduction(a, alpha=3.0, beta=2.0)
    assert encoding_problem(art, verify_reduction(art)) is None


@pytest.mark.parametrize("a, alpha, beta", [
    ([1, 2], 3.0, 1.0),
    ([1, 2], 3.0, 1.0000000001),  # 1.0 is above 1/beta, within its cut
    ([1, 2, 3], 1e10, 1.0),  # the identity fails too, and the end links come first
])
def test_encoding_problem_names_the_end_links_sharing_a_slot(a, alpha, beta):
    art = build_reduction(a, alpha=alpha, beta=beta)
    report = verify_reduction(art)
    assert report.identity_ok is (alpha == 3.0)
    assert encoding_problem(art, report) == (
        f"alpha = {alpha!r}, beta = {beta!r} cannot be encoded: the end links' mutual term 1.0 "
        "fits under the cut of 1/beta, so they share a slot and every input with a feasible "
        "middle slot fits two slots"
    )


def test_encoding_problem_names_a_missed_identity():
    art = build_reduction([1, 2, 3], alpha=1e10, beta=2.0)
    report = verify_reduction(art)
    assert not report.identity_ok and report.affectance_on_end_links[0] != 1.0
    assert encoding_problem(art, report) == (
        "alpha = 10000000000.0, beta = 2.0 cannot be encoded: the end links receive "
        f"{report.affectance_on_end_links} from the middle links, not 2/beta = 1.0"
    )


def test_encoding_problem_names_a_contradiction_with_partition():
    # at 20 links the oracle runs: 2 is lost beside 2^40, so two slots fit a "no" input
    art = build_reduction([2, 2**40, 2**40, 4, 6, 9], alpha=3.0, beta=2.0)
    report = verify_reduction(art, cap=20)
    assert report.equivalence_ok is False
    assert encoding_problem(art, report) == (
        "--partition '2,1099511627776,1099511627776,4,6,9' cannot be encoded at alpha = 3.0, "
        "beta = 2.0: the instance's two-slot answer is 'yes', PARTITION's is 'no'"
    )


@pytest.mark.parametrize("a", [[1, 2, 3], list(range(1, 31))], ids=["1-3", "1-30"])
@pytest.mark.parametrize("beta", [0.5, 1.0, 2.0, 4.0])
@pytest.mark.parametrize("alpha", [1.5, 3.0, 1e7])
def test_the_end_links_mutual_terms_are_exactly_one(alpha, beta, a):
    # encoding_problem's end-link rule reads the mutual term as both end links' load
    art = build_reduction(a, alpha=alpha, beta=beta)
    ends = [0, len(art.padded_b) + 1]
    t = link_terms(art.instance, ends, art.instance.receivers[ends])
    assert t[1, 0] == 1.0 and t[0, 1] == 1.0  # sender 0 on receiver n+1, and back
    assert verify_reduction(art).mutual_end_term == t[1, 0]
