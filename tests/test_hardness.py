from __future__ import annotations

import itertools

import pytest

from linsched import build_reduction, validate_instance, verify_reduction
from linsched.hardness import metric_complete, pad_partition
from linsched.model import MatrixMetric
from linsched.oracle import partition_solve
from linsched.sinr import slot_feasible
from linsched.gen import SplitMix64

import reference as ref
from conftest import affectance_on, term_on as term


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
    assert partition_solve([5]) is None
    assert partition_solve(pad_partition([5])) is None


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
            assert (partition_solve(a) is None) == (
                partition_solve(pad_partition(a)) is None
            ), a


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
