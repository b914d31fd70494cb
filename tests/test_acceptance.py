"""Acceptance suite: every criterion prints one PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

from __future__ import annotations

import io
import itertools
import json
import time
from contextlib import redirect_stdout

import pytest

from linsched import (
    EuclideanMetric,
    GenSpec,
    Instance,
    PhysicalParams,
    SchedulerConfig,
    affectance,
    build_reduction,
    cli,
    collocated,
    greedy_schedule,
    interference_measure,
    load_instance,
    load_schedule,
    optimal_schedule,
    pad_partition,
    partition_solve,
    random_euclidean,
    slot_feasible,
    subset_table,
    verify_reduction,
)
from linsched.gen import SplitMix64

from reference import raw_slot_feasible, separation_violations

PARAMS = PhysicalParams(alpha=3.0, beta=2.0, noise=0.0, c_l=1.0, K=1.0, m=2.0)


def _verdict(num: int, desc: str, ok: bool) -> None:
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {desc}")
    assert ok, f"criterion {num:02d} failed: {desc}"


def _run_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.run(argv)
    return code, buf.getvalue()


def test_criterion_1_constants():
    t0 = time.monotonic()
    code, out = _run_cli(
        ["constants", "--alpha", "3", "--beta", "2", "--K", "1", "--m", "2"]
    )
    elapsed = time.monotonic() - t0
    report = json.loads(out)
    ok = (
        code == 0
        and report["c0"] == 648.0
        and abs(report["c"] - (1298.0 ** (1.0 / 3.0) + 3.0)) <= 1e-9 * report["c"]
        and elapsed < 1.0
    )
    _verdict(1, f"closed-form constants c0=648 exact, c within 1e-9 ({elapsed:.2f}s)", ok)


@pytest.fixture(scope="module")
def pipeline_200(tmp_path_factory):
    """gen -> schedule --c auto -> verify over seeds 0..199, n=50."""
    root = tmp_path_factory.mktemp("pipeline200")
    runs = []
    t0 = time.monotonic()
    for seed in range(200):
        inst_path = root / f"inst{seed}.json"
        sched_path = root / f"sched{seed}.json"
        code, _ = _run_cli([
            "gen", "--family", "random-euclidean", "--n", "50",
            "--seed", str(seed), "--alpha", "3", "--beta", "2",
            "--out", str(inst_path),
        ])
        assert code == 0
        code, sched_out = _run_cli([
            "schedule", "--in", str(inst_path), "--c", "auto",
            "--out", str(sched_path),
        ])
        assert code == 0
        code, verify_out = _run_cli([
            "verify", "--in", str(inst_path), "--sched", str(sched_path)
        ])
        runs.append({
            "seed": seed,
            "instance": load_instance(inst_path.read_text()),
            "schedule": load_schedule(sched_path.read_text()),
            "schedule_report": json.loads(sched_out),
            "verify_exit": code,
            "verify_report": json.loads(verify_out),
        })
    return {"runs": runs, "elapsed": time.monotonic() - t0}


def test_criterion_2_guaranteed_feasibility(pipeline_200):
    runs = pipeline_200["runs"]
    elapsed = pipeline_200["elapsed"]
    bad = [
        r["seed"]
        for r in runs
        if r["verify_exit"] != 0 or r["verify_report"]["verdict"] != "feasible"
    ]
    ok = not bad and elapsed < 30.0
    _verdict(
        2,
        f"200/200 auto-c schedules verify feasible in {elapsed:.1f}s"
        + (f"; failures {bad[:5]}" if bad else ""),
        ok,
    )


def test_criterion_3_counting_bound(pipeline_200):
    bad = []
    for r in pipeline_200["runs"]:
        rep = r["schedule_report"]
        i_value, _ = interference_measure(range(r["instance"].n), r["instance"])
        limit = rep["c"] ** 3 * i_value * (1.0 + 1e-9) + 1.0
        if not (rep["bound_holds"] and r["schedule"].length < limit):
            bad.append(r["seed"])
    _verdict(3, "schedule length < c^alpha * I + 1 on all 200 runs", not bad)


def test_criterion_4_separation(pipeline_200):
    violations = 0
    for r in pipeline_200["runs"]:
        cfg = SchedulerConfig(c=r["schedule_report"]["c"])
        violations += len(separation_violations(r["instance"], cfg, r["schedule"]))
    _verdict(4, "co-scheduled pairs keep (c-2)/(c-3) spatial separation", violations == 0)


def test_criterion_5_oracle_agreement():
    t0 = time.monotonic()
    cfg = SchedulerConfig.auto(PARAMS)
    ok = True
    for seed in range(100):
        inst = random_euclidean(GenSpec(n=8, params=PARAMS, box=10.0, seed=seed))
        if optimal_schedule(inst).length > greedy_schedule(inst, cfg).length:
            ok = False
            break
    for k in range(1, 9):
        inst = collocated(k, PARAMS)
        if optimal_schedule(inst).length != k or greedy_schedule(inst, cfg).length != k:
            ok = False
            break
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 60.0
    _verdict(5, f"oracle <= greedy on 100 runs; collocated(k)=k slots ({elapsed:.1f}s)", ok)


def test_criterion_6_downward_closure():
    violations = 0
    for seed in range(50):
        inst = random_euclidean(GenSpec(n=10, params=PARAMS, box=10.0, seed=seed))
        feas = subset_table(inst).feasible
        for mask in range(1, 1 << 10):
            if not feas[mask]:
                continue
            sub = (mask - 1) & mask
            while sub:
                if not feas[sub]:
                    violations += 1
                sub = (sub - 1) & mask
    _verdict(6, "every nonempty subset of a feasible subset is feasible (50 x n=10)", violations == 0)


def test_criterion_7_reduction_identity():
    rng = SplitMix64(2024)
    alphas = [2.0, 2.5, 3.0, 4.0]
    betas = [1.5, 2.0, 3.0]
    bad = 0
    for trial in range(20):
        size = 2 + int(rng.random() * 4)  # |A| in 2..5
        a = [1 + int(rng.random() * 50) for _ in range(size)]
        alpha = alphas[trial % len(alphas)]
        beta = betas[trial % len(betas)]
        art = build_reduction(a, alpha=alpha, beta=beta)
        n = len(art.padded_b)
        middle = list(range(1, n + 1))
        expected = 2.0 / beta
        for end in (0, n + 1):
            got = affectance(end, middle, art.instance)
            if abs(got - expected) > 1e-9 * expected:
                bad += 1
    _verdict(7, "end-link affectance equals 2/beta on 20 random reductions", bad == 0)


def test_criterion_8_reduction_equivalence():
    t0 = time.monotonic()
    total = reported = mismatches = 0
    for k in range(1, 5):
        for a in itertools.combinations_with_replacement(range(1, 7), k):
            total += 1
            art = build_reduction(list(a), alpha=3.0, beta=2.0)
            rep = verify_reduction(art)
            if not rep.middle_slot_feasible:
                reported += 1  # acknowledged small-size regime; not counted
                continue
            if rep.equivalence_ok is not True:
                mismatches += 1
    elapsed = time.monotonic() - t0
    ok = mismatches == 0 and elapsed < 300.0
    _verdict(
        8,
        f"two-slot <=> PARTITION on {total - reported}/{total} gated instances, "
        f"{reported} below the feasibility size threshold ({elapsed:.1f}s)",
        ok,
    )


def test_criterion_9_padding_equivalence():
    mismatches = 0
    for k in range(1, 6):
        for a in itertools.combinations_with_replacement(range(1, 9), k):
            a = list(a)
            if (partition_solve(a) is None) != (partition_solve(pad_partition(a)) is None):
                mismatches += 1
    _verdict(9, "padding preserves PARTITION answers (|A|<=5, values 1..8)", mismatches == 0)


def _scaled(inst: Instance, lam: float) -> Instance:
    pts = tuple(tuple(lam * x for x in p) for p in inst.metric.points)
    return Instance(metric=EuclideanMetric(points=pts), links=inst.links, params=inst.params)


def test_criterion_10_invariance_suite(tmp_path):
    ok = True
    notes = []

    # affectance additivity at 1e-12 relative
    rng = SplitMix64(10)
    for seed in range(10):
        inst = random_euclidean(GenSpec(n=10, params=PARAMS, box=12.0, seed=seed))
        cut = 1 + int(rng.random() * 8)
        for v in range(10):
            whole = affectance(v, range(10), inst)
            parts = affectance(v, range(cut), inst) + affectance(v, range(cut, 10), inst)
            if abs(whole - parts) > 1e-12 * max(whole, parts, 1e-300):
                ok = False
                notes.append("additivity")

    # scale invariance of affectance, feasibility, I, and greedy output
    cfg = SchedulerConfig.auto(PARAMS)
    base = random_euclidean(GenSpec(n=12, params=PARAMS, box=12.0, seed=77))
    base_sched = greedy_schedule(base, cfg)
    base_i, _ = interference_measure(range(12), base)
    for lam in (1e-3, 1.0, 1e3):
        scaled = _scaled(base, lam)
        for v in range(12):
            a0 = affectance(v, range(12), base)
            a1 = affectance(v, range(12), scaled)
            if abs(a1 - a0) > 1e-12 * max(a0, a1):
                ok = False
                notes.append("scale-affectance")
        for members in ([0, 1, 2], list(range(12))):
            if slot_feasible(members, base).feasible != slot_feasible(members, scaled).feasible:
                ok = False
                notes.append("scale-verdict")
        i_scaled, _ = interference_measure(range(12), scaled)
        if abs(i_scaled - base_i) > 1e-12 * base_i:
            ok = False
            notes.append("scale-I")
        if greedy_schedule(scaled, cfg) != base_sched:
            ok = False
            notes.append("scale-greedy")

    # raw SINR form and affectance form agree on every evaluated slot
    for seed in range(10):
        inst = random_euclidean(GenSpec(n=6, params=PARAMS, box=8.0, seed=seed))
        for mask in range(1, 1 << 6):
            members = [v for v in range(6) if mask >> v & 1]
            if slot_feasible(members, inst).feasible != raw_slot_feasible(members, inst):
                ok = False
                notes.append("eq2-eq4")

    # byte determinism of the full pipeline per seed
    for seed in (0, 1, 2):
        artifacts = []
        for tag in ("r1", "r2"):
            inst_p = tmp_path / f"{tag}-{seed}-inst.json"
            sched_p = tmp_path / f"{tag}-{seed}-sched.json"
            code1, _ = _run_cli([
                "gen", "--family", "random-euclidean", "--n", "20",
                "--seed", str(seed), "--alpha", "3", "--beta", "2",
                "--out", str(inst_p),
            ])
            code2, sched_out = _run_cli([
                "schedule", "--in", str(inst_p), "--c", "auto", "--out", str(sched_p)
            ])
            code3, verify_out = _run_cli([
                "verify", "--in", str(inst_p), "--sched", str(sched_p)
            ])
            if (code1, code2, code3) != (0, 0, 0):
                ok = False
                notes.append("pipeline-exit")
            artifacts.append(
                (inst_p.read_bytes(), sched_p.read_bytes(), sched_out, verify_out)
            )
        if artifacts[0] != artifacts[1]:
            ok = False
            notes.append("determinism")

    _verdict(
        10,
        "additivity 1e-12, scale invariance, raw/additive SINR agreement, "
        "pipeline byte-determinism" + (f"; failed: {sorted(set(notes))}" if notes else ""),
        ok,
    )
