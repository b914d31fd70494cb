from __future__ import annotations

import hashlib
import json
import math

import numpy as np
import pytest

from linsched import (
    EuclideanMetric,
    Instance,
    PhysicalParams,
    cli,
    hardness,
    load_instance,
    load_schedule,
    save_instance,
    save_schedule,
    scheduler,
    sinr,
    validate_instance,
)
from linsched.model import Diagnostic, InternalError, MatrixMetric, Schedule

import reference as ref
from conftest import with_far_links


def run_ok(capsys, argv):
    code = cli.run(argv)
    out = capsys.readouterr().out
    return code, out


def _strict_json(text: str) -> dict:
    """Parse stdout or a sidecar; NaN and Infinity are not JSON."""
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return json.loads(text, parse_constant=reject)


def gen_args(path, n=10, seed=0, extra=()):
    return [
        "gen", "--family", "random-euclidean", "--n", str(n), "--seed", str(seed),
        "--alpha", "3", "--beta", "2", "--out", str(path), *extra,
    ]


def test_gen_writes_valid_instance(tmp_path, capsys):
    out = tmp_path / "inst.json"
    code, _ = run_ok(capsys, gen_args(out))
    assert code == 0
    inst = load_instance(out.read_text())
    assert inst.n == 10


def test_gen_deterministic_bytes(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert cli.run(gen_args(a, seed=4)) == 0
    assert cli.run(gen_args(b, seed=4)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_schedule_auto_then_verify_feasible(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    sched = tmp_path / "sched.json"
    assert cli.run(gen_args(inst, n=20)) == 0
    code, out = run_ok(capsys, ["schedule", "--in", str(inst), "--c", "auto", "--out", str(sched)])
    assert code == 0
    report = _strict_json(out)
    assert report["c_mode"] == "auto"
    assert report["bound_holds"] is True
    assert report["schedule_length"] == load_schedule(sched.read_text()).length

    code, out = run_ok(capsys, ["verify", "--in", str(inst), "--sched", str(sched)])
    assert code == 0
    assert _strict_json(out)["verdict"] == "feasible"


def test_schedule_manual_c_runs_verification(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    sched = tmp_path / "sched.json"
    assert cli.run(gen_args(inst, n=15)) == 0
    code, out = run_ok(capsys, ["schedule", "--in", str(inst), "--c", "2.5", "--out", str(sched)])
    report = _strict_json(out)
    assert report["c_mode"] == "manual"
    assert report["feasible"] in (True, False)
    assert code == (0 if report["feasible"] else 1)


def test_verify_flags_infeasible_slot(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    sched = tmp_path / "sched.json"
    code = cli.run([
        "gen", "--family", "collocated", "--n", "2", "--alpha", "3", "--beta", "2",
        "--out", str(inst),
    ])
    assert code == 0
    sched.write_text(json.dumps({"schema": "sinr-linsched/1", "slots": [[0, 1]]}))
    code, out = run_ok(capsys, ["verify", "--in", str(inst), "--sched", str(sched)])
    assert code == 1
    report = _strict_json(out)
    assert report["verdict"] == "infeasible"
    assert report["first_infeasible_slot"] == 0


def test_verify_flags_non_partition(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    sched = tmp_path / "sched.json"
    assert cli.run(gen_args(inst, n=3)) == 0
    # a missing link, then ids naming no link (an index past the end, a negative one)
    for slots in ([[0, 2]], [[0, 1, 2], [7]], [[0, 1, 2], [-1]]):
        sched.write_text(json.dumps({"schema": "sinr-linsched/1", "slots": slots}))
        code, out = run_ok(capsys, ["verify", "--in", str(inst), "--sched", str(sched)])
        assert code == 1
        assert _strict_json(out)["verdict"] == "invalid-partition"


def test_verify_reports_no_slots_when_a_slot_is_empty(tmp_path, capsys):
    # slot 2 = {0, 1} is infeasible, but slot 1 is empty: no slot is evaluated
    inst, sched = tmp_path / "inst.json", tmp_path / "sched.json"
    points = [[0.0, 0.0], [1.0, 0.0], [1.5, 0.0], [2.5, 0.0], [50.0, 0.0], [51.0, 0.0]]
    instance = Instance(EuclideanMetric(points=points), [0, 2, 4], [1, 3, 5], PhysicalParams(3.0, 2.0))
    inst.write_text(save_instance(instance))
    sched.write_text(json.dumps({"schema": "sinr-linsched/1", "slots": [[2], [], [0, 1]]}))
    assert not sinr.slot_feasible([0, 1], instance).feasible
    code, out = run_ok(capsys, ["verify", "--in", str(inst), "--sched", str(sched)])
    assert code == 1
    report = _strict_json(out)
    assert report["verdict"] == "invalid-partition"
    assert report["partition_problems"] == ["slot 1 is empty"]
    assert report["slots"] == [] and report["first_infeasible_slot"] is None


def test_bound_command(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    sched = tmp_path / "sched.json"
    assert cli.run(gen_args(inst, n=12)) == 0
    assert cli.run(["schedule", "--in", str(inst), "--c", "auto", "--out", str(sched)]) == 0
    capsys.readouterr()
    code, out = run_ok(capsys, ["bound", "--in", str(inst), "--sched", str(sched)])
    assert code == 0
    report = _strict_json(out)
    assert report["schedule_length"] < report["upper_bound"]
    assert report["bound_holds"] is True
    assert report["I_value"] >= 1.0


def test_exact_and_decide2(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    exact_out = tmp_path / "exact.json"
    code = cli.run([
        "gen", "--family", "collocated", "--n", "3", "--alpha", "3", "--beta", "2",
        "--out", str(inst),
    ])
    assert code == 0
    code, out = run_ok(capsys, ["exact", "--in", str(inst), "--out", str(exact_out)])
    assert code == 0
    assert _strict_json(out)["optimal_length"] == 3
    assert load_schedule(exact_out.read_text()).length == 3

    code, out = run_ok(capsys, ["decide2", "--in", str(inst)])
    assert code == 1
    assert _strict_json(out)["two_slot_schedulable"] is False


@pytest.mark.parametrize("box", ["12", "30"])  # three slots and two
def test_exact_and_decide2_at_hard_cap(tmp_path, capsys, box):
    inst, opt, greedy = tmp_path / "inst.json", tmp_path / "opt.json", tmp_path / "greedy.json"
    assert cli.run(gen_args(inst, n=20, extra=("--box", box))) == 0
    code, out = run_ok(capsys, ["exact", "--in", str(inst), "--cap", "20", "--out", str(opt)])
    assert code == 0
    optimal = _strict_json(out)["optimal_length"]
    assert optimal == load_schedule(opt.read_text()).length
    assert cli.run(["verify", "--in", str(inst), "--sched", str(opt)]) == 0
    assert cli.run(["schedule", "--in", str(inst), "--c", "auto", "--out", str(greedy)]) == 0
    capsys.readouterr()
    assert optimal <= load_schedule(greedy.read_text()).length
    code, out = run_ok(capsys, ["decide2", "--in", str(inst), "--cap", "20"])
    assert _strict_json(out)["two_slot_schedulable"] is (optimal <= 2)
    assert code == (0 if optimal <= 2 else 1)


def test_exact_respects_cap(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    assert cli.run(gen_args(inst, n=18)) == 0
    code = cli.run(["exact", "--in", str(inst), "--out", str(tmp_path / "x.json")])
    assert code == 2  # default cap 16


def _empty_instance(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text(save_instance(Instance(
        metric=EuclideanMetric(points=[[0.0, 0.0]]), senders=[], receivers=[],
        params=PhysicalParams(alpha=3.0, beta=2.0),
    )))
    return path


@pytest.mark.parametrize("command, cap", [
    ("exact", "-1"), ("exact", "21"), ("decide2", "-1"), ("decide2", "21"),
])
def test_a_cap_outside_0_to_20_exits_2_on_an_empty_instance(tmp_path, capsys, command, cap):
    argv = [command, "--in", str(_empty_instance(tmp_path)), "--cap", cap]
    out = tmp_path / "x.json"
    assert cli.run(argv + (["--out", str(out)] if command == "exact" else [])) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "argument --cap: cap " in captured.err
    assert max(map(len, captured.err.splitlines())) <= 300
    assert not out.exists()


@pytest.mark.parametrize("partition, cap", [
    ("1,2,3", "-5"),  # 11 links
    ("1,2,3", "25"),
    (",".join(map(str, range(1, 31))), "25"),  # 92 links, beyond any cap
], ids=["11-links-cap--5", "11-links-cap-25", "92-links-cap-25"])
def test_reduce_refuses_a_cap_outside_0_to_20_before_writing(tmp_path, capsys, partition, cap):
    out = tmp_path / "red.json"
    argv = ["reduce", "--partition", partition, "--alpha", "3", "--beta", "2", "--cap", cap]
    assert cli.run(argv + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "argument --cap: cap " in captured.err
    assert max(map(len, captured.err.splitlines())) <= 300
    assert not out.exists() and not (tmp_path / "red.verify.json").exists()


@pytest.mark.parametrize("alpha", ["1e8", "1e10"])
def test_reduce_refuses_an_alpha_it_cannot_encode_before_writing(tmp_path, capsys, alpha):
    # the end links' loads miss 2/beta = 1 by about 1e-8 (1e8) and 6e-7 (1e10)
    out = tmp_path / "red.json"
    argv = ["reduce", "--partition", "1,2,3", "--alpha", alpha, "--beta", "2", "--out", str(out)]
    assert cli.run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: alpha = {float(alpha)!r}, beta = 2.0 cannot be encoded")
    assert captured.err.endswith("not 2/beta = 1.0\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("alpha, digests", [
    ("1e6", ("11e54a7a8be33eeb", "23dfa48e1e29e71b", "89ce7b03fbb10238")),
    ("1e7", ("11f627b6478e6b2c", "e9ea23567ae5b3f4", "c3b4428daad37b82")),
])
def test_reduce_at_the_largest_alphas_it_encodes_keeps_its_bytes(tmp_path, capsys, alpha, digests):
    # instance, sidecar and stdout sha256 prefixes as written before reduce verified first
    out = tmp_path / "red.json"
    argv = ["reduce", "--partition", "1,2,3", "--alpha", alpha, "--beta", "2", "--out", str(out)]
    code, stdout = run_ok(capsys, argv)
    assert code == 0
    texts = (out.read_bytes(), (tmp_path / "red.verify.json").read_bytes(), stdout.encode())
    assert tuple(hashlib.sha256(text).hexdigest()[:16] for text in texts) == digests


def test_reduce_writes_nothing_when_verification_fails(tmp_path, capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise InternalError("verdicts diverged")

    monkeypatch.setattr(hardness, "verify_reduction", broken)
    out = tmp_path / "red.json"
    argv = ["reduce", "--partition", "1,2,3", "--alpha", "3", "--beta", "2", "--out", str(out)]
    assert cli.run(argv) == 3
    assert "InternalError: verdicts diverged" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_reduce_decides_partition_of_a_value_near_two_to_the_62(tmp_path, capsys):
    # one value: five links under the oracle cap, and a bitset as wide as the
    # value would need 2^61 bytes
    out = tmp_path / "huge.json"
    argv = ["reduce", "--partition", "3074457345618258602", "--alpha", "3", "--beta", "2",
            "--out", str(out)]
    code, stdout = run_ok(capsys, argv)
    assert code == 0
    report = _strict_json(stdout)
    assert report["identity_ok"] is True and report["oracle_skipped"] is False
    assert report["partition_solvable"] is False and report["equivalence_ok"] is True
    assert out.exists() and (tmp_path / "huge.verify.json").exists()


@pytest.mark.parametrize("partition, beta", [
    ("72057594037927937,72057594037927937,2", "2"),  # 2 is lost beside 2^56 + 1
])
def test_reduce_refuses_an_instance_whose_answer_contradicts_partition(tmp_path, capsys, partition, beta):
    out = tmp_path / "red.json"
    argv = ["reduce", "--partition", partition, "--alpha", "3", "--beta", beta, "--out", str(out)]
    assert cli.run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: --partition {partition!r} cannot be encoded at alpha = 3.0, beta = {float(beta)!r}: "
        "the instance's two-slot answer is 'yes', PARTITION's is 'no'\n"
    )
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("partition, beta", [
    ("1,2", "1"),
    ("5,7,11,2,9", "0.9"),  # 17 links, beyond the default cap
    ("5,7,11,2,9", "1"),
])
def test_reduce_refuses_parameters_at_which_the_end_links_share_a_slot(tmp_path, capsys, partition, beta):
    # the end links' mutual terms are 1.0, within the cut of 1/beta for beta <= 1,
    # so every input with a feasible middle slot would fit two slots
    out = tmp_path / "red.json"
    argv = ["reduce", "--partition", partition, "--alpha", "3", "--beta", beta, "--out", str(out)]
    assert cli.run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: alpha = 3.0, beta = {float(beta)!r} cannot be encoded: the end links' mutual "
        "term 1.0 fits under the cut of 1/beta, so they share a slot and every input with a "
        "feasible middle slot fits two slots\n"
    )
    assert list(tmp_path.iterdir()) == []


def test_reduce_just_outside_the_shared_slot_band_encodes_partition(tmp_path, capsys):
    out = tmp_path / "red.json"
    argv = ["reduce", "--partition", "1,2", "--alpha", "3", "--beta", "1.000001", "--out", str(out)]
    code, stdout = run_ok(capsys, argv)
    assert code == 0
    report = _strict_json(stdout)
    assert report["mutual_end_term"] == 1.0
    assert report["partition_solvable"] is False and report["equivalence_ok"] is True
    assert out.exists() and (tmp_path / "red.verify.json").exists()


def _newline_variants(text: str) -> dict[str, bytes]:
    lines = text.encode().split(b"\n")
    return {
        "lf": b"\n".join(lines),
        "crlf": b"\r\n".join(lines),
        "cr": b"\r".join(lines),
        "mixed": b"".join(line + (b"\r", b"\r\n", b"\n")[i % 3] for i, line in enumerate(lines)),
    }


def test_instance_and_schedule_files_load_alike_with_any_newlines(tmp_path, capsys):
    inst, sched = tmp_path / "inst.json", tmp_path / "sched.json"
    assert cli.run(gen_args(inst, n=6)) == 0
    assert cli.run(["schedule", "--in", str(inst), "--c", "auto", "--out", str(sched)]) == 0
    capsys.readouterr()
    expected_inst = save_instance(load_instance(inst.read_text(encoding="utf-8")))
    expected_sched = load_schedule(sched.read_text(encoding="utf-8"))
    for kind, data in _newline_variants(inst.read_text()).items():
        path = tmp_path / f"inst-{kind}.json"
        path.write_bytes(data)
        assert save_instance(load_instance(cli._read(str(path)))) == expected_inst, kind
    for kind, data in _newline_variants(json.dumps(json.loads(sched.read_text()), indent=1)).items():
        path = tmp_path / f"sched-{kind}.json"
        path.write_bytes(data)
        assert load_schedule(cli._read(str(path))) == expected_sched, kind
        code, out = run_ok(capsys, ["verify", "--in", str(inst), "--sched", str(path)])
        assert code == 0 and _strict_json(out)["verdict"] == "feasible", kind


def test_an_invalid_utf8_file_exits_2_with_the_decoder_message(tmp_path, capsys):
    path = tmp_path / "inst.json"
    assert cli.run(gen_args(path, n=300)) == 0
    data = path.read_bytes()
    path.write_bytes(data[:9000] + b"\xff" + data[9000:])  # past the first 8 KiB read chunk
    with pytest.raises(UnicodeDecodeError) as raised:
        path.read_text(encoding="utf-8")
    capsys.readouterr()
    assert cli.run(["schedule", "--in", str(path), "--out", str(tmp_path / "s.json")]) == 2
    assert capsys.readouterr().err == f"error: {raised.value}\n"
    assert "position 9000" in str(raised.value)


def test_bound_beyond_float_range_manual_c(tmp_path, capsys):
    # c^alpha = 1e900 is beyond the float range: no bound to print, but it holds
    inst, sched = tmp_path / "inst.json", tmp_path / "sched.json"
    assert cli.run(gen_args(inst, n=5)) == 0
    code, out = run_ok(capsys, ["schedule", "--in", str(inst), "--c", "1e300", "--out", str(sched)])
    assert code == 0
    report = _strict_json(out)
    assert report["upper_bound"] is None and report["bound_holds"] is True
    assert report["feasible"] is True
    code, out = run_ok(capsys, ["bound", "--in", str(inst), "--sched", str(sched), "--c", "1e300"])
    assert code == 0
    report = _strict_json(out)
    assert report["upper_bound"] is None and report["bound_holds"] is True


@pytest.mark.parametrize("alpha", ["330", "350", "380"])
def test_bound_beyond_float_range_auto_c(tmp_path, capsys, alpha):
    # auto c is about 9, and 9^alpha overflows for these alpha
    inst, sched = tmp_path / "inst.json", tmp_path / "sched.json"
    assert cli.run([
        "gen", "--family", "random-euclidean", "--n", "5", "--seed", "1",
        "--alpha", alpha, "--beta", "2", "--out", str(inst),
    ]) == 0
    code, out = run_ok(capsys, ["schedule", "--in", str(inst), "--c", "auto", "--out", str(sched)])
    assert code == 0
    report = _strict_json(out)
    assert report["upper_bound"] is None and report["bound_holds"] is True
    code, out = run_ok(capsys, ["bound", "--in", str(inst), "--sched", str(sched)])
    assert code == 0
    assert _strict_json(out)["upper_bound"] is None


def test_reduce_emits_instance_and_sidecar(tmp_path, capsys):
    out = tmp_path / "red.json"
    code, stdout = run_ok(capsys, [
        "reduce", "--partition", "1,2,3", "--alpha", "3", "--beta", "2",
        "--out", str(out),
    ])
    assert code == 0
    inst = load_instance(out.read_text())
    assert inst.n == 11  # 3*|A| + 2
    sidecar = _strict_json((tmp_path / "red.verify.json").read_text())
    assert sidecar["A"] == [1, 2, 3]
    assert sidecar["B"] == [1, 2, 3] + [27] * 6
    assert sidecar["S_of_B"] == 168
    assert sidecar["node_map"]["s0"] == 0
    assert sidecar["report"]["identity_ok"] is True
    stdout_report = _strict_json(stdout)
    assert stdout_report["identity_ok"] is True


def test_reduce_decide2_round_trip(tmp_path, capsys):
    out = tmp_path / "red.json"
    assert cli.run([
        "reduce", "--partition", "1,1", "--alpha", "3", "--beta", "2",
        "--out", str(out),
    ]) == 0
    capsys.readouterr()
    code, stdout = run_ok(capsys, ["decide2", "--in", str(out)])
    assert code == 0
    assert _strict_json(stdout)["two_slot_schedulable"] is True


def test_constants_output(capsys):
    code, out = run_ok(capsys, ["constants", "--alpha", "3", "--beta", "2", "--K", "1", "--m", "2"])
    assert code == 0
    report = _strict_json(out)
    assert report["c0"] == 648.0
    assert report["c"] == pytest.approx(1298.0 ** (1.0 / 3.0) + 3.0, rel=1e-12)


def test_constants_alpha_condition_exit_2(capsys):
    assert cli.run(["constants", "--alpha", "2", "--beta", "2", "--K", "1", "--m", "2"]) == 2
    # m + 1 rounds to m here; the bound m/(m+1-ceil(m)) is m, not a division by 0
    assert cli.run(["constants", "--alpha", "3", "--beta", "2", "--m", "1e17"]) == 2
    assert "= 1e+17" in capsys.readouterr().err


def test_usage_errors_exit_2(tmp_path, capsys):
    assert cli.run(["schedule", "--in", "missing.json", "--out", "x.json"]) == 2
    assert cli.run(["nonsense"]) == 2
    assert cli.run(["gen", "--family", "bogus", "--n", "1", "--alpha", "3",
                    "--beta", "2", "--out", "x.json"]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert cli.run(["schedule", "--in", str(bad), "--out", str(tmp_path / "s.json")]) == 2
    # invalid instance content (zero-length link via duplicate point)
    dup = tmp_path / "dup.json"
    dup.write_text(json.dumps({
        "schema": "sinr-linsched/1",
        "params": {"alpha": 3.0, "beta": 2.0, "noise": 0.0, "c_l": 1.0, "K": 1.0, "m": 2.0},
        "metric": {"type": "euclidean", "dim": 2, "points": [[0.0, 0.0], [0.0, 0.0]]},
        "links": [{"id": 0, "sender": 0, "receiver": 1}],
    }))
    assert cli.run(["schedule", "--in", str(dup), "--out", str(tmp_path / "s.json")]) == 2
    ragged = tmp_path / "ragged.json"
    ragged.write_text(json.dumps({
        "schema": "sinr-linsched/1",
        "params": {"alpha": 3.0, "beta": 2.0, "noise": 0.0, "c_l": 1.0, "K": 1.0, "m": 2.0},
        "metric": {"type": "matrix", "d": [[0.0, 1.0], [1.0]]},
        "links": [{"id": 0, "sender": 0, "receiver": 1}],
    }))
    capsys.readouterr()
    assert cli.run(["schedule", "--in", str(ragged), "--out", str(tmp_path / "s.json")]) == 2
    assert "metric.d[1]" in capsys.readouterr().err
    # an infinite separation constant
    inst, sched = tmp_path / "inst.json", tmp_path / "sched.json"
    assert cli.run(gen_args(inst, n=3)) == 0
    assert cli.run(["schedule", "--in", str(inst), "--c", "4", "--out", str(sched)]) == 0
    capsys.readouterr()
    assert cli.run(["schedule", "--in", str(inst), "--c", "inf", "--out", str(sched)]) == 2
    assert cli.run(["bound", "--in", str(inst), "--sched", str(sched), "--c", "inf"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("finite") == 2


def test_documents_nested_beyond_the_recursion_limit_exit_2(tmp_path, capsys):
    inst, sched = tmp_path / "inst.json", tmp_path / "sched.json"
    assert cli.run(gen_args(inst, n=3)) == 0
    assert cli.run(["schedule", "--in", str(inst), "--c", "4", "--out", str(sched)]) == 0
    deep = tmp_path / "deep.json"
    deep_slots = tmp_path / "deep_slots.json"
    deep.write_text("[" * 100_000)
    deep_slots.write_text(json.dumps({"schema": "sinr-linsched/1", "slots": []})[:-2] + "[" * 100_000)
    capsys.readouterr()
    for argv in (
        ["schedule", "--in", str(deep), "--c", "4", "--out", str(tmp_path / "s.json")],
        ["verify", "--in", str(deep), "--sched", str(sched)],
        ["verify", "--in", str(inst), "--sched", str(deep)],
        ["verify", "--in", str(inst), "--sched", str(deep_slots)],
    ):
        assert cli.run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "invalid JSON in " in captured.err
        assert "internal error" not in captured.err


def test_spread_family_requires_separation(tmp_path, capsys):
    code = cli.run([
        "gen", "--family", "spread", "--n", "3", "--alpha", "3", "--beta", "2",
        "--out", str(tmp_path / "s.json"),
    ])
    assert code == 2
    code = cli.run([
        "gen", "--family", "spread", "--n", "3", "--alpha", "3", "--beta", "2",
        "--separation", "50", "--out", str(tmp_path / "s.json"),
    ])
    assert code == 0


def test_pipeline_byte_determinism(tmp_path, capsys):
    outs = []
    for tag in ("x", "y"):
        inst = tmp_path / f"{tag}-inst.json"
        sched = tmp_path / f"{tag}-sched.json"
        assert cli.run(gen_args(inst, n=20, seed=9)) == 0
        assert cli.run(["schedule", "--in", str(inst), "--c", "auto", "--out", str(sched)]) == 0
        stdout = capsys.readouterr().out
        code, verify_out = run_ok(capsys, ["verify", "--in", str(inst), "--sched", str(sched)])
        assert code == 0
        outs.append((inst.read_bytes(), sched.read_bytes(), stdout, verify_out))
    assert outs[0] == outs[1]


def test_constants_overflow_exit_2(capsys):
    assert cli.run(["constants", "--alpha", "1e6", "--beta", "2"]) == 2
    assert "overflow" in capsys.readouterr().err
    # c0 is finite here, but beta*(c0 + 1) is not
    assert cli.run(["constants", "--alpha", "3", "--beta", "1e306"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "overflow" in captured.err


def test_non_finite_instance_exit_2(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    assert cli.run(gen_args(inst, n=5)) == 0
    doc = json.loads(inst.read_text())
    doc["metric"]["points"][0][0] = float("nan")
    inst.write_text(json.dumps(doc))
    code = cli.run(["schedule", "--in", str(inst), "--c", "auto", "--out", str(tmp_path / "s.json")])
    assert code == 2
    assert "finite" in capsys.readouterr().err


def test_swapped_link_ids_exit_2(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    assert cli.run(gen_args(inst, n=3)) == 0
    doc = json.loads(inst.read_text())
    doc["links"][0]["id"], doc["links"][1]["id"] = 1, 0
    inst.write_text(json.dumps(doc))
    code = cli.run(["schedule", "--in", str(inst), "--c", "auto", "--out", str(tmp_path / "s.json")])
    assert code == 2
    assert "link-ids" in capsys.readouterr().err


@pytest.mark.parametrize("sender", [-1, 2**70])
def test_link_node_out_of_range_exit_2(tmp_path, capsys, sender):
    inst = tmp_path / "inst.json"
    assert cli.run(gen_args(inst, n=3)) == 0
    doc = json.loads(inst.read_text())
    doc["links"][1]["sender"] = sender
    inst.write_text(json.dumps(doc))
    code = cli.run(["schedule", "--in", str(inst), "--c", "auto", "--out", str(tmp_path / "s.json")])
    assert code == 2
    assert "node" in capsys.readouterr().err


def _two_links_at(tmp_path, points, **params):
    """Links 0 -> 1 and 2 -> 3 on ``points``, saved; alpha 3 and beta 2 unless given."""
    path = tmp_path / "inst.json"
    params = PhysicalParams(**{"alpha": 3.0, "beta": 2.0, **params})
    inst = Instance(EuclideanMetric(points=points), [0, 2], [1, 3], params)
    path.write_text(save_instance(inst))
    return path


def test_infinite_link_length_exit_2(tmp_path, capsys):
    # the endpoints of link 0 lie 2e308 apart, beyond the float range
    inst = _two_links_at(tmp_path, ((-1e308, 0.0), (1e308, 0.0), (0.0, 5.0), (0.0, 6.0)))
    sched = tmp_path / "sched.json"
    sched.write_text(save_schedule(Schedule(slots=(frozenset({0, 1}),))))
    for argv in (
        ["schedule", "--in", str(inst), "--c", "auto", "--out", str(tmp_path / "s.json")],
        ["verify", "--in", str(inst), "--sched", str(sched)],
    ):
        assert cli.run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "[infinite-length-link] link 0 has length inf" in captured.err


def test_cross_distance_beyond_float_range_exit_0(tmp_path, capsys):
    # unit links 2e308 apart: the cross distances are +inf and their terms 0
    inst = _two_links_at(tmp_path, ((-1e308, 0.0), (-1e308, 1.0), (1e308, 0.0), (1e308, 1.0)))
    code = cli.run(["schedule", "--in", str(inst), "--c", "4", "--out", str(tmp_path / "s.json")])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    assert _strict_json(captured.out)["schedule_length"] == 1
    assert _strict_json(captured.out)["feasible"] is True


def test_verify_far_links_at_huge_alpha_exit_0(tmp_path, capsys):
    # len^alpha and d^alpha both overflow at alpha = 400; the raw-SINR
    # cross-check must still agree with the affectance form
    inst = Instance(
        EuclideanMetric(points=((0.0, 0.0), (10.0, 0.0), (1000.0, 0.0), (1010.0, 0.0))),
        [0, 2],
        [1, 3],
        PhysicalParams(alpha=400.0, beta=2.0),
    )
    inst_path, sched_path = tmp_path / "inst.json", tmp_path / "sched.json"
    inst_path.write_text(save_instance(inst))
    sched_path.write_text(save_schedule(Schedule(slots=(frozenset({0, 1}),))))
    code, out = run_ok(capsys, ["verify", "--in", str(inst_path), "--sched", str(sched_path)])
    assert code == 0
    assert _strict_json(out)["verdict"] == "feasible"


@pytest.mark.parametrize("exc", [InternalError("verdicts diverged"), ZeroDivisionError("bug")])
def test_unexpected_errors_exit_3(tmp_path, capsys, monkeypatch, exc):
    inst = tmp_path / "inst.json"
    sched = tmp_path / "sched.json"
    assert cli.run(gen_args(inst, n=4)) == 0
    assert cli.run(["schedule", "--in", str(inst), "--c", "auto", "--out", str(sched)]) == 0
    capsys.readouterr()

    def broken(*args, **kwargs):
        raise exc

    monkeypatch.setattr(sinr, "slot_feasible", broken)
    assert cli.run(["verify", "--in", str(inst), "--sched", str(sched)]) == 3
    err = capsys.readouterr().err.strip()
    assert err.startswith("internal error") and type(exc).__name__ in err
    assert "\n" not in err


@pytest.mark.parametrize(
    "family_args",
    [
        ["--family", "random-euclidean", "--n", "3", "--box", "1e308", "--lmax", "1e308"],
        ["--family", "spread", "--n", "3", "--separation", "1e308"],
    ],
)
def test_gen_refuses_non_finite_coordinates(tmp_path, capsys, family_args):
    # receivers (or the third sender) land beyond the float range, at inf
    out = tmp_path / "inst.json"
    code = cli.run(["gen", *family_args, "--alpha", "3", "--beta", "2", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert not out.exists()
    assert err.startswith("error: cannot save a NaN or infinite number")


def test_reduce_reports_overflowing_tuned_distances(tmp_path, capsys):
    out = tmp_path / "red.json"
    argv = ["reduce", "--partition", "1,2,3", "--alpha", "3", "--beta", "1e308", "--out", str(out)]
    assert cli.run(argv) == 2
    err = capsys.readouterr().err
    assert err == (
        "error: beta*sum(B) = inf is too large: the sender-to-end-receiver "
        "distances tuned from it overflow the float range\n"
    )
    assert not out.exists()


def test_zero_distance_warnings_are_aggregated(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    argv = ["gen", "--family", "collocated", "--n", "20", "--alpha", "3", "--beta", "2"]
    assert cli.run([*argv, "--out", str(inst)]) == 0
    # one diagnostic counts the 380 pairs of distinct collocated nodes
    message = (
        "380 warnings, the first 3: "
        "distinct nodes 0 and 1 are at distance 0; distinct nodes 0 and 2 are at distance 0; "
        "distinct nodes 0 and 3 are at distance 0"
    )
    loaded = load_instance(inst.read_text())
    assert validate_instance(loaded) == [Diagnostic("warning", "pseudometric-zero", message)]
    per_pair = ref.validate_instance_reference(loaded)
    assert [d.code for d in per_pair] == ["pseudometric-zero"] * 380
    capsys.readouterr()
    assert cli.run(["decide2", "--in", str(inst), "--cap", "20"]) == 1
    err = capsys.readouterr().err
    assert err == f"warning [pseudometric-zero]: {message}\n"


def test_single_warnings_keep_their_line(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    assert cli.run(gen_args(inst, n=3, extra=["--beta", "0.5"])) == 0
    capsys.readouterr()
    assert cli.run(["schedule", "--in", str(inst), "--c", "2", "--out", str(tmp_path / "s.json")]) == 0
    assert capsys.readouterr().err == (
        "warning [beta-regime]: beta = 0.5 <= 1 is outside the guaranteed regime\n"
    )


def test_verify_saturated_slot_prints_null_margin(tmp_path, capsys):
    # receiver 1 and sender 2 coincide: link 1's term on link 0 is +inf
    inst, sched = tmp_path / "inst.json", tmp_path / "sched.json"
    points = ((0.0, 0.0), (1.0, 0.0), (1.0, 0.0), (2.0, 0.0))
    instance = Instance(EuclideanMetric(points=points), [0, 2], [1, 3], PhysicalParams(3.0, 2.0))
    inst.write_text(save_instance(instance))
    sched.write_text(save_schedule(Schedule(slots=(frozenset({0, 1}),))))
    assert sinr.slot_feasible([0, 1], instance).worst_margin == -math.inf
    code, out = run_ok(capsys, ["verify", "--in", str(inst), "--sched", str(sched)])
    assert code == 1
    report = _strict_json(out)
    assert report["verdict"] == "infeasible"
    assert report["slots"] == [{"feasible": False, "worst_link": 0, "worst_margin": None}]


def test_reduce_refuses_beta_with_infinite_end_affectance(tmp_path, capsys):
    # 2/beta overflows, so the end-link identity cannot be stated
    out = tmp_path / "red.json"
    argv = ["reduce", "--partition", "1,2,3", "--alpha", "3", "--beta", "1e-310", "--out", str(out)]
    assert cli.run(argv) == 2
    assert capsys.readouterr().err == (
        "error: beta = 1e-310 is too small: the end-link affectance 2/beta overflows a float\n"
    )
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "family_args, zero_links",
    [
        (["--family", "random-euclidean", "--lmin", "1e-320", "--lmax", "1e-320"], [0, 1, 2]),
        (["--family", "random-euclidean", "--box", "1e17", "--lmin", "1", "--lmax", "1"], [0, 1, 2]),
        (["--family", "spread", "--separation", "1e17"], [1, 2]),
    ],
)
def test_gen_refuses_zero_length_links(tmp_path, capsys, family_args, zero_links):
    # a link shorter than the spacing of floats at its sender rounds to length 0
    out = tmp_path / "inst.json"
    argv = ["gen", *family_args, "--n", "3", "--alpha", "3", "--beta", "2", "--out", str(out)]
    assert cli.run(argv) == 2
    k = len(zero_links)
    named = "; ".join(f"link {i} has length 0" for i in zero_links)
    assert capsys.readouterr().err == (
        "error: generated instance is invalid: "
        f"[zero-length-link] {k} errors, the first {k}: {named}\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("box", ["-1", "0", "-0.0"])
def test_gen_names_a_box_that_is_not_positive(tmp_path, capsys, box):
    out = tmp_path / "inst.json"
    argv = ["gen", "--family", "random-euclidean", "--n", "5", "--alpha", "3", "--beta", "2",
            "--box", box, "--out", str(out)]
    assert cli.run(argv) == 2
    assert capsys.readouterr().err == "error: box must be > 0\n"
    assert not out.exists()


def _triangle_violating_matrix(n_nodes: int) -> Instance:
    rng = np.random.default_rng(0)
    d = rng.uniform(1, 10, size=(n_nodes, n_nodes))
    d = (d + d.T) / 2
    np.fill_diagonal(d, 0.0)
    nodes = 2 * np.arange(n_nodes // 2)
    return Instance(MatrixMetric(d=d), nodes, nodes + 1, PhysicalParams(alpha=3.0, beta=2.0))


def test_many_triangle_violations_give_one_bounded_line(tmp_path, capsys):
    instance = _triangle_violating_matrix(60)
    d = instance.metric.d
    # brute force over every (p, q, r) with q != p, same arithmetic and tolerance
    tol = 1e-9 * max(float(np.abs(d).max()), 1.0)
    over = d[:, None, :] > (d[:, :, None] + d[None, :, :]) + tol
    over[np.arange(60), np.arange(60), :] = False
    count = int(np.count_nonzero(over))
    assert count > 1000
    inst = tmp_path / "inst.json"
    inst.write_text(save_instance(instance))
    code = cli.run(["schedule", "--in", str(inst), "--out", str(tmp_path / "sched.json")])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.count("\n") == 1 and len(captured.err) < 4096
    assert captured.err.startswith(
        f"error: instance {inst} is invalid: [triangle-violation] {count} errors, the first 3: "
    )
    assert captured.err.count("(triple ") == 3
    assert not (tmp_path / "sched.json").exists()


def _one_slot_schedule(tmp_path):
    path = tmp_path / "sched.json"
    path.write_text(save_schedule(Schedule(slots=(frozenset({0, 1}),))))
    return str(path)


def test_tiny_beta_is_singleton_infeasible_exit_2(tmp_path, capsys):
    # 1/beta is inf, so the affectance budget is inf and a +inf term passes it
    points = ((0.0, 0.0), (1.0, 0.0), (1.0, 0.0), (2.0, 0.0))
    inst = str(_two_links_at(tmp_path, points, beta=1e-310))
    problem = PhysicalParams(alpha=3.0, beta=1e-310).budget_problem()
    out = str(tmp_path / "out.json")
    for argv in (
        ["verify", "--in", inst, "--sched", _one_slot_schedule(tmp_path)],
        ["schedule", "--in", inst, "--c", "2", "--out", out],
        ["schedule", "--in", inst, "--c", "auto", "--out", out],
        ["exact", "--in", inst, "--out", out],
    ):
        assert cli.run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"[singleton-infeasible] {problem}" in captured.err
    assert not (tmp_path / "out.json").exists()


def test_noise_near_the_budget_verifies_infeasible(tmp_path, capsys):
    # noise leaves 2e-6 of c_l for interference; the load 1.00001e-6 on each
    # unit link exceeds the affectance budget 1e-6 by 1e-5 of it
    inst = str(_two_links_at(
        tmp_path, ((0.0,), (1.0,), (100.99966666978068,), (99.99966666978068,)),
        noise=0.499999, m=1.0,
    ))
    argv = ["verify", "--in", inst, "--sched", _one_slot_schedule(tmp_path)]
    code, out = run_ok(capsys, argv)
    assert code == 1
    assert _strict_json(out)["verdict"] == "infeasible"
    argv = ["schedule", "--in", inst, "--c", "1.0001", "--out", str(tmp_path / "s.json")]
    code, out = run_ok(capsys, argv)
    assert code == 1 and _strict_json(out)["feasible"] is False


@pytest.mark.parametrize(
    "m, alpha, warns",
    [
        ("2.8326609203314046", "3.401938113300654", True),
        ("3.1591140592118623", "19.854399258367636", False),
    ],
)
def test_alpha_condition_warning_agrees_with_constants(tmp_path, capsys, m, alpha, warns):
    points = ((0.0, 0.0), (1.0, 0.0), (100.0, 0.0), (101.0, 0.0))
    inst = _two_links_at(tmp_path, points, alpha=float(alpha), m=float(m))
    diags = validate_instance(load_instance(inst.read_text()))
    warning = [d.message for d in diags if d.code == "alpha-condition"]
    assert cli.run(["constants", "--alpha", alpha, "--beta", "2", "--m", m]) == (2 if warns else 0)
    err = capsys.readouterr().err
    assert warning == ([err.removeprefix("error: ").rstrip("\n")] if warns else [])
    auto = ["schedule", "--in", str(inst), "--c", "auto", "--out", str(tmp_path / "s.json")]
    assert cli.run(auto) == (2 if warns else 0)
    err = capsys.readouterr().err
    if warns:
        assert err == f"warning [alpha-condition]: {warning[0]}\nerror: {warning[0]}\n"
    else:
        assert err == ""


def test_repeated_id_in_a_slot_exit_2(tmp_path, capsys):
    # two far-apart links; the schedule names link 0 twice in its first slot
    inst = _two_links_at(tmp_path, ((0.0, 0.0), (1.0, 0.0), (100.0, 0.0), (101.0, 0.0)))
    sched = tmp_path / "sched.json"
    sched.write_text(json.dumps({"schema": "sinr-linsched/1", "slots": [[0, 0], [1]]}))
    for argv in (
        ["verify", "--in", str(inst), "--sched", str(sched)],
        ["bound", "--in", str(inst), "--sched", str(sched), "--c", "4"],
    ):
        assert cli.run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: slots[0] repeats link id 0\n"


_LONG = "x" * 100_000
_DIGITS = int("9" * 4300)  # the longest integer literal json reads


def _set(doc, path, value):
    for key in path[:-1]:
        doc = doc[key]
    doc[path[-1]] = value


@pytest.mark.parametrize("document, path, value", [
    ("instance", ("metric", "points", 0, 0), [1.0] * 100_000),
    ("instance", ("params", _LONG), 1.0),  # an unknown field name
    ("instance", ("schema",), _LONG),
    ("instance", ("metric", "type"), _LONG),
    ("instance", ("params", "alpha"), _LONG),
    ("schedule", ("slots", 0, 0), _LONG),
    ("instance", ("links", 0, "id"), _DIGITS),
    ("schedule", ("slots", 0), [_DIGITS, _DIGITS]),
], ids=["coordinate-list", "field-name", "schema", "metric-type", "alpha", "slot-id",
        "link-id", "repeated-slot-id"])
def test_a_long_offending_value_gives_one_bounded_line(tmp_path, capsys, document, path, value):
    inst = _two_links_at(tmp_path, ((0.0, 0.0), (1.0, 0.0), (100.0, 0.0), (101.0, 0.0)))
    sched = tmp_path / "sched.json"
    sched.write_text(save_schedule(Schedule(slots=(frozenset({0}), frozenset({1})))))
    target = inst if document == "instance" else sched
    doc = json.loads(target.read_text())
    _set(doc, path, value)
    target.write_text(json.dumps(doc))
    assert cli.run(["verify", "--in", str(inst), "--sched", str(sched)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1 and len(captured.err) <= 301
    assert "characters)" in captured.err


@pytest.mark.parametrize("x", [5.039684197899402, 5.039684197899403])
def test_a_slot_on_the_band_edge_scaled_by_two_to_the_600_checks_as_unscaled(tmp_path, capsys, x):
    # (4 / x)^3 lies within a few hundred ulps of the band edge 0.5*(1 + 1e-9).
    # Scaled by 2^600, log d is about 416, and a raw-SINR form taking
    # alpha*(log len - log d) rounded past the cross-check's window and split
    # from the affectance verdict (exit 3).
    def outputs(scale):
        points = ((0.0, 0.0), (4.0 * scale, 0.0), ((x + 1.0) * scale, 0.0), (x * scale, 0.0))
        inst = str(_two_links_at(tmp_path, points))
        schedule = ["schedule", "--in", inst, "--c", "1.25", "--out", str(tmp_path / "s.json")]
        verify = ["verify", "--in", inst, "--sched", _one_slot_schedule(tmp_path)]
        return [run_ok(capsys, argv) for argv in (schedule, verify)]

    unscaled = outputs(1.0)
    assert [code for code, _ in unscaled] == [1, 1]  # the slot {0, 1} is infeasible
    assert outputs(2.0**600) == unscaled


EXACT_THEN_VERIFY = {
    # The load of link 2 -> 3 on link 0 -> 1 is 0.5000000005, the float above
    # the cut of thr = 0.5, so verify rejects the slot {0, 1}.
    "band-edge": Instance(
        EuclideanMetric(points=((0.0,), (1.0,), (2.414213561665988,), (3.414213561665988,))),
        [0, 2], [1, 3], PhysicalParams(alpha=2.0, beta=2.0)),
    # Sender 2 sits on receiver 1: a +inf term, which thr = 1e301 must not pass.
    "saturated": Instance(
        MatrixMetric(d=[[0.0, 1.0, 1.0, 2.0], [1.0, 0.0, 0.0, 1.0], [1.0, 0.0, 0.0, 1.0], [2.0, 1.0, 1.0, 0.0]]),
        [0, 2], [1, 3], PhysicalParams(alpha=3.0, beta=1e-301)),
}


@pytest.mark.parametrize("name", list(EXACT_THEN_VERIFY))
def test_exact_returns_no_slot_that_verify_rejects(tmp_path, capsys, name):
    inst, sched = tmp_path / "inst.json", str(tmp_path / "opt.json")
    inst.write_text(save_instance(EXACT_THEN_VERIFY[name]))
    code, out = run_ok(capsys, ["exact", "--in", str(inst), "--out", sched])
    assert code == 0 and _strict_json(out) == {"optimal_length": 2}
    assert run_ok(capsys, ["verify", "--in", str(inst), "--sched", sched])[0] == 0


@pytest.mark.parametrize("k", [600, -600, 1000, -1000])
def test_scaling_points_by_extreme_powers_of_two_changes_no_output(tmp_path, capsys, k):
    # The float32 cheap terms read the points scaled back to a longest link
    # near 1, and the exact terms are scale-free.
    path = tmp_path / "inst.json"
    assert cli.run(gen_args(path, n=300, seed=3)) == 0
    inst = load_instance(path.read_text())
    scaled = Instance(EuclideanMetric(points=inst.metric.points * 2.0**k), inst.senders,
                      inst.receivers, inst.params)
    scaled_path = tmp_path / "scaled.json"
    scaled_path.write_text(save_instance(scaled))
    cfg = scheduler.SchedulerConfig(c=4.0)
    sched = scheduler.greedy_schedule(inst, cfg)
    assert scheduler.greedy_schedule(scaled, cfg) == sched
    report, scaled_report = sinr.schedule_feasible(sched, inst), sinr.schedule_feasible(sched, scaled)
    assert repr(scaled_report) == repr(report)  # margins bit for bit

    def stdout(inst_path):
        sched_path = tmp_path / f"{inst_path.stem}-sched.json"
        argv = ["schedule", "--in", str(inst_path), "--c", "4", "--out", str(sched_path)]
        verify = ["verify", "--in", str(inst_path), "--sched", str(sched_path)]
        return [run_ok(capsys, argv), run_ok(capsys, verify)], sched_path.read_bytes()

    assert stdout(scaled_path) == stdout(path)


@pytest.mark.parametrize("far", [False, True], ids=["box-40", "box-40-and-box-1e30"])
def test_both_sides_of_the_float32_range_schedule_and_verify_as_the_column_loops(tmp_path, capsys, far):
    # Instances whose squared distances fit float32 take float32 cheap terms;
    # the others take exact distances.  Either way every output is the
    # exact kernel's.
    path, sched_path = tmp_path / "inst.json", tmp_path / "sched.json"
    assert cli.run(gen_args(path, n=60, seed=2, extra=["--box", "40"])) == 0
    inst = load_instance(path.read_text())
    if far:
        inst = with_far_links(inst, 20)
        path.write_text(save_instance(inst))
    assert bool(inst.cheap_scale) != far
    code, out = run_ok(capsys, ["schedule", "--in", str(path), "--c", "4", "--out", str(sched_path)])
    sched = load_schedule(sched_path.read_text())
    assert sched == ref.greedy_schedule_columns(inst, scheduler.SchedulerConfig(c=4.0))
    assert sched.length > 1  # links that interact
    code, out = run_ok(capsys, ["verify", "--in", str(path), "--sched", str(sched_path)])
    columns = [ref.slot_feasible_columns(slot, inst) for slot in sched.slots]
    report = _strict_json(out)
    assert [(s["feasible"], s["worst_link"], s["worst_margin"]) for s in report["slots"]] == columns
    assert code == (0 if all(feasible for feasible, _, _ in columns) else 1)


def test_points_on_a_far_constant_axis_schedule_and_verify_as_the_column_loops(tmp_path, capsys):
    # Every point lies at x = 1e300 and the links are 1e-10 long: scaled by
    # 2^33, the x coordinates would be +inf, so the instance takes exact
    # distances.
    points = [[1e300, 0.0], [1e300, 1e-10], [1e300, 1.0], [1e300, 1.0 + 1e-10]]
    inst = Instance(EuclideanMetric(points=points), [0, 2], [1, 3], PhysicalParams(3.0, 2.0))
    assert inst.cheap_scale == 0.0
    path, sched_path = tmp_path / "inst.json", tmp_path / "sched.json"
    path.write_text(save_instance(inst))
    assert run_ok(capsys, ["schedule", "--in", str(path), "--c", "4", "--out", str(sched_path)])[0] == 0
    sched = load_schedule(sched_path.read_text())
    assert sched == ref.greedy_schedule_columns(inst, scheduler.SchedulerConfig(c=4.0))
    code, out = run_ok(capsys, ["verify", "--in", str(path), "--sched", str(sched_path)])
    report = _strict_json(out)
    columns = [ref.slot_feasible_columns(slot, inst) for slot in sched.slots]
    assert [(s["feasible"], s["worst_link"], s["worst_margin"]) for s in report["slots"]] == columns
    assert code == 0
