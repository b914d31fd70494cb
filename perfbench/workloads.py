"""The benchmark's workloads: seeded inputs, the timed CLI commands of one op,
and the untimed outside-in checks of each op's outputs.

Every workload uses alpha = 3, beta = 2.  One op takes one pool instance
through the listed commands via ``linsched.cli.run(argv)`` in a fresh working
directory.  Why each workload exists is in README.md next to this file.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

from linsched import cli

ALPHA, BETA = "3", "2"
POOL = 2  # instances per run; every run takes each of them through at least one op


@dataclass
class Result:
    command: str
    code: int
    stdout: str


def call(argv: list[str]) -> Result:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.run(argv)  # resolved per call, so the tracer's wrapper is seen
    return Result(argv[0], code, out.getvalue())


def _setup_call(argv: list[str]) -> dict:
    res = call(argv)
    if res.code != 0:
        raise RuntimeError(f"set-up command {argv} exited {res.code}")
    return json.loads(res.stdout) if res.stdout else {}


def _json(res: Result, problems: list[str]) -> dict:
    try:
        return json.loads(res.stdout)
    except ValueError:
        problems.append(f"{res.command}: stdout is not one JSON object (exit {res.code})")
        return {}


def _slots(path: Path, n: int, problems: list[str]) -> list[list[int]]:
    """The schedule file's slots, checked to be a partition of 0..n-1."""
    try:
        slots = json.loads(path.read_text(encoding="utf-8"))["slots"]
    except (OSError, ValueError, KeyError, TypeError):
        problems.append(f"{path.name}: no readable schedule")
        return []
    ids = [v for slot in slots for v in slot]
    if any(not slot for slot in slots) or sorted(ids) != list(range(n)):
        problems.append(f"{path.name}: slots are not a partition of the {n} links")
    return slots


def _expect(cond: bool, what: str, problems: list[str]) -> None:
    if not cond:
        problems.append(what)


def _verify_record(res: Result, n_slots: int, problems: list[str]) -> dict:
    out = _json(res, problems)
    verdict = out.get("verdict")
    _expect(res.code == (0 if verdict == "feasible" else 1), f"verify exit {res.code} with verdict {verdict}", problems)
    _expect(verdict in ("feasible", "infeasible"), f"verify verdict {verdict}", problems)
    _expect(len(out.get("slots", [])) == n_slots, "verify reports another slot count", problems)
    return {
        "verdict": verdict,
        "first_infeasible_slot": out.get("first_infeasible_slot"),
        "slot_feasible": [s.get("feasible") for s in out.get("slots", [])],
    }


def _schedule_record(res: Result, slots: list, problems: list[str]) -> tuple[dict, float]:
    """Checks a ``schedule`` report; returns it without I (recorded apart) and I."""
    out = _json(res, problems)
    _expect(out.get("bound_holds") is True, "bound_holds is not true", problems)
    _expect(out.get("schedule_length") == len(slots), "schedule_length differs from the file", problems)
    i_value = out.pop("I_value", math.nan)
    out.pop("upper_bound", None)  # c^alpha * I + 1, so it follows I
    return out, i_value


def _has_equal_split(values: list[int]) -> bool:
    total = sum(values)
    sums = {0}
    for x in values:
        sums |= {s + x for s in sums}
    return total % 2 == 0 and total // 2 in sums


class Euclid:
    """random-euclidean n=1000 at constant density; schedule then verify."""

    n = 1000

    def __init__(self, c: str) -> None:
        self.c = c

    def make_inputs(self, rng, indir: Path) -> list[dict]:
        box = repr(100.0 * math.sqrt(self.n / 50))
        inputs = []
        for i in range(POOL):
            path = indir / f"euclid{i}.json"
            _setup_call(["gen", "--family", "random-euclidean", "--n", str(self.n),
                         "--seed", str(rng.randrange(2**32)), "--alpha", ALPHA, "--beta", BETA,
                         "--box", box, "--out", str(path)])
            inputs.append({"instance": str(path)})
        return inputs

    def op(self, inp: dict, d: Path) -> list[Result]:
        return [
            call(["schedule", "--in", inp["instance"], "--c", self.c, "--out", str(d / "sched.json")]),
            call(["verify", "--in", inp["instance"], "--sched", str(d / "sched.json")]),
        ]

    def check(self, inp: dict, results: list[Result], d: Path):
        problems: list[str] = []
        sched, verify = results
        slots = _slots(d / "sched.json", self.n, problems)
        out, i_value = _schedule_record(sched, slots, problems)
        vrec = _verify_record(verify, len(slots), problems)
        if self.c == "auto":
            _expect(sched.code == 0 and out.get("feasible") is None, "auto schedule: exit or feasible field", problems)
            _expect(vrec["verdict"] == "feasible", "auto-c schedule is not feasible", problems)
        else:
            feasible = out.get("feasible")
            _expect(sched.code == (0 if feasible else 1), f"schedule exit {sched.code} with feasible={feasible}", problems)
            _expect(vrec["verdict"] == ("feasible" if feasible else "infeasible"), "schedule and verify disagree", problems)
        record = {"exit": [r.code for r in results], "schedule": out, "slots": slots, "verify": vrec}
        return problems, record, [i_value]


class Oracle:
    """exact on a dense n=15 instance, decide2 on a 20-link reduction."""

    def make_inputs(self, rng, indir: Path) -> list[dict]:
        inputs = []
        for i in range(POOL):
            dense, red = indir / f"dense{i}.json", indir / f"reduction{i}.json"
            _setup_call(["gen", "--family", "random-euclidean", "--n", "15",
                         "--seed", str(rng.randrange(2**32)), "--alpha", ALPHA, "--beta", BETA,
                         "--box", "10", "--out", str(dense)])
            values = [rng.randint(1, 20) for _ in range(6)]
            report = _setup_call(["reduce", "--partition", ",".join(map(str, values)),
                                  "--alpha", ALPHA, "--beta", BETA, "--out", str(red)])
            inputs.append({"dense": str(dense), "reduction": str(red), "values": values,
                           "middle_slot_feasible": report["middle_slot_feasible"]})
        return inputs

    def op(self, inp: dict, d: Path) -> list[Result]:
        return [
            call(["exact", "--in", inp["dense"], "--cap", "16", "--out", str(d / "opt.json")]),
            call(["decide2", "--in", inp["reduction"], "--cap", "20"]),
        ]

    def check(self, inp: dict, results: list[Result], d: Path):
        problems: list[str] = []
        exact, decide = results
        _expect(exact.code == 0, f"exact exit {exact.code}", problems)
        slots = _slots(d / "opt.json", 15, problems)
        optimal = _json(exact, problems).get("optimal_length")
        _expect(optimal == len(slots), "optimal_length differs from the file", problems)
        vrec = _verify_record(call(["verify", "--in", inp["dense"], "--sched", str(d / "opt.json")]), len(slots), problems)
        _expect(vrec["verdict"] == "feasible", "exact schedule does not verify", problems)
        greedy = _json(call(["schedule", "--in", inp["dense"], "--c", "auto", "--out", str(d / "greedy.json")]), problems)
        _expect(optimal is not None and optimal <= greedy.get("schedule_length", -1), "exact is longer than greedy", problems)
        answer = _json(decide, problems).get("two_slot_schedulable")
        _expect(decide.code == (0 if answer else 1), f"decide2 exit {decide.code} with answer {answer}", problems)
        if inp["middle_slot_feasible"]:
            _expect(answer == _has_equal_split(inp["values"]), "decide2 disagrees with PARTITION", problems)
        record = {"exit": [r.code for r in results], "optimal_length": optimal, "slots": slots,
                  "verify": vrec, "two_slot_schedulable": answer}
        return problems, record, []


class MatrixLarge:
    """reduce 30 integers into a 184-node matrix instance, schedule, verify."""

    size = 30

    def make_inputs(self, rng, indir: Path) -> list[dict]:
        inputs = []
        for i in range(POOL):
            values = ",".join(str(rng.randint(1, 100)) for _ in range(self.size))
            (indir / f"partition{i}.txt").write_text(values + "\n", encoding="utf-8")
            inputs.append({"partition": values})
        return inputs

    def op(self, inp: dict, d: Path) -> list[Result]:
        inst = str(d / "reduction.json")
        return [
            call(["reduce", "--partition", inp["partition"], "--alpha", ALPHA, "--beta", BETA, "--out", inst]),
            call(["schedule", "--in", inst, "--c", "auto", "--out", str(d / "sched.json")]),
            call(["verify", "--in", inst, "--sched", str(d / "sched.json")]),
        ]

    def check(self, inp: dict, results: list[Result], d: Path):
        problems: list[str] = []
        reduce, sched, verify = results
        report = _json(reduce, problems)
        _expect(reduce.code == 0 and report.get("identity_ok") is True, "reduce: exit or identity_ok", problems)
        _expect(report.get("oracle_skipped") is True, "reduce ran the oracle above its cap", problems)
        _expect((d / "reduction.verify.json").is_file(), "reduce wrote no sidecar", problems)
        slots = _slots(d / "sched.json", 3 * self.size + 2, problems)
        out, i_value = _schedule_record(sched, slots, problems)
        _expect(sched.code == 0 and out.get("feasible") is None, "auto schedule: exit or feasible field", problems)
        vrec = _verify_record(verify, len(slots), problems)
        kept = ("identity_ok", "middle_slot_feasible", "oracle_skipped", "two_slot_schedulable")
        record = {"exit": [r.code for r in results], "reduce": {k: report.get(k) for k in kept},
                  "schedule": out, "slots": slots, "verify": vrec}
        return problems, record, [i_value]


class Sequence:
    """The ops of several workloads run back to back as one op, each part in
    its own subdirectory, so one run holds more op time per process."""

    def __init__(self, *parts) -> None:
        self.parts = parts

    def make_inputs(self, rng, indir: Path) -> list[list[dict]]:
        return [list(inp) for inp in zip(*(part.make_inputs(rng, indir) for part in self.parts))]

    def op(self, inp: list[dict], d: Path) -> list[list[Result]]:
        results = []
        for j, part in enumerate(self.parts):
            (d / str(j)).mkdir()
            results.append(part.op(inp[j], d / str(j)))
        return results

    def check(self, inp: list[dict], results: list[list[Result]], d: Path):
        problems, records, i_values = [], [], []
        for j, part in enumerate(self.parts):
            part_problems, record, part_i = part.check(inp[j], results[j], d / str(j))
            problems += part_problems
            records.append(record)
            i_values += part_i
        return problems, records, i_values


WORKLOADS = {
    "euclid-auto": Euclid("auto"),
    "euclid-dial": Euclid("4"),
    "oracle": Oracle(),
    "matrix-large": MatrixLarge(),
    "oracle-matrix": Sequence(MatrixLarge(), Oracle()),
}
