"""Outside-in benchmark of the linsched CLI pipelines.

Run from the repository root:

    python3 perfbench/run.py --workload euclid-auto --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload, one table

Each workload runs in fresh child processes, one at a time: several that only
set up (their median is ``setup_s``) and one that sets up, runs an untimed
warm-up op and then ops in a closed loop for ``--seconds`` of op time.  With
``--trace 0`` the last stdout line is a JSON object with the end-to-end
metrics; with ``--trace 1`` the ops alternate traced and untraced and it holds
the per-layer metrics.  Artifacts go to ``.perfbench_out/`` in the root.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ["euclid-auto", "euclid-dial", "oracle", "matrix-large", "oracle-matrix"]
SETUP_PROBES = 6  # set-up-only processes; with the measuring one, 7 set-up samples
DEADLINE_S = 170.0  # every child has ended by then


def _child_env() -> dict:
    env = dict(os.environ)
    # The oracle's subset table is a BLAS matmul; one thread keeps runs
    # comparable on a shared box (and never exceeds nproc).
    env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def _run_child(argv: list[str], deadline: float) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise TimeoutError("benchmark deadline passed")
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *argv], cwd=ROOT, env=_child_env(),
                          stdout=subprocess.PIPE, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {argv} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    out = ROOT / ".perfbench_out" / f"{name}-seed{seed}-trace{trace}"
    shutil.rmtree(out, ignore_errors=True)
    common = ["--workload", name, "--seed", str(seed)]
    setups = []
    if not trace:
        for j in range(SETUP_PROBES):
            setups.append(_run_child([*common, "--out", str(out / f"probe{j}"), "--setup-only"], deadline)["setup_s"])
    result = _run_child([*common, "--seconds", str(seconds), "--trace", str(trace), "--out", str(out / "run")],
                        deadline)
    if not trace:
        setups.append(result["setup_s"])
        result["setup_samples"] = setups
        result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    reported = result.pop("metrics")
    if any(reported.get(name, {}).get("unit") != unit for name, unit in declared.items()):
        raise RuntimeError("worker did not report every metric BENCHMARK.json declares")
    result["metrics"] = {name: reported[name] for name in declared}
    # reported for reading, but too noisy on a shared box to gate (README.md)
    result["ungated"] = {name: m for name, m in reported.items() if name not in declared}
    (out / "result.json").write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return result


def _report(result: dict) -> None:
    env = result["environment"]
    print(f"# {result['workload']} seed={result['seed']} trace={result['trace']} "
          f"ops={result['attempted']} (1 warm-up) failed={result['failed']} "
          f"failed_ratio={result['failed'] / result['attempted']:.3g} python={env['python']} "
          f"numpy={env['numpy']} blas={env['blas']} nproc={env['nproc']} blas_threads={env['blas_threads']}")
    print(f"# digest={result['digest']} I_values={result['I_values']}")
    for msg in result["problems"]:
        print(f"# problem: {msg}")
    for name, m in result["metrics"].items():
        print(f"#   {name} = {m['value']:.6g} {m['unit']}")
    for name, m in result["ungated"].items():
        print(f"#   {name} = {m['value']:.6g} {m['unit']} (not gated)")


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, help="op time to measure (default: run_seconds of BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()
    if not (ROOT / "src" / "linsched" / "__init__.py").is_file():
        print("error: no linsched sources under src/; run from a checkout of the repository", file=sys.stderr)
        return 2
    seconds = args.seconds or json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]
    names = WORKLOADS if args.workload == "all" else [args.workload]
    results = [run_workload(name, args.seed, seconds, args.trace) for name in names]
    for result in results:
        _report(result)
    if args.workload == "all":
        print(json.dumps({r["workload"]: {"correct": r["failed"] == 0, "metrics": r["metrics"]} for r in results}))
        return 0
    r = results[0]
    print(json.dumps({"correct": r["failed"] == 0, "attempted": r["attempted"], "failed": r["failed"],
                      "metrics": r["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
