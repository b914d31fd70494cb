"""One workload in one fresh process: set-up, warm-up op, closed loop of ops.

Started by run.py; prints one JSON object as its last stdout line and writes
the same object, plus op times and spans when traced, under ``--out``.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 --out DIR
    python3 perfbench/worker.py --workload NAME --seed N --out DIR --setup-only
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _environment(threads: str) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        openblas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": openblas,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": threads,
    }


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()
    out = Path(args.out)
    indir, opsdir = out / "inputs", out / "ops"
    indir.mkdir(parents=True)
    opsdir.mkdir()
    sys.path.insert(0, str(ROOT / "src"))

    # set-up: from importing linsched through generating and writing the inputs
    t0 = time.perf_counter()
    import linsched  # noqa: F401

    from workloads import WORKLOADS
    from tracer import SETUP, Tracer, per_layer_metrics

    wl = WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install(SETUP)
    inputs = wl.make_inputs(random.Random(args.seed), indir)
    if tracer:
        tracer.uninstall()
    setup_s = time.perf_counter() - t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    pool = len(inputs)
    reps = 2 if tracer else 1  # traced ops alternate with untraced ones
    by_instance: dict[int, tuple[str, list[float]]] = {}
    problems: list[str] = []
    times = {True: [], False: []}
    first_pass: dict[int, int] = {}
    attempted = failed = 0
    measured = 0.0
    k = -1  # op -1 is the untimed warm-up
    while k < 0 or measured < args.seconds or k < reps * pool:
        i = max(k, 0) // reps % pool
        traced = bool(tracer) and k >= 0 and k % 2 == 0
        d = opsdir / f"op{k}"
        d.mkdir()
        gc.collect()
        if traced:
            tracer.install(k)
        start = time.perf_counter()
        results = wl.op(inputs[i], d)
        elapsed = time.perf_counter() - start
        if traced:
            tracer.uninstall()
            first_pass.setdefault(i, k)
        if k >= 0:
            times[traced].append(elapsed)
            measured += elapsed
        op_problems, record, i_values = wl.check(inputs[i], results, d)
        digest = _digest(record)
        seen = by_instance.setdefault(i, (digest, i_values))
        if seen != (digest, i_values):
            op_problems.append("outputs differ from an earlier op on the same instance")
        attempted += 1
        if op_problems:
            failed += 1
            problems.extend(f"op {k} (instance {i}): {msg}" for msg in op_problems)
        shutil.rmtree(d)
        k += 1

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": _environment(os.environ.get("OPENBLAS_NUM_THREADS", "unset")),
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "digest": _digest([by_instance[i][0] for i in range(pool)]),
        "I_values": [by_instance[i][1] for i in range(pool)],
        "setup_s": setup_s,
    }
    untraced = times[False]
    if tracer:
        traced_times = times[True]
        overhead = statistics.median(traced_times) / statistics.median(untraced) - 1.0
        result["metrics"] = per_layer_metrics(tracer.spans, len(traced_times), first_pass.values(), overhead)
        result["op_times"] = {"traced": traced_times, "untraced": untraced}
        tracer.write(out / "spans.jsonl")
    else:
        result["op_times"] = untraced
        result["metrics"] = {
            "op_s_p50": {"value": statistics.median(untraced), "unit": "s"},
            "ops_per_s": {"value": len(untraced) / sum(untraced), "unit": "1/s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
        }
    (out / "result.json").write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
