"""Run the benchmark over several seeds and summarize the spread of each metric.

    python3 perfbench/collect.py --seeds 1-10 [--workloads euclid-auto,oracle] [--trace 0]
                                 [--write perfbench/baseline/NAME.json]

Each run is the command in BENCHMARK.json, started exactly as a single
benchmark run.  The summary gives, per workload and metric, the median and
the quartile spread (q3 - q1) / median over the seeds, next to the metric's
bound.  ``--write`` stores every run (metrics, digest, I values, environment)
with the summary, for later comparison with compare.py.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(runs: list[dict], bounds: dict) -> dict:
    summary = {}
    for run in runs:
        for name, m in {**run["metrics"], **run["ungated"]}.items():
            summary.setdefault(run["workload"], {}).setdefault(name, []).append(m["value"])
    for workload, metrics in summary.items():
        for name, values in metrics.items():
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            metrics[name] = {"median": med, "q1": q1, "q3": q3, "n": len(values),
                             "spread": (q3 - q1) / med if med else 0.0, "bound": bounds.get(name)}
    return summary


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--write")
    args = p.parse_args()
    runs = []
    for seed in _seeds(args.seeds):
        for workload in args.workloads.split(","):
            argv = [*spec["command"], "--workload", workload, "--seed", str(seed),
                    "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
            line = json.loads(proc.stdout.strip().splitlines()[-1])
            detail = json.loads((ROOT / ".perfbench_out" / f"{workload}-seed{seed}-trace{args.trace}"
                                 / "result.json").read_text(encoding="utf-8"))
            run = {"workload": workload, "seed": seed, "trace": args.trace, **line,
                   "ungated": detail["ungated"], "digest": detail["digest"], "I_values": detail["I_values"],
                   "environment": detail["environment"]}
            runs.append(run)
            print(json.dumps({k: run[k] for k in ("workload", "seed", "correct", "attempted", "failed")}), flush=True)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = summarize(runs, bounds)
    for workload, metrics in summary.items():
        for name, s in metrics.items():
            bound = "" if s["bound"] is None else f"  bound {s['bound']:.2f}"
            print(f"{workload:13s} {name:45s} median {s['median']:.6g}  spread {s['spread']:.4f}{bound}")
    if args.write:
        Path(args.write).write_text(json.dumps({"summary": summary, "runs": runs}, indent=1) + "\n",
                                    encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
