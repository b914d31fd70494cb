"""Check that two sets of benchmark runs produced the same outputs.

    python3 perfbench/compare.py perfbench/baseline/seed-commit.json NEW.json

Both files are written by ``collect.py --write``.  For every (workload, seed,
trace) present in both, the output digests (schedules, verdicts, exit codes,
optimal lengths) must be identical and each interference measure ``I`` must
agree within a relative 1e-9, since a change of summation order may move its
last bits.  Exits 1 on any difference or when no run is shared.
"""

from __future__ import annotations

import json
import math
import sys


def _runs(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return {(r["workload"], r["seed"], r["trace"]): r for r in json.load(fh)["runs"]}


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = map(_runs, argv)
    shared = sorted(base.keys() & new.keys())
    bad = 0
    for key in shared:
        a, b = base[key], new[key]
        i_a = [x for values in a["I_values"] for x in values]
        i_b = [x for values in b["I_values"] for x in values]
        same_i = len(i_a) == len(i_b) and all(math.isclose(x, y, rel_tol=1e-9) for x, y in zip(i_a, i_b))
        if a["digest"] != b["digest"] or not same_i:
            bad += 1
            print(f"DIFFERENT {key}: digest {a['digest'][:12]} vs {b['digest'][:12]}, I {i_a} vs {i_b}")
    print(f"{len(shared)} shared runs, {bad} with different outputs")
    return 0 if shared and not bad else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
