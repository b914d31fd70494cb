"""Span tracing of linsched's public functions, installed from outside the package.

Each traced function is replaced by a wrapper in every ``linsched`` module that
holds it, including names re-imported with ``from .x import y`` (for example
``cli.load_instance``, ``hardness.two_slot_decision``, ``hardness.slot_feasible``),
so every call site resolves to the wrapper.  A span keeps its name, op id,
parent span, start and end, and references to the call's arguments and result.
Work counts are derived from those references after the run, so no count is
taken inside any timed region.

Per-term functions (``affectance_term``, ``affectance``, ``interference_at``,
``distance``) are never wrapped: they run up to millions of times per op and
the wrapper cost would swamp the op.
"""

from __future__ import annotations

import bisect
import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

LAYERS = {
    "cli": ["run"],
    "model": ["load_instance", "save_instance", "validate_instance", "load_schedule", "save_schedule"],
    "gen": ["random_euclidean"],
    "scheduler": ["greedy_schedule"],
    "bounds": ["interference_measure", "bound_report"],
    "sinr": ["slot_feasible", "schedule_feasible"],
    "oracle": ["optimal_schedule", "subset_table", "two_slot_decision", "partition_solve"],
    "hardness": ["build_reduction", "metric_complete", "verify_reduction"],
}


SETUP = "setup"  # op id of the spans recorded while the inputs are generated


class Span:
    __slots__ = ("name", "op", "parent", "start", "end", "args", "kwargs", "result")

    def __init__(self, name, op, parent, args, kwargs):
        self.name = name
        self.op = op
        self.parent = parent
        self.args = args
        self.kwargs = kwargs
        self.start = self.end = 0.0
        self.result = None


class Tracer:
    """Collects spans in memory while installed; ``install``/``uninstall`` swap
    the wrappers in and out so untraced ops run the original functions."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op = None
        self._stack: list[int] = []
        self._originals: dict[int, tuple[object, object]] = {}  # id -> (function, wrapper)
        self._swapped: list[tuple[object, str, object]] = []
        for layer, names in LAYERS.items():
            module = importlib.import_module(f"linsched.{layer}")
            for fn_name in names:
                fn = getattr(module, fn_name)
                self._originals[id(fn)] = (fn, self._wrap(f"{layer}.{fn_name}", fn))

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, self.op, stack[-1] if stack else None, args, kwargs)
            spans.append(span)
            stack.append(len(spans) - 1)
            span.start = clock()
            try:
                span.result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            return span.result

        return traced

    def install(self, op) -> None:
        self.op = op
        modules = [m for key, m in list(sys.modules.items()) if key == "linsched" or key.startswith("linsched.")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                entry = self._originals.get(id(value))
                if entry is not None and entry[0] is value:
                    self._swapped.append((module, attr, value))
                    setattr(module, attr, entry[1])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._swapped):
            setattr(module, attr, value)
        self._swapped.clear()
        self.op = None

    def write(self, path) -> None:
        """Write every span as one JSON line (index, name, op, parent, times)."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"i": i, "name": s.name, "op": s.op, "parent": s.parent,
                                     "start": s.start, "end": s.end}) + "\n")


# ---------------------------------------------------------------------------
# Work counts, computed from each span's arguments and result.  All of them
# depend only on the inputs and outputs, so they repeat exactly for a seed.


def _greedy_counts(a, sched):
    """Replay first-fit from the output: a link in slot k probed slots 0..k-1
    (rejected) and slot k (admitted) unless it opened slot k; each probe
    evaluates one term per member placed in that slot before it."""
    inst = a["inst"]
    lengths = inst.lengths
    order = sorted(range(inst.n), key=lambda i: (-lengths[i], i))
    pos = {v: p for p, v in enumerate(order)}
    slot_pos = [sorted(pos[v] for v in slot) for slot in sched.slots]
    probes = terms = 0
    for k, positions in enumerate(slot_pos):
        for j, p in enumerate(positions):
            probes += k + (1 if j else 0)
            terms += j + sum(bisect.bisect_left(slot_pos[i], p) for i in range(k))
    return {"links": inst.n, "slot_probes": probes, "term_evals": terms, "slots": len(sched.slots)}


def _slot_feasible_counts(a, res):
    s = len(set(a["members"]))
    # affectance form plus the raw-SINR cross-check, each s(s-1) terms
    return {"calls": 1, "term_evals": 2 * s * (s - 1), "feasible": int(res.feasible)}


def _interference_counts(a, _res):
    return {"term_evals": len(set(a["members"])) * len(a["inst"].used_nodes())}


def _subset_table_counts(a, table):
    n = a["inst"].n
    return {"subsets": 1 << n, "feasible": int(table.feasible.sum()), "flops": 2 * (1 << n) * n * n}


def _validate_counts(a, _res):
    metric = a["inst"].metric
    if not a.get("check_triangle", True) or not hasattr(metric, "d"):
        return {"triangle_triples": 0}
    n = len(metric.d)
    return {"triangle_triples": n * (n - 1) * n}


COUNTS = {
    "cli.run": lambda a, r: {"calls": 1},
    "scheduler.greedy_schedule": _greedy_counts,
    "sinr.slot_feasible": _slot_feasible_counts,
    "bounds.interference_measure": _interference_counts,
    "oracle.subset_table": _subset_table_counts,
    "oracle.optimal_schedule": lambda a, r: {"submask_iters": 3 ** a["inst"].n - 2 ** a["inst"].n},
    "model.load_instance": lambda a, r: {"bytes": len(a["text"].encode())},
    "model.save_instance": lambda a, r: {"bytes": len(r.encode())},
    "model.validate_instance": _validate_counts,
    "hardness.metric_complete": lambda a, r: {"nodes": a["n_nodes"]},
}

# (metric name, unit) in printed order; BENCHMARK.json lists the same metrics.
PER_LAYER = [
    ("bounds.interference_measure.self_s", "s"),
    ("bounds.interference_measure.term_evals", "count"),
    ("bounds.interference_measure.ns_per_term", "ns"),
    ("bounds.bound_report.self_s", "s"),
    ("sinr.slot_feasible.calls", "count"),
    ("sinr.slot_feasible.self_s", "s"),
    ("sinr.slot_feasible.term_evals", "count"),
    ("sinr.slot_feasible.ns_per_term", "ns"),
    ("sinr.slot_feasible.feasible_ratio", "ratio"),
    ("sinr.schedule_feasible.self_s", "s"),
    ("scheduler.greedy_schedule.self_s", "s"),
    ("scheduler.greedy_schedule.slot_probes", "count"),
    ("scheduler.greedy_schedule.term_evals", "count"),
    ("scheduler.greedy_schedule.admit_ratio", "ratio"),
    ("scheduler.greedy_schedule.slots", "count"),
    ("oracle.optimal_schedule.self_s", "s"),
    ("oracle.optimal_schedule.submask_iters", "count"),
    ("oracle.subset_table.self_s", "s"),
    ("oracle.subset_table.subsets", "count"),
    ("oracle.subset_table.feasible_ratio", "ratio"),
    ("oracle.subset_table.flops", "count"),
    ("oracle.two_slot_decision.self_s", "s"),
    ("oracle.partition_solve.self_s", "s"),
    ("model.load_instance.self_s", "s"),
    ("model.load_instance.bytes", "B"),
    ("model.save_instance.self_s", "s"),
    ("model.save_instance.bytes", "B"),
    ("model.validate_instance.self_s", "s"),
    ("model.validate_instance.triangle_triples", "count"),
    ("model.load_schedule.self_s", "s"),
    ("model.save_schedule.self_s", "s"),
    ("hardness.build_reduction.self_s", "s"),
    ("hardness.metric_complete.self_s", "s"),
    ("hardness.metric_complete.nodes", "count"),
    ("hardness.verify_reduction.self_s", "s"),
    ("cli.run.calls", "count"),
    ("cli.run.self_s", "s"),
    ("gen.random_euclidean.self_s", "s"),
    ("trace.overhead_frac", "ratio"),
]

_SIGNATURES = {}


def _bound_args(span) -> dict:
    sig = _SIGNATURES.get(span.name)
    if sig is None:
        module, fn_name = span.name.split(".")
        fn = getattr(importlib.import_module(f"linsched.{module}"), fn_name)
        sig = _SIGNATURES[span.name] = inspect.signature(inspect.unwrap(fn))
    bound = sig.bind(*span.args, **span.kwargs)
    bound.apply_defaults()
    return bound.arguments


def per_layer_metrics(spans, traced_ops: int, first_pass_ops, overhead_frac: float) -> dict:
    """Aggregate spans into the PER_LAYER metrics.

    Self times are seconds per traced op (``gen.random_euclidean`` runs only
    in set-up and is seconds per generated instance).  Counts are per op,
    averaged over ``first_pass_ops`` (one traced op per pool instance), so
    they repeat exactly for a seed.  ``ns_per_term`` divides all traced self
    time by all traced term evaluations.
    """
    child_time = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.end - s.start
    op_self = defaultdict(float)  # self seconds over all traced ops
    op_terms = defaultdict(int)  # term evaluations over all traced ops
    first = defaultdict(float)  # counts over the first pass
    gen_self, gen_calls = 0.0, 0
    first_set = set(first_pass_ops)
    for i, s in enumerate(spans):
        self_time = s.end - s.start - child_time[i]
        if s.op == SETUP:
            if s.name == "gen.random_euclidean":
                gen_self += self_time
                gen_calls += 1
            continue
        op_self[s.name] += self_time
        count_fn = COUNTS.get(s.name)
        if count_fn is None:
            continue
        counts = count_fn(_bound_args(s), s.result)
        op_terms[s.name] += counts.get("term_evals", 0)
        if s.op in first_set:
            for c, v in counts.items():
                first[f"{s.name}.{c}"] += v

    def ratio(num, den):
        return num / den if den else 0.0

    values = {
        "bounds.interference_measure.ns_per_term": ratio(op_self["bounds.interference_measure"] * 1e9, op_terms["bounds.interference_measure"]),
        "sinr.slot_feasible.ns_per_term": ratio(op_self["sinr.slot_feasible"] * 1e9, op_terms["sinr.slot_feasible"]),
        "sinr.slot_feasible.feasible_ratio": ratio(first["sinr.slot_feasible.feasible"], first["sinr.slot_feasible.calls"]),
        "scheduler.greedy_schedule.admit_ratio": ratio(first["scheduler.greedy_schedule.links"], first["scheduler.greedy_schedule.slot_probes"]),
        "oracle.subset_table.feasible_ratio": ratio(first["oracle.subset_table.feasible"], first["oracle.subset_table.subsets"]),
        "gen.random_euclidean.self_s": ratio(gen_self, gen_calls),
        "trace.overhead_frac": overhead_frac,
    }
    out = {}
    for name, unit in PER_LAYER:
        if name not in values:
            fn_name, metric = name.rsplit(".", 1)
            values[name] = ratio(op_self[fn_name], traced_ops) if metric == "self_s" else ratio(first[name], len(first_set))
        out[name] = {"value": values[name], "unit": unit}
    return out
