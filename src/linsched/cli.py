"""Command-line frontend: file-in/file-out pipelines over the library.

Exit codes: 0 success, 1 negative domain verdict (infeasible schedule,
violated bound, two-slot answer "no"), 2 usage or input errors, 3 an
internal error (a failed internal cross-check or any other unexpected
exception).  All output is deterministic given identical inputs.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import traceback
from dataclasses import MISSING, asdict, fields
from pathlib import Path

from . import bounds, gen, hardness, oracle, scheduler, sinr
from .model import (
    FormatError,
    Instance,
    PhysicalParams,
    load_instance,
    load_schedule,
    save_instance,
    save_schedule,
    validate_instance,
)


def _emit(obj: dict) -> None:
    print(json.dumps(obj, sort_keys=True))


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _write(path: str, text: str) -> None:
    Path(path).write_text(text, encoding="utf-8")


def _reject_errors(diags, what: str) -> None:
    errors = [d for d in diags if d.severity == "error"]
    if errors:
        raise FormatError(
            f"{what} is invalid: " + "; ".join(f"[{d.code}] {d.message}" for d in errors)
        )


def _load_checked_instance(path: str, check_triangle: bool) -> Instance:
    inst = load_instance(_read(path))
    diags = validate_instance(inst, check_triangle=check_triangle)
    for d in diags:
        if d.severity == "warning":
            print(f"warning [{d.code}]: {d.message}", file=sys.stderr)
    _reject_errors(diags, f"instance {path}")
    return inst


def _parse_c(text: str, inst: Instance) -> tuple[scheduler.SchedulerConfig, bool]:
    """Returns (config, auto_mode)."""
    if text == "auto":
        return scheduler.SchedulerConfig.auto(inst.params), True
    try:
        value = float(text)
    except ValueError:
        raise FormatError(f"--c must be 'auto' or a number, got {text!r}") from None
    return scheduler.SchedulerConfig(c=value), False


def _cap(text: str) -> int:
    """An oracle cap, checked as argparse reads it, before any file is written."""
    try:
        cap = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    try:
        return oracle.check_cap(cap)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _params(args: argparse.Namespace) -> PhysicalParams:
    return PhysicalParams(**{f.name: getattr(args, f.name) for f in fields(PhysicalParams)})


def _cmd_gen(args: argparse.Namespace) -> int:
    params = _params(args)
    if args.family == "random-euclidean":
        spec = gen.GenSpec(
            n=args.n, params=params, box=args.box, lmin=args.lmin,
            lmax=args.lmax, seed=args.seed,
        )
        inst = gen.random_euclidean(spec)
    elif args.family == "collocated":
        inst = gen.collocated(args.n, params)
    else:  # spread; argparse allows no other family
        if args.separation is None:
            raise FormatError("--separation is required for the spread family")
        inst = gen.spread(args.n, args.separation, params)
    text = save_instance(inst)  # refuses NaN and infinite coordinates first
    # Rounding can collapse a link; collocated's matrix is a pseudometric by construction.
    _reject_errors(validate_instance(inst, check_triangle=False), "generated instance")
    _write(args.out, text)
    return 0


def _cmd_schedule(args: argparse.Namespace) -> int:
    inst = _load_checked_instance(args.infile, not args.no_triangle_check)
    cfg, auto = _parse_c(args.c, inst)
    sched = scheduler.greedy_schedule(inst, cfg)
    _write(args.out, save_schedule(sched))
    report = asdict(bounds.bound_report(inst, sched, cfg))
    del report["argmax_node"]
    feasible: bool | None = None
    if not auto:
        feasible = sinr.schedule_feasible(sched, inst).feasible
    _emit(
        {
            "c": cfg.c,
            "c_mode": "auto" if auto else "manual",
            **report,
            "feasible": feasible,
        }
    )
    if feasible is False:
        return 1
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    inst = _load_checked_instance(args.infile, not args.no_triangle_check)
    sched = load_schedule(_read(args.sched))
    report = sinr.schedule_feasible(sched, inst)
    slots = [asdict(r) for r in report.slot_results]
    for slot in slots:  # a saturated slot's margin is -inf, which JSON cannot hold
        slot["worst_margin"] = slot["worst_margin"] if math.isfinite(slot["worst_margin"]) else None
    _emit(
        {
            "verdict": report.verdict,
            "partition_problems": list(report.partition_problems),
            "first_infeasible_slot": report.first_infeasible_slot(),
            "slots": slots,
        }
    )
    return 0 if report.feasible else 1


def _cmd_bound(args: argparse.Namespace) -> int:
    inst = _load_checked_instance(args.infile, not args.no_triangle_check)
    sched = load_schedule(_read(args.sched))
    cfg, _ = _parse_c(args.c, inst)
    report = bounds.bound_report(inst, sched, cfg)
    _emit({"c": cfg.c, **asdict(report)})
    return 0 if report.bound_holds else 1


def _cmd_exact(args: argparse.Namespace) -> int:
    inst = _load_checked_instance(args.infile, not args.no_triangle_check)
    sched = oracle.optimal_schedule(inst, cap=args.cap)
    _write(args.out, save_schedule(sched))
    _emit({"optimal_length": sched.length})
    return 0


def _cmd_decide2(args: argparse.Namespace) -> int:
    inst = _load_checked_instance(args.infile, not args.no_triangle_check)
    answer = oracle.two_slot_decision(inst, cap=args.cap)
    _emit({"two_slot_schedulable": answer})
    return 0 if answer else 1


def _cmd_reduce(args: argparse.Namespace) -> int:
    try:
        values = [int(x) for x in args.partition.split(",") if x.strip() != ""]
    except ValueError:
        raise FormatError(
            f"--partition must be comma-separated integers, got {args.partition!r}"
        ) from None
    art = hardness.build_reduction(values, alpha=args.alpha, beta=args.beta)
    # The end receivers are at distance 0, so each end sender is as far from
    # the other end receiver as from its own: the mutual terms are exactly 1.0.
    if sinr.slot_feasible([0, len(art.padded_b) + 1], art.instance).feasible:
        raise FormatError(
            f"alpha = {args.alpha!r}, beta = {args.beta!r} cannot be encoded: the end links' "
            "mutual term 1.0 fits under the cut of 1/beta, so they share a slot and every "
            "input with a feasible middle slot fits two slots"
        )
    verified = hardness.verify_reduction(art, cap=args.cap)
    if not verified.identity_ok:
        raise FormatError(
            f"alpha = {args.alpha!r}, beta = {args.beta!r} cannot be encoded: the end links "
            f"receive {verified.affectance_on_end_links} from the middle links, "
            f"not 2/beta = {verified.expected_end_affectance!r}"
        )
    if verified.equivalence_ok is False:
        answer = {True: "yes", False: "no"}
        raise FormatError(
            f"--partition {args.partition!r} cannot be encoded at alpha = {args.alpha!r}, "
            f"beta = {args.beta!r}: the instance's two-slot answer is "
            f"{answer[verified.two_slot_schedulable]!r}, PARTITION's is "
            f"{answer[verified.partition_solvable]!r}"
        )
    _write(args.out, save_instance(art.instance))
    report = asdict(verified)
    sidecar = {
        "A": list(art.original_a),
        "B": list(art.padded_b),
        "S_of_B": art.sum_b,
        "node_map": art.node_map,
        "report": report,
    }
    sidecar_path = Path(args.out).with_suffix(".verify.json")
    _write(str(sidecar_path), json.dumps(sidecar, sort_keys=True, indent=2) + "\n")
    _emit(report)
    return 0


def _cmd_constants(args: argparse.Namespace) -> int:
    params = _params(args)
    _emit({"c0": scheduler.compute_c0(params), "c": scheduler.compute_c(params)})
    return 0


def _add_param_args(p: argparse.ArgumentParser) -> None:
    """One option per PhysicalParams field; c_l is spelled --cl."""
    for f in fields(PhysicalParams):
        kw = {"required": True} if f.default is MISSING else {"default": f.default}
        if f.name == "c_l":
            p.add_argument("--cl", dest="c_l", type=float, help="linear power coefficient", **kw)
        else:
            p.add_argument(f"--{f.name}", type=float, **kw)


def _add_instance_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("--in", dest="infile", required=True, help="instance file")
    p.add_argument(
        "--no-triangle-check",
        action="store_true",
        help="skip the cubic triangle-inequality validation on matrix metrics",
    )


@functools.cache  # built once per process; parsing leaves the parser as it was
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linsched",
        description="SINR link scheduling with linear power assignment",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a deterministic instance file")
    p.add_argument(
        "--family",
        required=True,
        choices=["random-euclidean", "collocated", "spread"],
    )
    p.add_argument("--n", type=int, required=True, help="number of links")
    p.add_argument("--seed", type=int, default=0)
    _add_param_args(p)
    p.add_argument("--box", type=float, default=100.0)
    p.add_argument("--lmin", type=float, default=1.0)
    p.add_argument("--lmax", type=float, default=2.0)
    p.add_argument("--separation", type=float, default=None, help="spread family only")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("schedule", help="run the greedy scheduler")
    _add_instance_arg(p)
    p.add_argument("--c", default="auto", help="'auto' or a separation constant > 1")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_schedule)

    p = sub.add_parser("verify", help="check a schedule for SINR feasibility")
    _add_instance_arg(p)
    p.add_argument("--sched", required=True)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("bound", help="schedule length vs interference bound")
    _add_instance_arg(p)
    p.add_argument("--sched", required=True)
    p.add_argument("--c", default="auto")
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("exact", help="exact minimum-length schedule (small n)")
    _add_instance_arg(p)
    p.add_argument("--cap", type=_cap, default=oracle.DEFAULT_CAP)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_exact)

    p = sub.add_parser("decide2", help="can the links fit in two slots?")
    _add_instance_arg(p)
    p.add_argument("--cap", type=_cap, default=oracle.DEFAULT_CAP)
    p.set_defaults(func=_cmd_decide2)

    p = sub.add_parser("reduce", help="build an adversarial instance from PARTITION")
    p.add_argument("--partition", required=True, help="comma-separated positive ints")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--cap", type=_cap, default=oracle.DEFAULT_CAP)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("constants", help="closed-form scheduler constants")
    _add_param_args(p)
    p.set_defaults(func=_cmd_constants)

    return parser


def run(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # FormatError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # InternalError, or a bug: never a domain answer
        where = traceback.extract_tb(exc.__traceback__)[-1]
        print(
            f"internal error at {Path(where.filename).name}:{where.lineno}: "
            f"{type(exc).__name__}: {exc}",
            file=sys.stderr,
        )
        return 3


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
