"""Command-line front end: run rules, decompose fractional allocations, audit
properties, and sample lotteries, all as JSON on stdout (or -o FILE).

Exit codes: 0 success and every requested property holds; 1 a requested
property failed (witness in the report); 2 usage or input error; 3 a size or
iteration limit was hit; 4 an internal error (a bug: any other exception, reported
on one stderr line as ``fairlot: internal error: <Type>: <message>``).
Diagnostics go to stderr; stdout carries only JSON.

Each command imports only the layers it runs, inside its handler: ``sample``
loads nothing beyond ``core``, and ``decompose --bvn`` only ``decomp``. The exact
LP (``lp``) loads only where the GF sweep or a support trim runs it.
Handlers import by submodule (``from .rps import rps``), because the package
attribute ``fairlot.rps`` is the function, not the module.
"""

from __future__ import annotations

import argparse
import random
import sys
from collections.abc import Sequence

from . import __version__
from .core import (
    FairlotError,
    InputError,
    IntegralAllocation,
    Lottery,
    SizeLimitError,
    SolveError,
    allocation_to_json,
    dump_json,
    exact_draw,
    load_allocation,
    load_instance,
    load_lottery,
    lottery_to_json,
)


# the rps --mode names, in the order of the rps module's FULL_DISTRIBUTION, POLY_SUPPORT, SAMPLE
_RPS_MODE_NAMES = ("full", "poly", "sample")


def _emit(obj: dict, path: str | None) -> None:
    if path is None:
        sys.stdout.write(dump_json(obj))
    else:
        dump_json(obj, path)


def _result_json(result: Lottery | IntegralAllocation) -> dict:
    if isinstance(result, Lottery):
        return lottery_to_json(result)
    return allocation_to_json(result)


def _names(csv: str | None) -> list[str]:
    return [name for name in (csv or "").split(",") if name]


def _draw(lottery: Lottery, seed: int) -> IntegralAllocation:
    return exact_draw(lottery.support, random.Random(seed))[1]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fairlot",
        description="Randomized fair division: eating lotteries, Nash-welfare "
        "allocations, utility-preserving decompositions, and property audits.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def output_flag(p: argparse.ArgumentParser) -> None:
        p.add_argument("-o", "--output", metavar="FILE", help="write JSON here instead of stdout")

    for name, blurb in (
        ("rps", "recursive eating lottery for goods"),
        ("rps-bads", "recursive eating lottery for bads"),
        ("rps-mixed", "recursive eating lottery for mixed items"),
    ):
        p = sub.add_parser(name, help=blurb)
        p.add_argument("instance", help="instance JSON file")
        p.add_argument("--mode", choices=_RPS_MODE_NAMES, default="full")
        p.add_argument("--seed", type=int, default=0, help="RNG seed for --mode sample")
        output_flag(p)

    p = sub.add_parser("round-robin", help="randomized round-robin for goods")
    p.add_argument("instance")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--exact", action="store_true", help="enumerate all n! pick orders (default)")
    group.add_argument("--seed", type=int, help="sample a single pick order instead")
    output_flag(p)

    p = sub.add_parser("mnw", help="exact Nash-welfare-maximizing fractional allocation")
    p.add_argument("instance")
    output_flag(p)

    p = sub.add_parser("mnw-v", help="Nash-welfare allocation with single-bidder items carved out")
    p.add_argument("instance")
    output_flag(p)

    p = sub.add_parser("gf-lottery", help="group-fair marginal over one-item-tolerant parts")
    p.add_argument("instance")
    output_flag(p)

    p = sub.add_parser("prop1-lottery", help="implement a proportional fractional allocation")
    p.add_argument("instance")
    p.add_argument("--frac", required=True, metavar="FILE", help="proportional allocation JSON")
    output_flag(p)

    p = sub.add_parser("bads-lottery", help="implement a fractional allocation of bads")
    p.add_argument("instance")
    p.add_argument("--ceei", required=True, metavar="FILE", help="competitive allocation JSON")
    output_flag(p)

    p = sub.add_parser("decompose", help="write a fractional allocation as a lottery")
    p.add_argument("allocation", help="fractional allocation JSON file")
    p.add_argument("--instance", required=True, metavar="FILE")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--bvn", action="store_true", help="row/column/cell quotas (default)")
    group.add_argument("--bihierarchy", action="store_true", help="ordinal prefix quotas")
    output_flag(p)

    p = sub.add_parser("check", help="audit properties of an allocation or lottery")
    p.add_argument("instance")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--alloc", metavar="FILE")
    group.add_argument("--lottery", metavar="FILE")
    p.add_argument("--ex-ante", metavar="P1,P2", help="properties of the marginal")
    p.add_argument("--ex-post", metavar="Q1,Q2", help="properties of every support allocation")
    output_flag(p)

    p = sub.add_parser("sample", help="draw one allocation from a lottery")
    p.add_argument("lottery", help="lottery JSON file")
    p.add_argument("--seed", type=int, default=0)
    output_flag(p)

    return parser


def _run_rps(args: argparse.Namespace) -> int:
    from .rps import FULL_DISTRIBUTION, POLY_SUPPORT, SAMPLE, RpsConfig, rps, rps_bads, rps_mixed

    instance = load_instance(args.instance)
    mode = dict(zip(_RPS_MODE_NAMES, (FULL_DISTRIBUTION, POLY_SUPPORT, SAMPLE)))[args.mode]
    rule = {"rps": rps, "rps-bads": rps_bads, "rps-mixed": rps_mixed}[args.command]
    result = rule(instance, RpsConfig(mode=mode, seed=args.seed))
    _emit(_result_json(result), args.output)
    return 0


def _run_round_robin(args: argparse.Namespace) -> int:
    from .rps import randomized_round_robin

    instance = load_instance(args.instance)
    if args.seed is None:
        result = randomized_round_robin(instance, mode="exact")
    else:
        result = randomized_round_robin(instance, mode="sample", seed=args.seed)
    _emit(_result_json(result), args.output)
    return 0


def _run_mnw(args: argparse.Namespace) -> int:
    from .mnw import solve_mnw

    instance = load_instance(args.instance)
    solution = solve_mnw(instance)
    print(f"fairlot: log Nash welfare {solution.log_nash_welfare:.12g}", file=sys.stderr)
    _emit(allocation_to_json(solution.allocation), args.output)
    return 0


def _run_mnw_v(args: argparse.Namespace) -> int:
    from .mnw import mnw_v

    instance = load_instance(args.instance)
    _emit(allocation_to_json(mnw_v(instance)), args.output)
    return 0


def _run_gf_lottery(args: argparse.Namespace) -> int:
    from .rounding import gf_lottery

    instance = load_instance(args.instance)
    _emit(lottery_to_json(gf_lottery(instance)), args.output)
    return 0


def _run_prop1_lottery(args: argparse.Namespace) -> int:
    from .rounding import prop1_lottery

    instance = load_instance(args.instance)
    x = load_allocation(args.frac)
    _emit(lottery_to_json(prop1_lottery(instance, x)), args.output)
    return 0


def _run_bads_lottery(args: argparse.Namespace) -> int:
    from .rounding import prop1_ef11_lottery_bads

    instance = load_instance(args.instance)
    x = load_allocation(args.ceei)
    _emit(lottery_to_json(prop1_ef11_lottery_bads(instance, x)), args.output)
    return 0


def _run_decompose(args: argparse.Namespace) -> int:
    instance = load_instance(args.instance)
    x = load_allocation(args.allocation)
    x.check_shape(instance)
    if args.bihierarchy:
        from .rounding import implement_with_utility_guarantee

        lottery = implement_with_utility_guarantee(instance, x)
    else:
        from .decomp import bvn_decompose

        lottery = bvn_decompose(x)
    _emit(lottery_to_json(lottery), args.output)
    return 0


def _run_check(args: argparse.Namespace) -> int:
    from .properties import AuditReport, _run_named_check, audit_lottery

    instance = load_instance(args.instance)
    ex_ante = _names(args.ex_ante)
    ex_post = _names(args.ex_post)
    if args.lottery is not None:
        lottery = load_lottery(args.lottery, n=instance.n, m=instance.m)
        report = audit_lottery(instance, lottery, ex_ante=ex_ante, ex_post=ex_post)
    else:
        alloc = load_allocation(args.alloc)
        if ex_post and not alloc.is_integral:
            raise InputError("ex-post checks need an integral allocation or a lottery")
        ante = {name: _run_named_check(instance, alloc, name) for name in ex_ante}
        post = {name: (_run_named_check(instance, alloc.to_integral(), name),) for name in ex_post}
        report = AuditReport(ante, post)
    _emit(report.to_json(), args.output)
    return 0 if report.ok else 1


def _run_sample(args: argparse.Namespace) -> int:
    lottery = load_lottery(args.lottery)
    _emit(allocation_to_json(_draw(lottery, args.seed)), args.output)
    return 0


_DISPATCH = {
    "rps": _run_rps,
    "rps-bads": _run_rps,
    "rps-mixed": _run_rps,
    "round-robin": _run_round_robin,
    "mnw": _run_mnw,
    "mnw-v": _run_mnw_v,
    "gf-lottery": _run_gf_lottery,
    "prop1-lottery": _run_prop1_lottery,
    "bads-lottery": _run_bads_lottery,
    "decompose": _run_decompose,
    "check": _run_check,
    "sample": _run_sample,
}


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse already printed usage/version
        return int(exc.code or 0)
    try:
        return _DISPATCH[args.command](args)
    except (SizeLimitError, SolveError) as exc:
        print(f"fairlot: {exc}", file=sys.stderr)
        return 3
    except (FairlotError, OSError) as exc:
        print(f"fairlot: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        message = str(exc).replace("\n", " ")
        print(f"fairlot: internal error: {type(exc).__name__}: {message}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
