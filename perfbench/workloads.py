"""The four workloads: seeded input streams, the pipeline each input goes
through, and the exact checks that pipeline's output must pass.

An input is plain data (lists of ints); the library objects are built inside the
timed instance. Every call into the library goes through a module attribute
(``lib.rps.rps``, never a name imported here), so the tracer's wrappers see it.
A pipeline returns the names of the checks that failed; an exception counts as
a failure in the caller.
"""
from __future__ import annotations

import importlib
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Iterator

from speed import SpeedMeter
from tracing import INFO, Tracer


def load_library() -> SimpleNamespace:
    # The package attribute fairlot.rps is the rps function, so modules come from
    # import_module, which returns the module object itself.
    names = ("core", "lp", "eating", "rps", "decomp", "mnw", "rounding", "properties", "cli")
    return SimpleNamespace(**{n: importlib.import_module(f"fairlot.{n}") for n in names})


def _goods_rows(rng: random.Random, n: int, m: int, vmin: int = 0, vmax: int = 10) -> list[list[int]]:
    """Random goods values; a column nobody values gets one positive valuer."""
    rows = [[rng.randint(vmin, vmax) for _ in range(m)] for _ in range(n)]
    for j in range(m):
        if all(rows[i][j] == 0 for i in range(n)):
            rows[rng.randrange(n)][j] = rng.randint(1, vmax)
    return rows


def _bads_rows(rng: random.Random, n: int, m: int) -> list[list[int]]:
    rows = [[-rng.randint(0, 10) for _ in range(m)] for _ in range(n)]
    if all(v == 0 for row in rows for v in row):
        rows[0][0] = -1
    return rows


def _doubly_stochastic(rng: random.Random, size: int) -> list[list[Fraction]]:
    """A dense exact doubly stochastic matrix: a convex combination of
    ``size`` random permutation matrices with random integer weights."""
    weights = [rng.randint(1, 10) for _ in range(size)]
    total = sum(weights)
    mat = [[Fraction(0)] * size for _ in range(size)]
    for w in weights:
        perm = list(range(size))
        rng.shuffle(perm)
        for i, j in enumerate(perm):
            mat[i][j] += Fraction(w, total)
    return mat


def _substochastic(rng: random.Random, n: int, m: int) -> list[list[Fraction]]:
    """A doubly substochastic n x m matrix: random partial matchings, weights
    summing to at most one."""
    k = rng.randint(1, 3)
    weights = [rng.randint(1, 6) for _ in range(k)]
    total = sum(weights) + rng.randint(0, 3)
    mat = [[Fraction(0)] * m for _ in range(n)]
    for w in weights:
        items = rng.sample(range(m), min(n, m))
        for i, j in zip(rng.sample(range(n), len(items)), items):
            mat[i][j] += Fraction(w, total)
    return mat


def _fraction_json(mat: list[list[Fraction]]) -> list[list[str]]:
    return [[str(v) for v in row] for row in mat]


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: Callable[[random.Random], Iterator[dict]]
    warmup: Callable[[], dict]
    run: Callable[[SimpleNamespace, dict, "Context"], list[str]]
    shape: Callable[[dict], str]
    pool_per_second: float
    # the first this many instances of the seed's input stream are the traced
    # run's inputs, so that its per-layer totals count the same work whatever
    # the library's speed
    trace_instances: int
    # a run ends on a multiple of this many instances, so that every run
    # measures whole rounds of a stratified input mix
    round_size: int = 1


@dataclass
class Context:
    """What a pipeline needs besides its input: where its files live, the
    speed meter, and the tracer while one is installed."""

    root: Path
    workdir: Path
    meter: SpeedMeter
    tracer: Tracer | None = None

    def tick(self) -> None:
        """Between the stages of a long instance: let the speed meter sample."""
        self.meter.tick()

    def spawn_cli(self, name: str, args: list[str], expected_code: int) -> subprocess.CompletedProcess:
        """Run ``python -m fairlot.cli ARGS`` to completion, one child at a time."""
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        argv = [sys.executable, "-m", "fairlot.cli", *args]
        if self.tracer is None:
            return subprocess.run(argv, cwd=self.root, env=env, capture_output=True, timeout=120, check=False)
        with self.tracer.span(f"cli.{name}") as span:
            child = subprocess.run(argv, cwd=self.root, env=env, capture_output=True, timeout=120, check=False)
        span[INFO] = {"unexpected": child.returncode != expected_code}
        return child


def _shape_of(key: str) -> Callable[[dict], str]:
    return lambda spec: f"{spec['kind']}:{len(spec[key])}x{len(spec[key][0])}"


# ---------------------------------------------------------------------------
# eating: the recursive eating rule in every mode, for goods, bads and mixed.
# ---------------------------------------------------------------------------

# One round: the acceptance_06 goods distribution in all three modes, padded
# bads and mixed items.
EATING_ROUND = ("goods", "goods", "bads", "goods", "goods", "mixed")

# Mid-size goods in poly mode, where the support trim fires on some inputs and
# then lp.basic_feasible_point takes nearly all the time. One such instance
# costs from 0.02 s to 5 s at 5-6 agents x 9-12 items (and 49 s at 8 x 18),
# which would swamp a fixed-length run, so they run only as a probe of the
# eating traced run: the first PROBE_INSTANCES of a seeded stream, 1.4-6 s in
# all on seeds 1-10.
PROBE_INSTANCES = 30


def _eating_inputs(rng: random.Random) -> Iterator[dict]:
    while True:
        for kind in EATING_ROUND:
            if kind == "goods":
                rows = _goods_rows(rng, rng.randint(2, 4), rng.randint(2, 8))
            elif kind == "bads":
                rows = _bads_rows(rng, rng.randint(2, 3), rng.randint(2, 6))
            else:
                m = rng.randint(2, 5)
                rows = [[rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(m)] for _ in range(rng.randint(2, 3))]
            yield {"kind": kind, "values": rows, "seed": rng.randrange(2**31)}


def mid_inputs(rng: random.Random) -> Iterator[dict]:
    while True:
        yield {"kind": "mid", "values": _goods_rows(rng, rng.randint(5, 6), rng.randint(9, 12))}


# Warm-up inputs are fixed small instances, so set-up time does not depend on
# which values a seed happens to draw.
SWAP4 = [[8, 4, 2, 1], [8, 2, 4, 1]]
TILT2 = [[1, 2], [1, 3]]


def _eating_warmup() -> dict:
    return {"kind": "goods", "values": SWAP4, "seed": 0}


def _parts(lot) -> list:
    return [part for _, part in lot.support]


def _eating_run(lib: SimpleNamespace, spec: dict, ctx: Context) -> list[str]:
    inst = lib.core.Instance.from_rows(spec["values"])
    Config, rps, props = lib.rps.RpsConfig, lib.rps, lib.properties
    failed = []
    if spec["kind"] == "mid":
        poly = rps.rps(inst, Config(mode=rps.POLY_SUPPORT))
        if len(poly) > inst.n * inst.m + 1:
            failed.append("poly_support_bound")
        if not props.check_envy(inst, poly.marginal, "sd_ef").holds:
            failed.append("sd_ef_ex_ante")
        if not all(props.check_envy(inst, p, "sd_ef1").holds for p in _parts(poly)):
            failed.append("sd_ef1_ex_post")
        return failed
    if spec["kind"] == "goods":
        full = rps.rps(inst)
        poly = rps.rps(inst, Config(mode=rps.POLY_SUPPORT))
        drawn = rps.rps(inst, Config(mode=rps.SAMPLE, seed=spec["seed"]))
        if poly.marginal.matrix != full.marginal.matrix:
            failed.append("poly_marginal")
        if len(poly) > inst.n * inst.m + 1:
            failed.append("poly_support_bound")
        if not props.check_envy(inst, full.marginal, "sd_ef").holds:
            failed.append("sd_ef_ex_ante")
        if not all(props.check_envy(inst, p, "sd_ef1").holds for p in _parts(full) + _parts(poly)):
            failed.append("sd_ef1_ex_post")
        if drawn.matrix not in {p.matrix for p in _parts(full)}:
            failed.append("sample_in_support")
        return failed
    rule, notion = (rps.rps_bads, "ef1") if spec["kind"] == "bads" else (rps.rps_mixed, "wef1")
    lot = rule(inst)
    parts = _parts(lot) if isinstance(lot, lib.core.Lottery) else [lot]
    if not all(props.check_envy(inst, p, notion).holds for p in parts):
        failed.append(f"{notion}_ex_post")
    return failed


EATING = Workload(
    "eating",
    _eating_inputs,
    _eating_warmup,
    _eating_run,
    _shape_of("values"),
    pool_per_second=80,
    trace_instances=120 * len(EATING_ROUND),
    round_size=len(EATING_ROUND),
)


# ---------------------------------------------------------------------------
# gf-audit: MNW, rounding, and every verdict the theorems promise.
# ---------------------------------------------------------------------------


# The acceptance_07 shapes (2-4 agents, 2-7 items), stratified: a cycle visits
# every shape once in this fixed order, so seeds differ in values but not in
# the mix. Instance cost grows about 100x from 2x2 to 4x7; pairing cheap and
# dear item counts keeps any prefix of a cycle close to the average mix.
GF_SHAPES = tuple((n, m) for m in (2, 7, 3, 6, 4, 5) for n in (2, 3, 4))


def _gf_inputs(rng: random.Random) -> Iterator[dict]:
    while True:
        for n, m in GF_SHAPES:
            yield {"kind": "goods", "values": _goods_rows(rng, n, m, vmin=1)}


def _gf_warmup() -> dict:
    return {"kind": "goods", "values": TILT2}


def _gf_run(lib: SimpleNamespace, spec: dict, ctx: Context) -> list[str]:
    inst = lib.core.Instance.from_rows(spec["values"])
    props, rounding = lib.properties, lib.rounding
    sol = lib.mnw.solve_mnw(inst)
    ctx.tick()
    lot = rounding.implement_with_utility_guarantee(inst, sol.allocation)
    failed = []
    if not lib.mnw.ceei_verify(inst, sol.allocation, slack=0).holds:
        failed.append("ceei_exact")
    marginal = lot.marginal
    if marginal.matrix != sol.allocation.matrix:
        failed.append("marginal")
    if not props.check_gf(inst, marginal).holds:
        failed.append("gf")
    ctx.tick()
    checks = (
        ("prop1_strict", lambda p: props.check_share(inst, p, "prop1_goods", strict=True)),
        ("ef11", lambda p: props.check_envy(inst, p, "ef11_goods")),
        ("fpo", lambda p: props.check_efficiency(inst, p, "fpo")),
        ("utility_guarantee", lambda p: rounding.check_utility_guarantee(inst, marginal, p)),
        ("adjusted_envy_chain", lambda p: rounding.check_adjusted_envy_chain(inst, marginal, p)),
    )
    for name, check in checks:
        if not all(check(p).holds for p in _parts(lot)):
            failed.append(name)
        ctx.tick()
    return failed


GF_AUDIT = Workload(
    "gf-audit",
    _gf_inputs,
    _gf_warmup,
    _gf_run,
    _shape_of("values"),
    pool_per_second=8,
    trace_instances=2 * len(GF_SHAPES),
    round_size=len(GF_SHAPES),
)


# ---------------------------------------------------------------------------
# scale: the exact MNW stage and the decomposition at size.
# ---------------------------------------------------------------------------

SCALE_MNW = (5, 10)
SCALE_BVN = (20, 30)


def _scale_inputs(rng: random.Random) -> Iterator[dict]:
    n, m = SCALE_MNW
    while True:
        yield {
            "kind": "scale",
            "values": _goods_rows(rng, n, m, vmin=1),
            "bvn": [_fraction_json(_doubly_stochastic(rng, size)) for size in SCALE_BVN],
        }


def _scale_warmup() -> dict:
    return {"kind": "scale", "values": TILT2, "bvn": [[["1/2", "1/2"], ["1/2", "1/2"]]]}


def _support_bound_ok(x, lot) -> bool:
    fractional = sum(1 for row in x.matrix for v in row if 0 < v < 1)
    return len(lot) <= fractional + 1


def _scale_run(lib: SimpleNamespace, spec: dict, ctx: Context) -> list[str]:
    core = lib.core
    inst = core.Instance.from_rows(spec["values"])
    sol = lib.mnw.solve_mnw(inst)
    lot = lib.rounding.implement_with_utility_guarantee(inst, sol.allocation)
    failed = []
    if not lib.mnw.ceei_verify(inst, sol.allocation, slack=0).holds:
        failed.append("ceei_exact")
    if lot.marginal.matrix != sol.allocation.matrix:
        failed.append("marginal")
    if not _support_bound_ok(sol.allocation, lot):
        failed.append("support_bound")
    for rows in spec["bvn"]:
        ctx.tick()
        x = core.FractionalAllocation.from_rows(rows)
        parts = lib.decomp.bvn_decompose(x)
        if parts.marginal.matrix != x.matrix:
            failed.append(f"bvn{x.n}_marginal")
        if not _support_bound_ok(x, parts):
            failed.append(f"bvn{x.n}_support_bound")
    return failed


def _scale_shape(spec: dict) -> str:
    return f"mnw:{len(spec['values'])}x{len(spec['values'][0])}+bvn:" + "+".join(str(len(b)) for b in spec["bvn"])


SCALE = Workload("scale", _scale_inputs, _scale_warmup, _scale_run, _scale_shape, pool_per_second=0.3, trace_instances=2)


# ---------------------------------------------------------------------------
# cli: one child process per command, compared byte for byte with the library.
# ---------------------------------------------------------------------------


def _cli_inputs(rng: random.Random) -> Iterator[dict]:
    index = 0
    while True:
        n, m = rng.randint(2, 4), rng.randint(2, 7)
        yield {
            "kind": "cli",
            "id": index,
            "goods": _goods_rows(rng, n, m, vmin=1),
            "bads": _bads_rows(rng, rng.randint(2, 3), rng.randint(2, 6)),
            "alloc": _fraction_json(_substochastic(rng, n, m)),
            "seed": rng.randrange(2**31),
        }
        index += 1


def _cli_warmup() -> dict:
    alloc = [["1/2", "1/2", "0", "0"], ["1/2", "0", "1/2", "0"]]
    return {"kind": "cli", "id": "warmup", "goods": SWAP4, "bads": [[-1, -2, -3], [-3, -2, -1]], "alloc": alloc, "seed": 0}


def cli_paths(workdir: Path, spec: dict) -> dict[str, Path]:
    stem = workdir / f"cli-{spec['id']}"
    return {k: Path(f"{stem}-{k}.json") for k in ("goods", "bads", "alloc", "lottery")}


def write_cli_files(lib: SimpleNamespace, workdir: Path, spec: dict) -> None:
    core = lib.core
    paths = cli_paths(workdir, spec)
    inst = core.Instance.from_rows(spec["goods"])
    bads = core.Instance.from_rows(spec["bads"])
    core.dump_json(core.instance_to_json(inst), paths["goods"])
    core.dump_json(core.instance_to_json(bads), paths["bads"])
    core.dump_json({"matrix": spec["alloc"]}, paths["alloc"])


def _cli_run(lib: SimpleNamespace, spec: dict, ctx: Context) -> list[str]:
    core, rounding, props = lib.core, lib.rounding, lib.properties
    paths = cli_paths(ctx.workdir, spec)
    goods = core.load_instance(paths["goods"])
    bads = core.load_instance(paths["bads"])
    alloc = core.load_allocation(paths["alloc"])
    poly = lib.rps.rps(goods, lib.rps.RpsConfig(mode=lib.rps.POLY_SUPPORT))
    poly_text = core.dump_json(core.lottery_to_json(poly), paths["lottery"])
    lottery = core.load_lottery(paths["lottery"], n=goods.n, m=goods.m)
    report = props.audit_lottery(goods, lottery, ex_post=["ef1", "prop1"])
    bvn = lib.decomp.bvn_decompose(alloc)
    # drawn from the in-process lottery, whose shape does not depend on the
    # JSON loader; `sample` of the poly lottery must match it and be n x m
    drawn = lib.cli._draw(poly, spec["seed"])
    commands = (
        ("rps", ["rps", str(paths["goods"]), "--mode", "poly"], poly_text, 0),
        ("rps-bads", ["rps-bads", str(paths["bads"])], core.dump_json(core.lottery_to_json(lib.rps.rps_bads(bads))), 0),
        ("gf-lottery", ["gf-lottery", str(paths["goods"])], core.dump_json(core.lottery_to_json(rounding.gf_lottery(goods))), 0),
        (
            "decompose",
            ["decompose", str(paths["alloc"]), "--instance", str(paths["goods"]), "--bvn"],
            core.dump_json(core.lottery_to_json(bvn)),
            0,
        ),
        (
            "check",
            ["check", str(paths["goods"]), "--lottery", str(paths["lottery"]), "--ex-post", "ef1,prop1"],
            core.dump_json(report.to_json()),
            0 if report.ok else 1,
        ),
        ("sample", ["sample", str(paths["lottery"]), "--seed", str(spec["seed"])], core.dump_json(core.allocation_to_json(drawn)), 0),
    )
    failed = []
    if not report.ok:
        failed.append("check_ef1_prop1")
    for name, argv, expected, code in commands:
        ctx.tick()
        child = ctx.spawn_cli(name, argv, code)
        if child.returncode != code or child.stdout != expected.encode():
            failed.append(f"cli_{name}")
        if name == "sample" and child.returncode == 0:
            matrix = json.loads(child.stdout)["matrix"]
            if len(matrix) != goods.n or any(len(row) != goods.m for row in matrix):
                failed.append("cli_sample_shape")
    return failed


CLI = Workload(
    "cli",
    _cli_inputs,
    _cli_warmup,
    _cli_run,
    lambda s: f"cli:{len(s['goods'])}x{len(s['goods'][0])}",
    pool_per_second=1,
    trace_instances=5,
)


WORKLOADS = {w.name: w for w in (EATING, GF_AUDIT, SCALE, CLI)}
