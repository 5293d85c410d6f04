"""Spans recorded from outside the library, around calls into each layer.

The library has no tracing of its own, so the tracer replaces public functions
at the names their callers look up (a module attribute, or a method on a class)
with wrappers that record a span: name, start, end, parent span and instance id.
Spans stay in memory until the run ends. Private internals (the simplex pivot,
the MNW refine step, the stage trim) are not visible from here.
"""
from __future__ import annotations

import functools
import importlib
import statistics
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator

NAME, START, END, PARENT, INSTANCE, INFO = range(6)


def _support_size(args: tuple, result: Any) -> dict:
    # a sample-mode result is one allocation, not a lottery
    return {"support": len(result.support) if hasattr(result, "support") else 1}


def _decomp_info(args: tuple, result: Any) -> dict:
    x = args[0]
    fractional = sum(1 for row in x.matrix for v in row if 0 < v < 1)
    return {"parts": len(result.support), "bound": fractional + 1}


def _lp_status(args: tuple, result: Any) -> dict:
    return {"status": result.status}


def _bfp_vars(args: tuple, result: Any) -> dict:
    return {"vars": args[1]}


# (module, attribute, span name, observer); an attribute "Class.method" wraps a
# method on the class. Each function is wrapped at every module that looks it up.
TARGETS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("fairlot.lp", "solve", "lp.solve", _lp_status),
    ("fairlot.lp", "basic_feasible_point", "lp.basic_feasible_point", _bfp_vars),
    ("fairlot.eating", "EatingState.run", "eating.EatingState.run", None),
    ("fairlot.rps", "rps", "rps.rps", _support_size),
    ("fairlot.rps", "rps_bads", "rps.rps_bads", _support_size),
    ("fairlot.rps", "rps_mixed", "rps.rps_mixed", _support_size),
    ("fairlot.rps", "bvn_decompose", "decomp.bvn_decompose", _decomp_info),
    ("fairlot.decomp", "bvn_decompose", "decomp.bvn_decompose", _decomp_info),
    ("fairlot.decomp", "bihierarchy_decompose", "decomp.bihierarchy_decompose", _decomp_info),
    ("fairlot.rounding", "bihierarchy_decompose", "decomp.bihierarchy_decompose", _decomp_info),
    ("fairlot.rounding", "solve_mnw", "mnw.solve_mnw", None),
    ("fairlot.rounding", "implement_with_utility_guarantee", "rounding.implement_with_utility_guarantee", None),
    ("fairlot.rounding", "gf_lottery", "rounding.gf_lottery", None),
    ("fairlot.rounding", "check_utility_guarantee", "rounding.check_utility_guarantee", None),
    ("fairlot.rounding", "check_adjusted_envy_chain", "rounding.check_adjusted_envy_chain", None),
    ("fairlot.rounding", "check_share", "properties.check_share", None),
    ("fairlot.mnw", "solve_mnw", "mnw.solve_mnw", None),
    ("fairlot.mnw", "ceei_verify", "mnw.ceei_verify", None),
    ("fairlot.properties", "check_gf", "properties.check_gf", None),
    ("fairlot.properties", "check_efficiency", "properties.check_efficiency", None),
    ("fairlot.properties", "check_envy", "properties.check_envy", None),
    ("fairlot.properties", "check_share", "properties.check_share", None),
    ("fairlot.properties", "audit_lottery", "properties.audit_lottery", None),
    ("fairlot.core", "load_instance", "core.load_instance", None),
    ("fairlot.core", "load_allocation", "core.load_allocation", None),
    ("fairlot.core", "load_lottery", "core.load_lottery", None),
    ("fairlot.core", "dump_json", "core.dump_json", None),
)


class Tracer:
    """Installs wrappers, collects spans, and removes the wrappers again."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.instance = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> list:
        span = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, self.instance, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[END] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[list]:
        """A span around benchmark code, such as one CLI child process."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def _wrap(self, original: Callable, name: str, observe: Callable | None) -> Callable:
        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            span = self._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(span)
            if observe is not None:
                span[INFO] = observe(args, result)
            return result

        return traced

    def install(self) -> None:
        for module_name, attr, name, observe in TARGETS:
            owner: object = importlib.import_module(module_name)
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
            original = getattr(owner, attr)
            setattr(owner, attr, self._wrap(original, name, observe))
            self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


class SpanIndex:
    """Aggregates over a finished span list."""

    def __init__(self, spans: list[list]) -> None:
        self.spans = spans
        self.children: dict[int, list[int]] = {}
        for idx, span in enumerate(spans):
            self.children.setdefault(span[PARENT], []).append(idx)

    def dur(self, idx: int) -> float:
        return self.spans[idx][END] - self.spans[idx][START]

    def _ancestors(self, idx: int) -> Iterator[int]:
        parent = self.spans[idx][PARENT]
        while parent >= 0:
            yield parent
            parent = self.spans[parent][PARENT]

    def outermost(self, match: Callable[[str], bool]) -> list[int]:
        """Matching spans with no matching ancestor, so nested calls count once."""
        return [
            idx
            for idx, span in enumerate(self.spans)
            if match(span[NAME]) and not any(match(self.spans[a][NAME]) for a in self._ancestors(idx))
        ]

    def busy(self, match: Callable[[str], bool]) -> float:
        return sum(self.dur(idx) for idx in self.outermost(match))

    def calls(self, match: Callable[[str], bool]) -> int:
        return len(self.outermost(match))

    def inside(self, match: Callable[[str], bool], within: Callable[[str], bool]) -> list[int]:
        """Outermost ``match`` spans that run under some ``within`` span."""
        return [
            idx
            for idx in self.outermost(match)
            if any(within(self.spans[a][NAME]) for a in self._ancestors(idx))
        ]

    def self_time(self, layer: str) -> float:
        """Time in the layer's spans not covered by any span they opened."""
        total = 0.0
        for idx, span in enumerate(self.spans):
            if _layer(span[NAME]) == layer:
                total += self.dur(idx) - sum(self.dur(c) for c in self.children.get(idx, ()))
        return total

    def instance_time(self, instances: set[int]) -> float:
        """Time in the root spans of the given instances."""
        return sum(self.dur(idx) for idx in self.children.get(-1, ()) if self.spans[idx][INSTANCE] in instances)

    def info(self, idxs: list[int], key: str) -> list:
        return [self.spans[idx][INFO][key] for idx in idxs]


def is_(*names: str) -> Callable[[str], bool]:
    return lambda name: name in names


def in_layer(layer: str) -> Callable[[str], bool]:
    return lambda name: _layer(name) == layer


# Reported again, prefixed "probe.", for the eating traced run's mid-size probe.
PROBE_METRICS = (
    "trace.instances",
    "trace.wall_s",
    "lp.bfp_calls",
    "lp.bfp_s",
    "lp.bfp_share",
    "lp.bfp_share_trimmed",
    "lp.bfp_vars_mean",
    "rps.self_s",
    "eating.busy_s",
    "decomp.busy_s",
)

CLI_COMMANDS = ("rps", "rps-bads", "gf-lottery", "decompose", "check", "sample")

ROUNDERS = is_("rounding.implement_with_utility_guarantee", "rounding.gf_lottery")


def layer_metrics(
    spans: list[list],
    traced_wall: float,
    overhead: float,
    instances: int,
    cpu_s: float,
    startup_ms: list[float],
) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced section, by name, with their units."""
    ix = SpanIndex(spans)
    solve = is_("lp.solve")
    bfp = is_("lp.basic_feasible_point")
    mnw = is_("mnw.solve_mnw")
    gf = is_("properties.check_gf")
    decomp = in_layer("decomp")

    solve_spans = ix.outermost(solve)
    statuses = ix.info(solve_spans, "status")
    bfp_spans = ix.outermost(bfp)
    bfp_vars = ix.info(bfp_spans, "vars")
    decomp_spans = ix.outermost(decomp)
    parts = sum(ix.info(decomp_spans, "parts"))
    bound = sum(ix.info(decomp_spans, "bound"))
    mnw_busy = ix.busy(mnw)
    mnw_calls = ix.calls(mnw)
    mnw_lp = ix.inside(solve, mnw)
    mnw_lp_s = sum(ix.dur(idx) for idx in mnw_lp)
    cli_ms = {
        cmd: [1000 * ix.dur(idx) for idx in ix.outermost(is_(f"cli.{cmd}"))] for cmd in CLI_COMMANDS
    }
    cli_p50 = {cmd: statistics.median(v) if v else 0.0 for cmd, v in cli_ms.items()}
    unexpected = sum(1 for s in spans if s[NAME].startswith("cli.") and s[INFO] and s[INFO]["unexpected"])
    startup = statistics.median(startup_ms) if startup_ms else 0.0

    def share(part: float, whole: float) -> float:
        return part / whole if whole > 0 else 0.0

    metrics: dict[str, tuple[float, str]] = {
        "trace.instances": (instances, "count"),
        "trace.wall_s": (traced_wall, "s"),
        "trace.overhead": (overhead, "ratio"),
        "process.cpu_per_wall": (share(cpu_s, traced_wall), "ratio"),
        "lp.bfp_calls": (len(bfp_spans), "count"),
        "lp.bfp_s": (ix.busy(bfp), "s"),
        "lp.bfp_vars_mean": (statistics.fmean(bfp_vars) if bfp_vars else 0.0, "count"),
        "lp.bfp_share": (share(ix.busy(bfp), traced_wall), "ratio"),
        "lp.bfp_share_trimmed": (share(ix.busy(bfp), ix.instance_time({s[INSTANCE] for s in (spans[i] for i in bfp_spans)})), "ratio"),
        "lp.solve_calls": (len(solve_spans), "count"),
        "lp.solve_s": (ix.busy(solve), "s"),
        "lp.solve_infeasible_ratio": (share(sum(1 for s in statuses if s != "optimal"), len(statuses)), "ratio"),
        "eating.calls": (ix.calls(in_layer("eating")), "count"),
        "eating.busy_s": (ix.busy(in_layer("eating")), "s"),
        "rps.calls": (ix.calls(in_layer("rps")), "count"),
        "rps.busy_s": (ix.busy(in_layer("rps")), "s"),
        "rps.self_s": (ix.self_time("rps"), "s"),
        "rps.support_out": (sum(ix.info(ix.outermost(in_layer("rps")), "support")), "count"),
        "decomp.calls": (len(decomp_spans), "count"),
        "decomp.busy_s": (ix.busy(decomp), "s"),
        "decomp.parts_out": (parts, "count"),
        "decomp.parts_per_bound": (share(parts, bound), "ratio"),
        "mnw.calls": (mnw_calls, "count"),
        "mnw.busy_s": (mnw_busy, "s"),
        "mnw.lp_s": (mnw_lp_s, "s"),
        "mnw.self_s": (mnw_busy - mnw_lp_s, "s"),
        "mnw.lp_share": (share(mnw_lp_s, mnw_busy), "ratio"),
        "mnw.lp_calls_per_solve": (share(len(mnw_lp), mnw_calls), "count"),
        "mnw.verify_s": (ix.busy(is_("mnw.ceei_verify")), "s"),
        "mnw.share": (share(mnw_busy, traced_wall), "ratio"),
        "rounding.calls": (ix.calls(ROUNDERS), "count"),
        "rounding.busy_s": (ix.busy(ROUNDERS), "s"),
        "rounding.decomp_s": (sum(ix.dur(idx) for idx in ix.inside(decomp, ROUNDERS)), "s"),
        "rounding.check_s": (
            ix.busy(is_("rounding.check_utility_guarantee", "rounding.check_adjusted_envy_chain")),
            "s",
        ),
        "properties.gf.calls": (ix.calls(gf), "count"),
        "properties.gf.busy_s": (ix.busy(gf), "s"),
        "properties.gf.lp_calls": (len(ix.inside(solve, gf)), "count"),
        "properties.gf.share": (share(ix.busy(gf), traced_wall), "ratio"),
        "properties.fpo.calls": (ix.calls(is_("properties.check_efficiency")), "count"),
        "properties.fpo.busy_s": (ix.busy(is_("properties.check_efficiency")), "s"),
        "properties.envy.busy_s": (ix.busy(is_("properties.check_envy")), "s"),
        "properties.share.busy_s": (ix.busy(is_("properties.check_share")), "s"),
        "core.load_s": (ix.busy(is_("core.load_instance", "core.load_allocation", "core.load_lottery")), "s"),
        "core.dump_s": (ix.busy(is_("core.dump_json")), "s"),
        "cli.startup_ms": (startup, "ms"),
        # start-up over the slowest command's median: above 1/2, start-up is
        # the larger part of every command
        "cli.startup_share": (share(startup, max(cli_p50.values())), "ratio"),
        "cli.unexpected_exit": (unexpected, "count"),
    }
    for cmd in CLI_COMMANDS:
        metrics[f"cli.{cmd}.p50_ms"] = (cli_p50[cmd], "ms")
    return metrics

