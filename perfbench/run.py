"""fairlot benchmark: seeded workloads, exact checks, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload eating --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the library is imported from ``src/``. Each run
is one process, a closed loop with one client and no threads: the next instance
starts when the previous one has been verified. ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` runs a fixed number of the seed's first
instances untraced, then the same instances again with spans recorded around
each layer's public functions, and prints the per-layer metrics. Times in the
end-to-end metrics are rescaled by the host speed meter (see ``speed.py``); the
raw times are printed beside them. The last line of standard output is one
JSON object. A record of the run (seed, input digest, shapes, environment, raw
and scaled metrics) goes to ``.perfbench_out/``.
"""
from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from speed import SpeedMeter
from tracing import PROBE_METRICS, Tracer, layer_metrics
from workloads import PROBE_INSTANCES, WORKLOADS, Context, load_library, mid_inputs, write_cli_files

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("eating", "gf-audit", "scale", "cli")

SETUP_REPEATS = 3
STARTUP_PROBES = 5
P90_MIN_SAMPLES = 100


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_probe() -> None:
    """Import the library in a fresh interpreter, as every user process does."""
    subprocess.run(
        [sys.executable, "-c", "import fairlot, fairlot.cli"],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        check=True,
        timeout=120,
    )


def _digest(specs: list[dict]) -> str:
    h = hashlib.sha256()
    for spec in specs:
        h.update(json.dumps(spec, sort_keys=True).encode())
    return h.hexdigest()[:16]


@dataclass
class Section:
    """Instances run back to back, with raw and speed-scaled latencies."""

    done: list[dict]
    raw: list[float]
    scaled: list[float]


class Run:
    def __init__(self, workload, lib, seed: int, seconds: float) -> None:
        self.workload = workload
        self.lib = lib
        self.seed = seed
        self.seconds = seconds
        self.meter = SpeedMeter()
        OUT.mkdir(exist_ok=True)
        self.ctx = Context(ROOT, OUT, self.meter)
        self.failures: list[str] = []
        self.attempted = 0

    def set_up(self) -> tuple[float, float]:
        """One full set-up (import, input generation, input files, warm-up):
        its scaled and raw time."""
        self.meter.sample()
        start = time.perf_counter()
        _import_probe()
        self.stream = self.workload.inputs(random.Random(self.seed))
        self.pool = list(itertools.islice(self.stream, max(4, round(self.workload.pool_per_second * self.seconds))))
        warm = self.workload.warmup()
        if self.workload.name == "cli":
            for spec in self.pool + [warm]:
                write_cli_files(self.lib, OUT, spec)
        self._attempt(warm)
        end = time.perf_counter()
        self.meter.sample()
        return self.meter.scaled(start, end), end - start

    def _attempt(self, spec: dict) -> None:
        self.attempted += 1
        try:
            failed = self.workload.run(self.lib, spec, self.ctx)
        except Exception as exc:  # an exception is a failed instance; keep measuring
            failed = [f"raised {type(exc).__name__}: {exc}"]
        if failed:
            self.failures.append(f"{self.workload.shape(spec)}: {', '.join(failed)}")

    def inputs(self):
        """The pool, then the rest of the seed's stream. A cli input drawn from
        the stream gets its files here, outside its timed interval."""
        yield from self.pool
        for spec in self.stream:
            if self.workload.name == "cli":
                write_cli_files(self.lib, OUT, spec)
            yield spec

    def loop(self, specs, seconds: float | None, round_size: int = 1) -> Section:
        """Closed loop: run instances until ``seconds`` pass and a whole number
        of rounds is done, or until ``specs`` end."""
        intervals, done = [], []
        tracer = self.ctx.tracer
        self.meter.sample()
        t0 = time.perf_counter()
        for spec in specs:
            if tracer is not None:
                tracer.instance = len(done)
            start = time.perf_counter()
            self._attempt(spec)
            end = time.perf_counter()
            intervals.append((start, end))
            done.append(spec)
            if seconds is not None and end - t0 >= seconds and len(done) % round_size == 0:
                break
            self.meter.tick()
        self.meter.sample()
        return Section(done, [e - s for s, e in intervals], [self.meter.scaled(s, e) for s, e in intervals])

    def traced(self, specs):
        """Run ``specs`` with every layer wrapped; the section and its spans."""
        tracer = self.ctx.tracer = Tracer()
        tracer.install()
        try:
            return self.loop(specs, None), tracer.spans
        finally:
            tracer.uninstall()
            self.ctx.tracer = None

    def probe(self) -> dict[str, tuple[float, str]]:
        """The eating workload's mid-size probe, traced: the first
        ``PROBE_INSTANCES`` inputs of a seeded stream."""
        specs = itertools.islice(mid_inputs(random.Random(f"probe:{self.seed}")), PROBE_INSTANCES)
        section, spans = self.traced(specs)
        metrics = layer_metrics(spans, sum(section.raw), 0.0, len(section.done), 0.0, [])
        return {f"probe.{name}": metrics[name] for name in PROBE_METRICS}


def _cpu_s() -> float:
    usage = [resource.getrusage(who) for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
    return sum(u.ru_utime + u.ru_stime for u in usage)


def _environment() -> dict:
    import numpy

    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        commit = head.read_text().strip()
        ref = ROOT / ".git" / commit.removeprefix("ref: ")
        if commit.startswith("ref: ") and ref.is_file():
            commit = ref.read_text().strip()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "commit": commit,
    }


def end_to_end(run: Run, section: Section, setups: list[tuple[float, float]]) -> tuple[dict, dict, dict]:
    """The end-to-end metrics (scaled), their raw readings, and a note on each."""
    n = len(section.done)
    ms = sorted(1000 * t for t in section.scaled)
    raw_ms = sorted(1000 * t for t in section.raw)
    cli = run.workload.name == "cli"
    rss = resource.getrusage(resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "instances_per_s": (n / sum(section.scaled), "1/s"),
        "instance_gmean_ms": (statistics.geometric_mean(ms), "ms"),
        "setup_s": (statistics.median(s for s, _ in setups), "s"),
        "peak_rss_mib": (rss, "MiB"),
    }
    raw = {
        "instances_per_s": n / sum(section.raw),
        "instance_gmean_ms": statistics.geometric_mean(raw_ms),
        "setup_s": statistics.median(r for _, r in setups),
    }
    notes = {
        "instances_per_s": f"n={n} instances",
        "instance_gmean_ms": f"n={n}",
        "setup_s": f"median of n={len(setups)} set-ups",
        "peak_rss_mib": "largest child process" if cli else "this process",
    }
    # Reported, not gated: on a stratified mix whose instance costs span 100x,
    # the median sits in a gap between shapes and jumps from run to run.
    ungated = {"instance_p50_ms": (statistics.median(ms), f"n={n}; raw {statistics.median(raw_ms):.6g}")}
    if n >= P90_MIN_SAMPLES:
        p90 = statistics.quantiles(ms, n=10)[-1]
        raw_p90 = statistics.quantiles(raw_ms, n=10)[-1]
        ungated["instance_p90_ms"] = (p90, f"n={n}, {sum(1 for v in ms if v > p90)} beyond; raw {raw_p90:.6g}")
    else:
        ungated["instance_p90_ms"] = (None, f"not reported: n={n} < {P90_MIN_SAMPLES}")
    return metrics, raw, notes, ungated


def benchmark(args: argparse.Namespace) -> int:
    if not (SRC / "fairlot" / "__init__.py").is_file():
        print(f"perfbench: no fairlot package under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    environment = _environment()
    # One core for this process and its children, so that the speed meter
    # samples the core the measured work runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    workload = WORKLOADS[args.workload]
    run = Run(workload, load_library(), args.seed, args.seconds)
    setups = [run.set_up() for _ in range(SETUP_REPEATS)]
    # the warm-up instances count as attempted, and a failed one as failed
    run.failures = [f"warm-up {line}" for line in run.failures]

    record: dict = {}
    notes: dict = {}
    ungated: dict = {}
    if args.trace == 0:
        section = run.loop(run.inputs(), args.seconds, workload.round_size)
        metrics, record["raw"], notes, ungated = end_to_end(run, section, setups)
        record["ungated"] = {name: value for name, (value, _) in ungated.items()}
        record["latencies_s"] = {"scaled": section.scaled, "raw": section.raw}
    else:
        # a fixed set of inputs, so that per-layer totals compare across commits
        specs = list(itertools.islice(run.inputs(), workload.trace_instances))
        section = run.loop(iter(specs), None)
        startup_ms = []
        if workload.name == "cli":
            for _ in range(STARTUP_PROBES):
                start = time.perf_counter()
                run.ctx.spawn_cli("version", ["--version"], 0)
                startup_ms.append(1000 * (time.perf_counter() - start))
        cpu0 = _cpu_s()
        replay, spans = run.traced(iter(specs))
        cpu = _cpu_s() - cpu0
        # scaled sums, so that host speed drift between the two halves cancels
        overhead = sum(replay.scaled) / sum(section.scaled) - 1
        metrics = layer_metrics(spans, sum(replay.raw), overhead, len(replay.done), cpu, startup_ms)
        record["latencies_s"] = {
            "untraced": {"scaled": section.scaled, "raw": section.raw},
            "traced": {"scaled": replay.scaled, "raw": replay.raw},
        }
        if workload.name == "eating":
            metrics.update(run.probe())
        else:
            # every traced run prints every per-layer metric; the probe's read 0
            empty = layer_metrics([], 0.0, 0.0, 0, 0.0, [])
            metrics.update({f"probe.{name}": empty[name] for name in PROBE_METRICS})
        spans_path = OUT / f"spans-{workload.name}-seed{args.seed}.json"
        spans_path.write_text(json.dumps({"fields": ["name", "start", "end", "parent", "instance", "info"], "spans": spans}))
        record["spans"] = str(spans_path.relative_to(ROOT))

    done = section.done
    failed = len(run.failures)
    shapes = Counter(workload.shape(spec) for spec in done)
    kinds = Counter(shape.split(":")[0] for shape in shapes.elements())
    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  inputs {_digest(done)} ({len(done)} instances)")
    print(f"  {len(shapes)} shapes; by kind " + " ".join(f"{k}:{v}" for k, v in sorted(kinds.items())))
    for name, (value, unit) in metrics.items():
        note = notes.get(name, "traced section")
        if name in record.get("raw", {}):
            note += f"; raw {record['raw'][name]:.6g}"
        print(f"  {name:<28} {value:>14.6g} {unit:<6} ({note})")
    for name, (value, note) in ungated.items():
        shown = "-" if value is None else f"{value:.6g}"
        print(f"  {name:<28} {shown:>14} {'ms':<6} ({note}; not gated)")
    print(f"  {'failed_ratio':<28} {failed / run.attempted:>14.6g} {'ratio':<6} ({failed} of {run.attempted} instances)")
    for line in run.failures[:20]:
        print(f"  FAILED {line}", file=sys.stderr)

    result_metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    record.update(
        workload=workload.name,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        environment=environment,
        inputs_digest=_digest(done),
        instances=len(done),
        shapes=dict(shapes),
        metrics=result_metrics,
        failures=run.failures,
    )
    (OUT / f"run-{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    result = {
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": result_metrics,
    }
    print(json.dumps(result))
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Every workload in turn, each in its own process."""
    status = 0
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name]
        argv += ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status = max(status, subprocess.run(argv, check=False).returncode)
    return status


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else benchmark(args)


if __name__ == "__main__":
    sys.exit(main())
