"""Set-up, timed and traced commands, output checks and the result line."""

from __future__ import annotations

import gc
import hashlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import scipy

import factkit
import factkit.cli

import tracing
from workloads import WORKLOADS, CheckFailed

# After one untimed set-up that creates the files, set-up runs at least
# SETUPS times and for at least SETUP_SECONDS; setup_s is the median, so a
# set-up of a few milliseconds still reads steadily.
SETUPS = 5
SETUP_SECONDS = 3.0

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "rows_per_s": "1/s",
    "peak_rss_mb": "MB",
}

QUALITY = ["model.macro_f1", "baseline.macro_f1", "analyze.share_err_pp",
           "sampling.cluster_recall"]


def per_layer_unit(name: str) -> str:
    units = {"_gflop_per_s": "GFLOP/s", "_s": "s", "_calls": "count", "_iters": "count",
             "_epochs": "count", "_mb": "MB", "_gflop": "GFLOP", "_f1": "frac",
             "_recall": "frac", "_pp": "pp", "_loss": "nats", "inertia": "sq-dist"}
    return next(unit for suffix, unit in units.items() if name.endswith(suffix))


def command(argv: list[str]) -> tuple[str | None, str]:
    """Run ``factkit`` in-process; returns (failure or None, captured output)."""
    sink = io.StringIO()
    try:
        with redirect_stdout(sink), redirect_stderr(sink):
            code = factkit.cli.main(argv)
    except (Exception, SystemExit) as exc:
        return f"raised {type(exc).__name__}: {exc}\n{traceback.format_exc()}", sink.getvalue()
    return (None if code == 0 else f"exit code {code}"), sink.getvalue()


def digests(out: Path) -> dict[str, str]:
    """SHA-256 of every output except manifests, which carry a timestamp."""
    result = {}
    for path in sorted(out.rglob("*")):
        if path.is_file() and not path.name.endswith(".manifest.json"):
            result[str(path.relative_to(out))] = hashlib.sha256(path.read_bytes()).hexdigest()
    return result


class Stage:
    """One command of a workload: where its inputs and outputs live, and its first outputs."""

    def __init__(self, spec, work: Path):
        self.spec = spec
        self.inputs_dir = work / spec.name / "in"
        self.out = work / spec.name / "out"
        self.inputs_dir.mkdir(parents=True)
        self.inputs = None
        self.reference: dict[str, str] | None = None


class Runner:
    """Runs a workload's commands in turn; one cycle of them is one timed unit."""

    def __init__(self, workload, seed: int, root: Path):
        self.workload = workload
        self.work = root / "perfbench" / ".work" / workload.name
        shutil.rmtree(self.work, ignore_errors=True)
        self.stages = [Stage(spec, self.work) for spec in workload.stages]
        self.setup(seed)
        self.setup_times = []
        while len(self.setup_times) < SETUPS or sum(self.setup_times) < SETUP_SECONDS:
            gc.collect()
            start = time.perf_counter()
            self.setup(seed)
            self.setup_times.append(time.perf_counter() - start)
        self.rows = sum(stage.inputs.rows for stage in self.stages)
        self.attempted = 0
        self.failed = 0

    def setup(self, seed: int) -> None:
        for stage in self.stages:
            stage.inputs = stage.spec.setup(seed, stage.inputs_dir, stage.out)

    def run(self, traced: tracing.Tracer | None = None):
        """One checked cycle; returns (wall s, cpu s, quality dict, root spans)."""
        wall = cpu = 0.0
        quality, roots = {}, []
        for stage in self.stages:
            stage_wall, stage_cpu, stage_quality, root = self._run(stage, traced)
            wall += stage_wall
            cpu += stage_cpu
            quality.update(stage_quality)
            roots.append(root)
        return wall, cpu, quality, roots

    def _run(self, stage: Stage, traced: tracing.Tracer | None):
        """One checked command; returns (wall s, cpu s, quality dict, root span or None)."""
        shutil.rmtree(stage.out, ignore_errors=True)
        stage.out.mkdir(parents=True)
        gc.collect()
        root = None
        if traced is None:
            cpu0, wall0 = time.process_time(), time.perf_counter()
            failure, log = command(stage.inputs.argv)
            wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        else:
            traced.install()
            try:
                cpu0 = time.process_time()
                (failure, log), root = traced.command(command, stage.inputs.argv)
                cpu = time.process_time() - cpu0
            finally:
                traced.uninstall()
            wall = traced.spans[root].duration
        self.attempted += 1
        quality = {}
        if failure is None:
            try:
                quality = stage.spec.check(stage.out, stage.inputs)
                outputs = digests(stage.out)
                if stage.reference is None:
                    stage.reference = outputs
                elif outputs != stage.reference:
                    raise CheckFailed("outputs differ from the first run with the same inputs")
            except (CheckFailed, OSError, ValueError) as exc:
                failure = f"check failed: {exc}"
        if failure is not None:
            self.failed += 1
            print(f"{self.workload.name}/{stage.spec.name}: command failed: {failure}\n{log}",
                  file=sys.stderr)
        return wall, cpu, quality, root


def environment(seed: int, workload, root: Path, nproc: int, setups: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "unknown"
    if (root / ".git").exists():
        found = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                               text=True, timeout=30)
        commit = found.stdout.strip() or commit
    sizes = {spec.name: {key: value for key, value in vars(type(spec)).items()
                         if isinstance(value, (int, float)) and not key.startswith("_")}
             for spec in workload.stages}
    return {
        "workload": workload.name, "seed": seed, "sizes": sizes, "nproc": nproc,
        "blas_threads": nproc, "blas": f"{blas.get('name')} {blas.get('version')}",
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "factkit": factkit.__version__, "commit": commit,
        "setups": setups,
    }


def measure(runner: Runner, seconds: float) -> dict:
    walls = []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        walls.append(runner.run()[0])
    wall = statistics.median(walls)
    values = {
        "setup_s": statistics.median(runner.setup_times),
        "wall_s": wall,
        "rows_per_s": runner.rows / wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def measure_traced(runner: Runner, seconds: float, spans_path: Path) -> tuple[dict, dict]:
    """Per-layer metrics, and the median self time of each span name."""
    tracer = tracing.Tracer()
    plain, cpus, traced, layers, quality, accounts = [], [], [], [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        wall, cpu, _, _ = runner.run()
        plain.append(wall)
        cpus.append(cpu)
        wall, _, checked, roots = runner.run(tracer)
        traced.append(wall)
        quality.append(checked)
        runs = [tracer.spans[root].run for root in roots]
        for stage, run in zip(runner.stages, runs):
            calls = tracing.calls(tracer.spans, run)
            missing = [name for name in stage.spec.span_names if not calls.get(name)]
            if missing:
                raise RuntimeError(f"{stage.spec.name}: expected spans recorded no calls: {missing}")
        metrics, own = tracing.layer_metrics(tracer.spans, runs)
        if abs(sum(own.values()) - wall) > 1e-6 * max(wall, 1.0):
            raise RuntimeError("span self times do not add up to the traced wall time")
        layers.append(metrics)
        accounts.append(own)
    tracer.write(str(spans_path))
    values = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
    for name in QUALITY:
        values[name] = statistics.median(q.get(name, 0.0) for q in quality)
    values["cpu_s"] = statistics.median(cpus)
    values["trace.wall_s"] = statistics.median(traced)
    values["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    self_s = {name: statistics.median(a.get(name, 0.0) for a in accounts) for name in accounts[0]}
    metrics = {name: {"value": value, "unit": per_layer_unit(name)} for name, value in values.items()}
    return metrics, self_s


def run(args, root: Path, nproc: int) -> int:
    """Run one workload as ``run.py`` was asked to; returns the exit code."""
    if not Path(factkit.__file__).resolve().is_relative_to((root / "src").resolve()):
        print(f"error: factkit was imported from {factkit.__file__}, not {root / 'src'}",
              file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    runner = Runner(workload, args.seed, root)
    runner.run()  # warm-up: BLAS threads, page cache, lazy imports; checked, not timed
    extra = {}
    if args.trace:
        metrics, extra["self_s_by_span"] = measure_traced(
            runner, args.seconds, runner.work / "spans.jsonl")
    else:
        metrics = measure(runner, args.seconds)
    env = environment(args.seed, workload, root, nproc, len(runner.setup_times))
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    (runner.work / "result.json").write_text(json.dumps({"env": env, **result, **extra}, indent=1))
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0

