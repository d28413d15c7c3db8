"""Set up a workload, time its passes for a fixed budget, and report metrics.

With tracing off, a run reports the end-to-end metrics of ``END_TO_END``.
With tracing on, it first times untraced passes for half the budget, then
traced passes for the other half, and reports the per-layer metrics of
``layers.PER_LAYER`` per traced pass, the tracing overhead, and the share of
the traced wall time the spans cover.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import time
from pathlib import Path

from . import layers, workloads
from .tracer import SpanTable, Tracer, spans_outside_parent

# name, unit, better, bound (share of the parent's median a change may lose)
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("rtf", "s/s", "lower", 0.25),
    ("latency_p50_s", "s", "lower", 0.25),
    ("latency_p90_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.25),
)
UNITS = {name: unit for name, unit, *_ in END_TO_END + layers.PER_LAYER}
# printed for the workloads they apply to; checked, not bounded
QUALITY_UNITS = {
    "mean_speaker_wer.none": "ratio",
    "mean_speaker_wer.suta": "ratio",
    "mean_speaker_wer.sgem": "ratio",
    "failed_share": "ratio",
    "train_loss": "nats",
    "held_out_accuracy": "ratio",
    "held_out_wer": "ratio",
}
SETUPS = 5  # set-up repeats per untraced run; setup_s is their median
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def environment(root: Path, seed: int) -> dict:
    """What the numbers depend on besides the code. Thread variables are read, never set."""
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = None
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30
        )
        git_rev = rev.stdout.strip() if rev.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        git_rev = None
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {name: os.environ.get(name) for name in THREAD_VARIABLES},
        "git_rev": git_rev,
        "seed": seed,
    }


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


class Run:
    """One benchmark invocation of one workload."""

    def __init__(self, workload, seed: int, seconds: float, trace: bool, work_dir: Path,
                 build_dir: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work_dir = work_dir
        self.build_dir = build_dir
        self.tracer = Tracer(work_dir / "spans") if trace else None
        self._passes = 0

    def _timed_passes(self, budget_s: float, minimum: int, clock: workloads.Clock):
        passes, walls, cpu_s = [], [], 0.0
        start = time.perf_counter()
        while True:
            pass_dir = self.work_dir / f"pass-{self._passes}"
            self._passes += 1
            passes.append(self.workload.run(pass_dir, clock))
            shutil.rmtree(pass_dir, ignore_errors=True)
            walls.append(clock.wall_s)
            cpu_s += clock.cpu_s
            elapsed = time.perf_counter() - start
            if len(passes) >= minimum and elapsed * (len(passes) + 1) / len(passes) > budget_s:
                return passes, walls, cpu_s

    def execute(self) -> tuple[dict, dict]:
        """Return (result object for the last line, properties to print)."""
        checkpoint = None
        if self.workload.needs_checkpoint:
            checkpoint = workloads.trained_checkpoint(self.build_dir)

        if self.tracer is not None:
            layers.install(self.tracer)
        setup_times = []
        for i in range(1 if self.trace else SETUPS):
            if self.tracer is not None:
                self.tracer.active = True
            t0 = time.perf_counter()
            self.workload.setup(self.seed, self.work_dir / f"setup-{i}", checkpoint)
            setup_times.append(time.perf_counter() - t0)
            if self.tracer is not None:
                self.tracer.active = False
        setup_spans = self.tracer.collect() if self.tracer is not None else []

        if self.trace:
            plain, plain_walls, _ = self._timed_passes(self.seconds / 2, 1, workloads.Clock())
            traced, walls, cpu_s = self._timed_passes(
                self.seconds / 2, 1, workloads.Clock(self.tracer)
            )
            spans = self.tracer.collect()
            self.tracer.uninstall()
            passes = plain + traced
            metrics = layers.layer_metrics(
                SpanTable(spans), SpanTable(setup_spans), walls, plain_walls, cpu_s,
                getattr(self.workload, "workers", 1), nproc(),
            )
            self.spans = spans
        else:
            passes, walls, _ = self._timed_passes(self.seconds, 2, workloads.Clock())
            latencies = [t for p in passes for t in p.latencies_s]
            metrics = {
                "setup_s": statistics.median(setup_times),
                "wall_s": statistics.median(walls),
                "rtf": statistics.median(w / p.audio_s for w, p in zip(walls, passes)),
                "latency_p50_s": statistics.median(latencies),
                "latency_p90_s": statistics.quantiles(latencies, n=10)[8],
                "peak_rss_mb": peak_rss_mb(),
            }

        problems = [msg for p in passes for msg in p.problems]
        if self.trace and spans_outside_parent(self.spans):
            problems.append("a span lies outside its parent span")
        if any(p.outputs != passes[0].outputs for p in passes[1:]):
            problems.append("outputs differ between passes of one run")
        quality = {
            name: statistics.median(p.quality[name] for p in passes if name in p.quality)
            for name in dict.fromkeys(n for p in passes for n in p.quality)
        }
        result = {
            "correct": not problems,
            "attempted": sum(p.attempted for p in passes),
            "failed": sum(p.failed for p in passes),
            "metrics": {name: {"value": v, "unit": UNITS[name]} for name, v in metrics.items()},
        }
        info = {
            "workload": self.workload.properties(),
            "passes": len(passes),
            "latency_samples": sum(len(p.latencies_s) for p in passes),
            "quality": {name: {"value": v, "unit": QUALITY_UNITS[name]} for name, v in quality.items()},
            "problems": problems,
        }
        return result, info


def main(argv: list[str], root: Path) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    build_dir = root / ".bench_build" / "perfbench"
    work_dir = build_dir / f"run-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        run = Run(workloads.WORKLOADS[args.workload](), args.seed, args.seconds,
                  bool(args.trace), work_dir, build_dir)
        result, info = run.execute()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    print("env " + json.dumps(environment(root, args.seed), sort_keys=True))
    print("workload " + json.dumps({"name": args.workload, **info["workload"]}, sort_keys=True))
    print(f"passes {info['passes']}, latency samples {info['latency_samples']}")
    for name, m in {**result["metrics"], **info["quality"]}.items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    for problem in info["problems"]:
        print(f"check failed: {problem}")
    print(json.dumps(result), flush=True)
    return 0
