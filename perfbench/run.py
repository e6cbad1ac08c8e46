"""Benchmark of the vvmf2 engine, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: vvmf2 is imported from ``./src``.  Every
operation runs in a fresh interpreter (perfbench/worker.py), one at a
time, with VVMF2_CACHE_DIR unset, so no in-process cache carries over
between operations.  Each operation's output is checked with the
independent checks of workloads.py, and every report of a run must be
byte-identical to the first.

With ``--trace 0`` the run measures set-up time (several set-up-only
launches plus every operation's own set-up), the wall time of each
operation and its peak resident memory, and reports medians.  With
``--trace 1`` it alternates untraced and traced operations and reports
the per-layer times of the traced ones (medians) and the tracing
overhead.  Spans are written to ``.bench_out/``.  The last line of
standard output is the JSON result; a summary goes to standard error.

Every time is reported at the reference host speed: each worker also
times a fixed computation (``worker.gauge``), and a time measured in
that worker is scaled by REFERENCE_S / gauge.  The host's speed drifts
by up to 2x over minutes; the gauge drifts with it, so the scaled times
repeat where raw wall times do not (README.md, "Noise").
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
SETUP_LAUNCHES = 8
MIN_ROUNDS = 3
WORKER_TIMEOUT_S = 120
REFERENCE_S = 0.06  # worker.gauge() on a quiet 2-core Xeon VM, Python 3.11 (its fastest readings)

END_TO_END_UNITS = {"setup_s": "s", "report_s": "s", "peak_rss_mb": "MB"}


class WorkerError(RuntimeError):
    pass


class Bench:
    """Launches workers for one workload and keeps what they report."""

    def __init__(self, root: Path, workload: workloads.Workload, seed: int):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.inputs = workload.make_inputs(seed)
        self.env = {k: v for k, v in os.environ.items() if k != "VVMF2_CACHE_DIR"}
        self.env.update(PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0")
        self.out_dir = root / ".bench_out"
        self.setups: list[float] = []
        self.raw_setups: list[float] = []
        self.reports: list[str] = []
        self.errors: list[str] = []
        self.attempted = 0
        self.failed = 0

    def launch(self, mode: str) -> dict:
        cmd = [sys.executable, str(HERE / "worker.py"), self.workload.name, mode]
        cmd.append(json.dumps(self.inputs))
        if mode == "trace":
            self.out_dir.mkdir(exist_ok=True)
            spans = self.out_dir / f"spans-{self.workload.name}-seed{self.seed}-{len(self.reports)}.json"
            cmd.append(str(spans))
        start = time.perf_counter()
        proc = subprocess.run(
            cmd, cwd=self.root, env=self.env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S
        )
        if proc.returncode != 0:
            raise WorkerError(f"{mode} worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        result = json.loads(proc.stdout.splitlines()[-1])
        result["speed"] = REFERENCE_S / result["gauge_s"]
        result["setup_wall_s"] = result["t_ready"] - start
        self.setups.append(result["setup_wall_s"] * result["speed"])
        self.raw_setups.append(result["setup_wall_s"])
        return result

    def operation(self, mode: str) -> dict | None:
        """One round: run, count the operations, check the output outside the timing."""
        n = self.workload.ops_per_round
        self.attempted += n
        try:
            result = self.launch(mode)
        except (WorkerError, subprocess.TimeoutExpired) as exc:
            self.failed += n
            print(f"operation failed: {exc}", file=sys.stderr)
            return None
        self.failed += sum(1 for ok in result["outcomes"] if not ok)
        problems = self.workload.check(self.inputs, result)
        self.errors += [f"operation {len(self.reports)}: {e}" for e in problems]
        self.reports.append(result["report"])
        return result


def quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"{values[0]:.4f}" if values else "-"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"median {q2:.4f} (q1 {q1:.4f}, q3 {q3:.4f}, n={len(values)})"


def run(bench: Bench, seconds: float, trace: bool) -> dict:
    deadline = time.perf_counter() + seconds
    bench.launch("setup")  # warm-up: bytecode and file cache, not counted
    bench.setups.clear()
    bench.raw_setups.clear()
    for _ in range(SETUP_LAUNCHES):
        bench.launch("setup")

    plain: list[dict] = []
    traced: list[dict] = []
    rounds = 0
    walls: list[float] = []
    while True:
        start = time.perf_counter()
        modes = ("op",) if not trace else ("op", "trace") if rounds % 2 == 0 else ("trace", "op")
        results = [bench.operation(mode) for mode in modes]
        if None in results:
            break  # a worker crashed or hung: counted as failed, and the run stops
        for mode, result in zip(modes, results):
            (traced if mode == "trace" else plain).append(result)
        rounds += 1
        walls.append(time.perf_counter() - start)
        enough = rounds >= (1 if trace else MIN_ROUNDS)
        if enough and time.perf_counter() + statistics.median(walls) > deadline:
            break

    if bench.reports:
        bench.errors += workloads.check_repeat(bench.reports)
    if not plain or (trace and not traced):
        bench.errors.append("no operation completed")

    report_s = [r["report_s"] * r["speed"] for r in plain]
    print(f"{bench.workload.name} seed {bench.seed}: {rounds} rounds", file=sys.stderr)
    wall_s = [r["report_s"] for r in plain]
    print(f"  setup_s   {quartiles(bench.setups)}; wall {quartiles(bench.raw_setups)}", file=sys.stderr)
    print(f"  report_s  {quartiles(report_s)}; wall {quartiles(wall_s)}", file=sys.stderr)
    if not trace:
        metrics = {
            "setup_s": statistics.median(bench.setups),
            "report_s": statistics.median(report_s) if report_s else 0.0,
            "peak_rss_mb": statistics.median(r["rss_kb"] / 1024 for r in plain) if plain else 0.0,
        }
        units = END_TO_END_UNITS
    else:
        traced_s = [r["report_s"] * r["speed"] for r in traced]
        print(f"  traced    {quartiles(traced_s)}", file=sys.stderr)
        metrics = {
            name: statistics.median(r["layers"][name] * r["speed"] for r in traced)
            for name in (traced[0]["layers"] if traced else ())
        }
        overhead = statistics.median(traced_s) - statistics.median(report_s) if traced and plain else 0.0
        metrics["trace.overhead_s"] = overhead
        units = {name: "s" for name in metrics}
        for name, value in metrics.items():
            print(f"  {name:<30} {value:.4f}", file=sys.stderr)
    for e in bench.errors[:20]:
        print(f"CHECK FAILED: {e}", file=sys.stderr)
    return {
        "correct": not bench.errors,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = HERE.parent
    if not (root / "src" / "vvmf2" / "__init__.py").is_file():
        print(f"error: no vvmf2 sources under {root / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    bench = Bench(root, workloads.WORKLOADS[args.workload], args.seed)
    try:
        result = run(bench, args.seconds, bool(args.trace))
    except (WorkerError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
