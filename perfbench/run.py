#!/usr/bin/env python3
"""corematch benchmark: four fresh-market CLI workloads, checked and timed.

    python3 perfbench/run.py --workload salaries --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table

For one workload it measures set-up (importing corematch in fresh
interpreters), runs the timed closed loop in a separate single-threaded
worker process (worker.py), then checks every answered market against
independent computations (checks.py). The last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of a traced run
with ``--trace 1``. See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import os

# checks use NumPy and SciPy; keep them single-threaded on a shared machine
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import markets  # noqa: E402
import tracing  # noqa: E402

SETUP_SAMPLES = 10
SETUP_CODE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "start = time.perf_counter()\n"
    "import corematch.cli\n"
    "print(time.perf_counter() - start)\n"
)
# slack for the worker beyond the measured seconds: start-up, warm-up market,
# and the last market that begins just before the deadline
WORKER_SLACK_S = 60

UNITS = {
    "market_s.p50": "s", "markets_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB",
    **tracing.UNITS,
}


def child_env() -> dict:
    """Fixed string hashing, no outside PYTHONPATH, and a bytecode cache, so
    set-up measures importing corematch rather than compiling it."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def import_seconds() -> float:
    """Time to import corematch.cli in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(SRC)],
        env=child_env(), capture_output=True, text=True, timeout=60, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def run_worker(workload: str, seed: int, seconds: float, trace: int, out_dir: Path) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace), "--out", str(out_dir),
    ]
    done = subprocess.run(
        cmd, env=child_env(), capture_output=True, text=True, timeout=seconds + WORKER_SLACK_S,
    )
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"worker for {workload} exited {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def check_records(workload: str, out_dir: Path) -> tuple[int, int, bool]:
    import checks

    attempted = failed = 0
    correct = True
    with open(out_dir / "results.jsonl", encoding="utf-8") as fh:
        for line in fh:
            record = json.loads(line)
            attempted += 1
            op_failed, problems = checks.check(workload, record)
            if op_failed or problems:
                failed += 1
            if problems and not op_failed:
                correct = False
            for problem in problems[:3]:
                print(f"market {record['index']}: {problem}", file=sys.stderr)
    return attempted, failed, correct


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    out_dir = HERE / "out" / f"{workload}-seed{seed}-trace{trace}-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        # half the set-up samples before the timed loop and half after, so the
        # median spans the run rather than one moment of the host's speed; the
        # first import, which writes the bytecode cache, is discarded
        samples = []
        if not trace:
            import_seconds()
            samples += [import_seconds() for _ in range(SETUP_SAMPLES // 2)]
        summary = run_worker(workload, seed, seconds, trace, out_dir)
        if not trace:
            samples += [import_seconds() for _ in range(SETUP_SAMPLES - SETUP_SAMPLES // 2)]
        attempted, failed, correct = check_records(workload, out_dir)
        times = summary["times"]
        rate = len(times) / sum(times)
        if trace:
            metrics = tracing.layer_metrics(out_dir / "spans.jsonl", len(times))
            cache = summary.get("cache", {})
            for key in ("size", "hits", "misses"):
                value = cache.get(key, 0)
                metrics[f"matching.coalition_cache.{key}"] = value if key == "size" else value / len(times)
            metrics["trace.markets"] = len(times)
            metrics["trace.markets_per_s"] = rate
            metrics["kernels.compiled"] = int(summary["kernel"] == "compiled")
            spans = HERE / "out" / f"spans-{workload}-seed{seed}.jsonl"
            shutil.move(out_dir / "spans.jsonl", spans)
            print(f"# spans written to {spans.relative_to(ROOT)}", file=sys.stderr)
            if summary.get("missing"):
                print(f"# not found, so not traced: {', '.join(summary['missing'])}", file=sys.stderr)
        else:
            metrics = {
                "market_s.p50": statistics.median(times),
                "markets_per_s": rate,
                "setup_s": statistics.median(samples),
                "peak_rss_mb": summary["peak_rss_kb"] / 1024,
            }
        return {
            "workload": workload, "kernel": summary["kernel"], "correct": correct,
            "attempted": attempted, "failed": failed, "metrics": metrics,
        }
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def with_units(metrics: dict) -> dict:
    return {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()}


def report(result: dict) -> None:
    print(
        f"# {result['workload']}: kernel={result['kernel']} attempted={result['attempted']} "
        f"failed={result['failed']} correct={str(result['correct']).lower()}"
    )
    for name, value in result["metrics"].items():
        print(f"#   {name} = {value:.6g} {UNITS[name]}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=markets.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "corematch" / "cli.py").is_file():
        print(f"error: no corematch sources under {SRC}", file=sys.stderr)
        return 2

    if args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds, args.trace)
        report(result)
        print(json.dumps({
            "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": with_units(result["metrics"]),
        }))
        return 0

    # every workload in turn, each in its own worker process; with --trace 1
    # a traced run follows each untraced one and the gap in markets_per_s is
    # the tracing overhead
    combined, attempted, failed, correct = {}, 0, 0, True
    for workload in markets.WORKLOADS:
        plain = run_workload(workload, args.seed, args.seconds, 0)
        report(plain)
        results = [plain]
        if args.trace:
            traced = run_workload(workload, args.seed, args.seconds, 1)
            report(traced)
            results.append(traced)
            overhead = 1 - traced["metrics"]["trace.markets_per_s"] / plain["metrics"]["markets_per_s"]
            print(f"#   tracing overhead = {overhead:.1%} of markets_per_s")
        for res in results:
            attempted += res["attempted"]
            failed += res["failed"]
            correct &= res["correct"]
            combined.update({f"{workload}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": UNITS[k.split(".", 1)[1]]} for k, v in combined.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
