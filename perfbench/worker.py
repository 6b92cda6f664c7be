"""One workload's timed closed loop, run in its own process.

    python3 perfbench/worker.py --workload W --seed N --seconds T --trace 0|1 --out DIR

Imports corematch from the checkout's ``src``, answers one warm-up market,
then answers markets from the seeded list one after another until T seconds
have passed. Each market's commands go through ``corematch.cli.main(argv)``
in this process with stdout and stderr captured, so parsing, computing and
rendering are all timed. Each market's record (market, argv, exit code,
output, seconds) is appended to DIR/results.jsonl outside the timed section;
the last line of stdout is a JSON summary. Outputs are checked by run.py
after this process has ended, so checking never competes with the timed loop
for the CPU and never adds to this process's memory.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import traceback
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import markets  # noqa: E402
import tracing  # noqa: E402


def answer(cli, argv: list[str]) -> dict:
    """Run one command in-process; the timed span covers main() and capture."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse usage errors exit 2
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # an uncaught traceback is a failed command, not a crash
        code = -1
        err.write(traceback.format_exc())
    took = time.perf_counter() - start
    return {"argv": argv, "code": code, "out": out.getvalue(), "err": err.getvalue(), "seconds": took}


def answer_market(cli, workload: str, path: str) -> list[dict]:
    runs = [answer(cli, argv) for argv in markets.commands(workload, path)]
    if all(r["code"] == 0 for r in runs):
        try:
            argv = markets.follow_up(workload, path, [r["out"] for r in runs])
        except (IndexError, ValueError) as exc:
            runs.append({"argv": [], "code": -1, "out": "", "err": f"unreadable output: {exc}", "seconds": 0.0})
            return runs
        if argv is not None:
            runs.append(answer(cli, argv))
    return runs


def peak_rss_kb() -> int:
    """Peak resident memory of this process since it started.

    Linux's ru_maxrss keeps the parent's high-water mark across fork and
    exec, so a large parent would show through; VmHWM belongs to this
    process's own address space.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=markets.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    out_dir = Path(args.out)
    path = str(out_dir / "market.json")

    import corematch
    import corematch.cli as cli

    # a warning must reach the captured stderr every time it is raised
    warnings.simplefilter("always")

    def write_market(m: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(m, fh)

    write_market(markets.market(args.workload, args.seed, -1))
    answer_market(cli, args.workload, path)

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    cache = getattr(corematch.matching, "_coalition_value_masks", None)
    cache_before = cache.cache_info() if cache is not None else None

    times = []
    with open(out_dir / "results.jsonl", "w", encoding="utf-8") as results:
        start = time.perf_counter()
        for index, m in markets.markets(args.workload, args.seed):
            if time.perf_counter() - start >= args.seconds:
                break
            write_market(m)
            if tracer is not None:
                tracer.market = index
            runs = answer_market(cli, args.workload, path)
            took = sum(r["seconds"] for r in runs)
            times.append(took)
            results.write(json.dumps({"index": index, "market": m, "runs": runs, "seconds": took}) + "\n")

    summary = {
        "kernel": corematch.kernel_implementation(),
        "times": times,
        "peak_rss_kb": peak_rss_kb(),
    }
    if tracer is not None:
        tracer.write(out_dir / "spans.jsonl")
        summary["missing"] = tracer.missing
        if cache is not None:
            after = cache.cache_info()
            summary["cache"] = {
                "size": after.currsize,
                "hits": after.hits - cache_before.hits,
                "misses": after.misses - cache_before.misses,
            }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
