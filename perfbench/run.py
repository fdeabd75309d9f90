"""The depthlogic benchmark: end-to-end metrics per workload, and per-layer
metrics from a separate traced run.

Run from the repository root:

    python3 perfbench/run.py --workload muddy --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all            # every workload
    python3 perfbench/run.py --workload all --trace 1  # per-layer tables

Each workload runs in its own single-threaded worker process
(``worker.py``); set-up is repeated in further worker processes and
reported as a median.  Every op is judged against an independent reference
computed after timing.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines above
it are the same metrics as a table, plus any failed op with its input.

``--workload all`` also runs the three CLI invocations known to crash
(ROADMAP item 4), so its ``cli`` row reports them in ``failed_ops``; the
single ``cli`` workload leaves them out because it must be one on which no
op fails.  Exit status: 0 when every op passed, 1 when some op failed,
2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")

WORKLOADS = ("muddy", "reduction", "random", "cli")
# Extra set-up-only processes per run; setup_s is the median over these
# and the measuring process.
SETUP_REPEATS = 10
# A one-workload run must end within 180 s; its workers share this budget.
BUDGET_S = 170.0

END_TO_END = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
              "setup_s": "s", "peak_rss_mb": "MB"}
# The metrics BENCHMARK.json gates, which the JSON result carries.  The
# table also shows op_tail_ms and failed_ops.  The tail's ten-seed spread,
# set by the few heaviest ops of each seed plus host noise, stayed far
# above a third of the largest allowed bound on a shared 2-vCPU host.
# failed_ops is 0 when all is well and is the result's "failed" count.
GATED = ("ops_per_s", "op_p50_ms", "setup_s", "peak_rss_mb")


class BenchError(Exception):
    pass


class Runner:
    def __init__(self, args: argparse.Namespace, budget_s: float):
        self.args = args
        self.deadline = time.monotonic() + budget_s

    def worker(self, workload: str, mode: str, *extra: str) -> dict:
        a = self.args
        cmd = [sys.executable, WORKER, "--workload", workload, "--mode",
               mode, "--seed", str(a.seed), "--seconds", str(a.seconds),
               *extra]
        if a.tiny:
            cmd += ["--tiny", "--passes", "1"]
        if a.workload == "all" and workload == "cli":
            cmd.append("--known-crashes")
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("time budget exhausted")
        spawned = time.monotonic()
        try:
            proc = subprocess.run(cmd + ["--spawned-at", repr(spawned)],
                                  stdout=subprocess.PIPE, text=True,
                                  timeout=remaining)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{workload} {mode} worker timed out") from exc
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"{workload} {mode} worker exited with "
                             f"{proc.returncode}")
        return json.loads(lines[-1])

    def end_to_end(self, workload: str) -> dict:
        setups = [self.worker(workload, "setup")["setup_s"]
                  for _ in range(SETUP_REPEATS)]
        res = self.worker(workload, "measure")
        setups.append(res["setup_s"])
        res["setup_s"] = statistics.median(setups)
        res["setup_runs"] = len(setups)
        return res

    def traced(self, workload: str) -> dict:
        plain = self.worker(workload, "measure", "--passes", "1")
        res = self.worker(workload, "trace")
        res["untraced_ops_per_s"] = plain["ops_per_s"]
        return res


def print_end_to_end(name: str, res: dict) -> dict:
    print(f"== {name}: {res['ops_per_pass']} ops, each timed at its best of "
          f"{res['passes']} passes ==")
    notes = {
        "op_tail_ms": f"p{100 * res['tail_level']:.2f} over "
                      f"{res['ops_per_pass']} ops",
        "setup_s": f"median of {res['setup_runs']} set-ups",
    }
    for key, unit in END_TO_END.items():
        print(f"  {key:<12} {res[key]:>12.4f} {unit:<4} {notes.get(key, '')}")
    share = res["failed"] / res["attempted"]
    print(f"  {'failed_ops':<12} {share:>12.4f} share {res['failed']} of "
          f"{res['attempted']} ops")
    return {key: {"value": res[key], "unit": END_TO_END[key]}
            for key in GATED}


def print_layers(name: str, res: dict) -> dict:
    layers = res["layers"]
    wall = res["traced_wall_s"]
    print(f"== {name} traced: set-up + 1 pass of {res['ops_per_pass']} ops, "
          f"{wall:.3f} s ==")
    for key, m in layers.items():
        share = f"{100 * m['value'] / wall:6.1f}%" if m["unit"] == "s" else ""
        print(f"  {key:<34} {m['value']:>14.6g} {m['unit']:<5} {share}")
    overhead = res["untraced_ops_per_s"] / res["ops_per_s"] - 1
    print(f"  tracing overhead: {res['untraced_ops_per_s']:.4g} ops/s "
          f"untraced vs {res['ops_per_s']:.4g} traced ({100 * overhead:+.1f}%)")
    return layers


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=20,
                   help="minimum timed seconds; whole passes are run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="tiny inputs, for the benchmark's self-test")
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "depthlogic", "__init__.py")):
        print("run from the repository root: src/depthlogic not found",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    runner = Runner(args, BUDGET_S * len(names))
    metrics: dict[str, dict] = {}
    attempted = failed = 0
    try:
        for name in names:
            if args.trace:
                res = runner.traced(name)
                found = print_layers(name, res)
            else:
                res = runner.end_to_end(name)
                found = print_end_to_end(name, res)
            for line in res["failures"]:
                print(f"  {line}")
            attempted += res["attempted"]
            failed += res["failed"]
            if args.workload == "all":
                found = {f"{name}.{k}": v for k, v in found.items()}
            metrics.update(found)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
