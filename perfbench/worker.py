"""One workload in one single-threaded process.

Started by ``run.py`` from the repository root; prints one JSON object as
its last line of standard output.  Modes:

* ``setup``: import, build the inputs, warm first-call caches, then exit;
  reports ``setup_s`` only.
* ``measure``: set up, then time whole passes over the fixed op list until
  ``--seconds`` have passed and at least three passes ran (exactly
  ``--passes`` if given), keeping each op's fastest time; then compute the
  references and judge every op.
* ``trace``: like ``measure`` with one pass, with spans recorded from
  process start and written to ``perfbench/_work``.

``setup_s`` runs from ``--spawned-at`` (the parent's ``time.monotonic()``
just before starting this process) to the first timed op.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from time import perf_counter

ROOT = os.getcwd()
WORK = os.path.join(ROOT, "perfbench", "_work")
# Every run takes each op's best of at least three passes.
MIN_PASSES = 3
# How often the timed loop re-checks which CPU is fastest.
PIN_INTERVAL_S = 0.2


def _import_program() -> None:
    """Put the checkout's ``src`` first on the path and make sure the
    program comes from there, not from an installed copy."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import depthlogic
    if not os.path.abspath(depthlogic.__file__).startswith(src + os.sep):
        raise SystemExit(f"depthlogic imported from {depthlogic.__file__}, "
                         f"not from {src}")


def tail_level(n_ops: int) -> float:
    """p99, or for fewer than 1,000 ops per pass the highest percentile
    that leaves at least ten of them beyond it."""
    return 0.99 if n_ops >= 1000 else (n_ops - 10) / n_ops


def quantile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank quantile."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


@dataclass(frozen=True)
class Raised:
    """An exception that escaped an op; the op fails."""

    text: str

    def __repr__(self) -> str:
        return self.text


@dataclass
class Timing:
    """Each op's fastest time over the passes, the first pass's results,
    and any later result that differs from the first.  Nothing here grows
    with the number of passes unless results change, so peak RSS does not
    depend on how fast the program is."""

    best: list[float]
    passes: int
    first: list[object]
    changed: list[tuple[int, object]]


def _probe() -> float:
    """Time of a fixed pure-Python loop on the current CPU."""
    start = perf_counter()
    acc = 0
    for i in range(10_000):
        acc += i * i % 7
    return perf_counter() - start


def pin_fastest_cpu(cpus: list[int]) -> None:
    """Pin this process to the CPU that runs the probe fastest right now.

    On a shared host each virtual CPU has slow periods of its own, lasting
    seconds, when a neighbour contends for its physical core, and the CPUs
    are seldom slow together.  Following the faster one keeps most of that
    interference out of the op times, which stay plain wall times."""
    timed = []
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        timed.append((min(_probe(), _probe()), cpu))
    os.sched_setaffinity(0, {min(timed)[1]})


def measure(ops, seconds: float, max_passes: int | None) -> Timing:
    timing = Timing([math.inf] * len(ops), 0, [], [])
    best, first = timing.best, timing.first
    cpus = sorted(os.sched_getaffinity(0))
    next_pin = 0.0
    begin = perf_counter()
    while True:
        for i, op in enumerate(ops):
            call, args = op.call, op.args
            start = perf_counter()
            if start >= next_pin and len(cpus) > 1:
                pin_fastest_cpu(cpus)  # between ops, outside the timing
                start = perf_counter()
                next_pin = start + PIN_INTERVAL_S
            try:
                value = call(*args)
            except Exception as exc:  # an escaping exception fails the op
                value = Raised(f"raised {type(exc).__name__}: {exc}")
            elapsed = perf_counter() - start
            if elapsed < best[i]:
                best[i] = elapsed
            if timing.passes == 0:
                first.append(value)
            elif value != first[i]:
                timing.changed.append((i, value))
        timing.passes += 1
        if max_passes is None:
            done = (timing.passes >= MIN_PASSES
                    and perf_counter() - begin >= seconds)
        else:
            done = timing.passes >= max_passes
        if done:
            return timing
        gc.collect()  # each pass starts from a collected heap


def judge(ops, timing: Timing, tracer=None) -> tuple[int, list[str]]:
    """Count failed ops over all passes against the references, which run
    here, after timing, with tracing switched off."""
    if tracer is not None:
        tracer.enabled = False
    expected = [op.reference(*op.ref_args) for op in ops]
    wrong = [timing.passes * (obs != ref)
             for obs, ref in zip(timing.first, expected)]
    seen = list(timing.first)
    for i, value in timing.changed:
        wrong[i] += (value != expected[i]) - (timing.first[i] != expected[i])
        if value != expected[i]:
            seen[i] = value
    lines = []
    for i, op in enumerate(ops):
        if wrong[i]:
            label = " ".join(str(x) for x in op.label)
            lines.append(f"FAILED {label}: expected {expected[i]!r}, got "
                         f"{seen[i]!r} ({wrong[i]} of {timing.passes} passes)")
    return sum(wrong), lines


def summarize(timing: Timing) -> dict:
    """Each op's time is its fastest over the run's passes: slow periods of
    a shared host only ever add time, so the minimum filters them."""
    best = timing.best
    ranked = sorted(best)
    level = tail_level(len(best))
    return {
        "ops_per_s": len(best) / sum(best),
        "op_p50_ms": statistics.median(ranked) * 1e3,
        "op_tail_ms": quantile(ranked, level) * 1e3,
        "tail_level": level,
        "passes": timing.passes,
        "ops_per_pass": len(best),
    }


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--mode", choices=["setup", "measure", "trace"],
                   default="measure")
    p.add_argument("--passes", type=int, default=None)
    p.add_argument("--tiny", action="store_true")
    p.add_argument("--known-crashes", action="store_true")
    p.add_argument("--spawned-at", type=float, required=True)
    args = p.parse_args(argv)

    _import_program()
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import spans
    import workloads

    tracer = None
    traced_start = perf_counter()
    if args.mode == "trace":
        tracer = spans.Tracer()
        tracer.install()
    workdir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    try:
        ops = workloads.build(args.workload, args.seed, tiny=args.tiny,
                              known_crashes=args.known_crashes,
                              workdir=workdir)
        gc.collect()
        setup_s = time.monotonic() - args.spawned_at
        if args.mode == "setup":
            print(json.dumps({"setup_s": setup_s}))
            return 0
        timing = measure(ops, args.seconds, 1 if tracer else args.passes)
        traced_wall = perf_counter() - traced_start
        peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024
        failed, lines = judge(ops, timing, tracer)
        result = summarize(timing)
        result.update(setup_s=setup_s, peak_rss_mb=peak_rss_mb,
                      attempted=len(ops) * timing.passes, failed=failed,
                      failures=lines)
        if tracer is not None:
            result["layers"] = {
                key: {"value": value, "unit": spans.LAYER_METRICS[key]}
                for key, value in spans.layer_metrics(tracer, ops).items()}
            result["traced_wall_s"] = traced_wall
            os.makedirs(WORK, exist_ok=True)
            tracer.write(os.path.join(
                WORK, f"spans-{args.workload}-seed{args.seed}.jsonl"))
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
