"""Self-test of the benchmark at tiny sizes.

Run from the repository root:  python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

END_TO_END = [("ops_per_s", "1/s"), ("op_p50_ms", "ms"), ("op_tail_ms", "ms"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"), ("failed_ops", "share")]


def run_bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                           "--tiny", *args],
                          cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=170)


def sections(stdout: str) -> dict[str, str]:
    parts = re.split(r"^== (\w+)\b.*==$", stdout, flags=re.M)
    return dict(zip(parts[1::2], parts[2::2]))


def test_every_workload_prints_every_metric_with_its_unit():
    proc = run_bench("--workload", "all")
    found = sections(proc.stdout)
    assert sorted(found) == sorted(run.WORKLOADS)
    for name, text in found.items():
        for metric, unit in END_TO_END:
            assert re.search(rf"^\s+{metric}\s+\S+ {re.escape(unit)}\b",
                             text, re.M), (name, metric)
    # the three known CLI crashes are counted, nothing else fails
    assert re.search(r"failed_ops\s+\S+ share 3 of \d+ ops", found["cli"])
    for name in ("muddy", "reduction", "random"):
        assert " share 0 of " in found[name]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert (result["correct"], result["failed"]) == (False, 3)
    assert proc.returncode == 1


def test_one_workload_ends_with_its_json_result():
    proc = run_bench("--workload", "cli", "--seed", "3")
    assert proc.returncode == 0
    result = json.loads(proc.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        gated = {m["name"]: m["unit"] for m in json.load(fh)["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == gated


def test_traced_run_prints_every_layer_metric():
    proc = run_bench("--workload", "reduction", "--trace", "1")
    assert proc.returncode == 0
    result = json.loads(proc.stdout.splitlines()[-1])
    assert "tracing overhead" in proc.stdout
    metrics = result["metrics"]
    assert metrics["semantics.naive.calls"]["value"] > 0
    assert metrics["muddy.reduction_decide.self_s"]["unit"] == "s"
    for key in metrics:
        assert re.search(rf"^\s+{re.escape(key)}\s", proc.stdout, re.M)


def test_wrong_expected_verdict_counts_as_failed():
    ops = workloads.build("muddy", seed=0, tiny=True)
    ops[0].ref_args = (not ops[0].ref_args[0],)
    timing = worker.measure(ops, seconds=0, max_passes=2)
    failed, lines = worker.judge(ops, timing)
    assert failed == 2
    assert lines == ["FAILED upper DPAL k=3: expected False, got True "
                     "(2 of 2 passes)"]


def test_raising_op_counts_as_failed():
    ops = [workloads.Op(workloads.check_op, (None, "s", None, None),
                        workloads.const, (True,), ("broken",))]
    timing = worker.measure(ops, seconds=0, max_passes=3)
    failed, lines = worker.judge(ops, timing)
    assert failed == 3 and "raised AttributeError" in lines[0]


def test_result_that_changes_between_passes_is_judged_per_pass():
    results = iter([True, False, True, False])
    ops = [workloads.Op(lambda: next(results), (), workloads.const, (True,),
                        ("flaky",))]
    timing = worker.measure(ops, seconds=0, max_passes=4)
    failed, lines = worker.judge(ops, timing)
    assert failed == 2
    assert lines == ["FAILED flaky: expected True, got False (2 of 4 passes)"]
