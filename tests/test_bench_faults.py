"""Smoke test of ``tools/bench_faults.py``: one short cde-5k bench run in a copy."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_cde_run_reports_the_bench_result_and_the_faults(tmp_path):
    # a copy, so the bench's .bench_out/ lands in tmp_path
    skip = shutil.ignore_patterns("__pycache__", ".bench_out")
    for name in ("src", "bench", "tools"):
        shutil.copytree(ROOT / name, tmp_path / name, ignore=skip)
    shutil.copy2(ROOT / "BENCHMARK.json", tmp_path)
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, "tools/bench_faults.py", "--workload", "cde-5k", "--seed", "1",
         "--seconds", "0.1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    bench, usage, children = (json.loads(line) for line in done.stdout.splitlines())
    assert bench["correct"] and bench["failed"] == 0
    assert set(bench["metrics"]) == {"total_s", "train_s", "setup_s", "peak_rss_mb"}
    assert set(usage) == {"ru_minflt", "ru_majflt", "ru_utime", "ru_stime"}
    assert usage["ru_minflt"] > 0 and usage["ru_utime"] > 0.0
    # cde-5k's searches are too small for a search sibling, but its breakpoints
    # are split with a job child wherever 2 CPUs are there to run it
    assert set(children) == {"ru_maxrss", "ru_minflt", "ru_utime", "ru_stime"}
    if len(os.sched_getaffinity(0)) >= 2:
        assert children["ru_maxrss"] > 0 and children["ru_utime"] > 0.0
    else:
        assert children == {"ru_maxrss": 0, "ru_minflt": 0, "ru_utime": 0.0, "ru_stime": 0.0}
