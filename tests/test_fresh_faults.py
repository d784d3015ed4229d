"""Smoke test of ``tools/fresh_faults.py``: cde-5k's ops in fresh processes, from a copy."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_cde_ops_report_faults_and_digests_per_tree(tmp_path):
    skip = shutil.ignore_patterns("__pycache__", ".bench_out")
    for name in ("src", "bench", "tools"):
        shutil.copytree(ROOT / name, tmp_path / name, ignore=skip)
    bench = sorted(os.listdir(tmp_path / "bench"))
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, "tools/fresh_faults.py", "--workload", "cde-5k", "--seed", "1",
         "--src", ".", "--src", str(tmp_path)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    runs = [json.loads(line) for line in done.stdout.splitlines()]
    ops = ["cde_train_s", "cde_sample_draws_per_s", "cde_quantile_rows_per_s"]
    assert [r["op"] for r in runs] == ops * 2
    assert {r["src"] for r in runs} == {str(tmp_path.resolve())}
    for r in runs:
        assert r["rc"] == 0 and r["pair"] == 0 and r["wall_s"] > 0.0
        assert r["ru_minflt"] > 0 and r["ru_utime"] > 0.0 and r["ru_maxrss"] > 0
        assert r["ru_stime"] >= 0.0
    # each op names its artifact, and both runs of an op wrote the same bytes
    assert [list(r["sha256"]) for r in runs[:3]] == [["cde.txt"], ["samples.csv"], ["quantiles.csv"]]
    assert [r["sha256"] for r in runs[:3]] == [r["sha256"] for r in runs[3:]]
    # the tool writes nothing under bench/
    assert sorted(os.listdir(tmp_path / "bench")) == bench
