"""Self-test of the benchmark harness at tiny workload sizes.

Run from the repository root:

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import os
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, ActiveSize, CdeSize, ClfSize, OpResult, write_inputs  # noqa: E402

# Sizes at which the whole suite runs in seconds.
TINY_SIZES = {
    "clf-20k": ClfSize(m=2000, holdout=2000, d=4, rounds=4),
    "cde-5k": CdeSize(m=300, d=2, k=3, rounds=5, query_rows=6),
    "active-word": ActiveSize(pool=400, test=100, init=20, batch=5, iterations=2, rounds=5),
}
# Tiny models are weak, so the held-out error bound is loosened here.
TINY_REFERENCE = {"clf_holdout_error_bound": 0.5, "digests": {}}
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def tiny(name):
    return dataclasses.replace(WORKLOADS[name], size=TINY_SIZES[name])


@pytest.fixture(scope="module")
def cli():
    return run.import_cli()


def tiny_run(name, tmp_path, trace, seed=3):
    return run.run(tiny(name), seed, 0.01, trace, TINY_REFERENCE, out_dir=tmp_path)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_metric_printed_with_its_unit(name, tmp_path):
    workload = tiny(name)
    for trace, declared in ((False, SPEC["end_to_end"]), (True, SPEC["per_layer"])):
        record = tiny_run(name, tmp_path, trace)
        assert record["ops_failed"] == 0, record["problems"]
        lines = run.report_lines(record)
        wanted = {m["name"]: m["unit"] for m in declared}
        if not trace:
            ops = workload.ops(str(tmp_path), workload.size, TINY_REFERENCE)
            wanted.update({op.metric: "1/s" if op.items else "s" for op in ops})
        for metric, unit in wanted.items():
            assert any(ln.startswith(f"{metric} ") and ln.endswith(f" {unit}") for ln in lines), metric
        line = run.result(record, [m["name"] for m in declared])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 2
        assert {k: v["unit"] for k, v in line["metrics"].items()} == {
            m["name"]: m["unit"] for m in declared
        }


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_self_time_never_exceeds_the_parent_span(name, tmp_path):
    record = tiny_run(name, tmp_path, trace=True)
    spans = [json.loads(ln) for ln in open(run.ROOT / record["span_file"])]
    assert spans
    by_pass: dict[int, dict[int, dict]] = {}
    for s in spans:
        by_pass.setdefault(s["pass"], {})[s["id"]] = s
    for table in by_pass.values():
        rows = [table[i] for i in range(len(table))]
        own = tracing.self_times([(s["id"], s["name"], s["start_ns"], s["end_ns"], s["parent"], s["op"])
                                  for s in rows])
        for s, self_ns in zip(rows, own):
            duration = s["end_ns"] - s["start_ns"]
            assert 0 <= self_ns <= duration, s
            if s["parent"] is not None:
                parent = table[s["parent"]]
                assert parent["start_ns"] <= s["start_ns"] <= s["end_ns"] <= parent["end_ns"]
                assert parent["op"] == s["op"]
                assert self_ns <= parent["end_ns"] - parent["start_ns"]
    metrics = record["metrics"]
    traced_total = metrics["trace.traced_total_s"]["value"]
    for layer in tracing.LAYERS:
        assert metrics[f"{layer}.self_s"]["value"] <= traced_total


def _csv_bytes(name, seed, directory):
    os.makedirs(directory, exist_ok=True)
    files = write_inputs(tiny(name), seed, str(directory))
    return {f: (directory / f).read_bytes() for f in files}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_is_a_pure_function_of_its_seed(name, tmp_path):
    first = _csv_bytes(name, 5, tmp_path / "a")
    assert first == _csv_bytes(name, 5, tmp_path / "b")
    assert first != _csv_bytes(name, 6, tmp_path / "c")


class _Corrupting:
    """A CLI whose ``corrupt(argv, repeat)`` hook runs after each call."""

    def __init__(self, cli, corrupt):
        self.cli, self.corrupt, self.calls = cli, corrupt, []

    def main(self, argv):
        rc = self.cli.main(argv)
        self.calls.append(argv)
        self.corrupt(argv, self.calls.count(argv))
        return rc


def _failed(cli, name, tmp_path, corrupt=None):
    workload = tiny(name)
    write_inputs(workload, 4, str(tmp_path))
    ops = workload.ops(str(tmp_path), workload.size, TINY_REFERENCE)
    target = cli if corrupt is None else _Corrupting(cli, corrupt)
    passes, _, _ = run.run_passes(target, ops, tmp_path, 0.0, trace=False)
    return run.failed_ops(passes), passes


def test_corrupted_sample_file_counts_as_failed(cli, tmp_path):
    clean, _ = _failed(cli, "cde-5k", tmp_path)
    assert clean == 0

    def outside_support(argv, repeat):
        if argv[:2] == ["cde", "sample"]:
            path = argv[argv.index("--out") + 1]
            text = Path(path).read_text().splitlines()
            text[1] = text[1].rsplit(",", 1)[0] + ",1e300"
            Path(path).write_text("\n".join(text) + "\n")

    failed, passes = _failed(cli, "cde-5k", tmp_path, outside_support)
    assert failed == clean + len(passes)
    assert all("outside the support" in p.runs[1].problems[0] for p in passes)


def test_output_that_changes_between_repeats_counts_as_failed(cli, tmp_path):
    def second_repeat_differs(argv, repeat):
        if argv[0] == "predict" and repeat == 2:
            path = argv[argv.index("--out") + 1]
            Path(path).write_text(Path(path).read_text().replace("\n", "\r\n", 1))

    failed, passes = _failed(cli, "clf-20k", tmp_path, second_repeat_differs)
    assert failed == 1
    assert "differ between repeats" in passes[1].runs[3].problems[0]


def test_nonzero_exit_counts_as_failed(cli, tmp_path):
    def drop_model(argv, repeat):
        if argv[:2] == ["cde", "train"]:
            os.unlink(argv[argv.index("--out") + 1])

    failed, passes = _failed(cli, "cde-5k", tmp_path, drop_model)
    # train's own check fails, and so do the queries that need the model
    assert failed == 3 * len(passes)
    assert passes[0].runs[1].rc == 2


def test_outputs_identical_against_stored_digests(tmp_path):
    record = tiny_run("active-word", tmp_path, trace=False)
    stored = {"digests": {"active-word": {"3": record["digests"]}}}
    first = run.Pass(False, [run.OpRun(0.0, 0, [], record["digests"])])
    assert run.outputs_identical("active-word", 3, first, stored) == (True, [])
    other = run.Pass(False, [run.OpRun(0.0, 0, [], {"curves.csv": "0" * 64})])
    assert run.outputs_identical("active-word", 3, other, stored) == (False, ["curves.csv"])
    assert run.outputs_identical("active-word", 4, first, stored) == (None, [])


def test_eval_check_recomputes_the_bound_chain(cli, tmp_path):
    workload = tiny("clf-20k")
    write_inputs(workload, 4, str(tmp_path))
    train, _, _, _, evaluate = workload.ops(str(tmp_path), workload.size, TINY_REFERENCE)
    for op in (train, evaluate):
        result = run.run_op(cli, op, tmp_path, None, 0)
        assert result.problems == []
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(list(evaluate.argv))
    stdout = out.getvalue()

    def problems(text):
        return evaluate.check(OpResult(text, str(tmp_path)))

    assert problems(stdout) == []
    verdict = "bound_chain_ok true" if "bound_chain_ok true" in stdout else "bound_chain_ok false"
    flipped = {"bound_chain_ok true": "bound_chain_ok false",
               "bound_chain_ok false": "bound_chain_ok true"}[verdict]
    assert "disagrees with its rows" in problems(stdout.replace(verdict, flipped))[0]
    first_round = next(ln for ln in stdout.splitlines() if ln.startswith("bound_round 1 "))
    fields = first_round.split()
    fields[3] = repr(float(fields[3]) * 1.5)  # z of round 1
    tampered = stdout.replace(first_round, " ".join(fields))
    assert any("disagree with epsilon and z" in p for p in problems(tampered))

    rounded = first_round.split()
    rounded[4] = repr(math.nextafter(float(rounded[4]), 2.0))  # prod_z of round 1, one ulp up
    last_bit = stdout.replace(first_round, " ".join(rounded))
    assert not any("disagree with epsilon and z" in p for p in problems(last_bit))


def test_prediction_check_streams_and_catches_defects(cli, tmp_path):
    workload = tiny("clf-20k")
    write_inputs(workload, 4, str(tmp_path))
    train, _, _, predict, _ = workload.ops(str(tmp_path), workload.size, TINY_REFERENCE)
    for op in (train, predict):
        assert run.run_op(cli, op, tmp_path, None, 0).problems == []
    pred = tmp_path / "pred.csv"
    lines = pred.read_text().splitlines()

    def problems(text):
        pred.write_text("\n".join(text) + "\n")
        return predict.check(OpResult("", str(tmp_path)))

    assert problems(lines) == []
    assert "rows, expected" in problems(lines[:-1])[0]
    assert "more rows than" in problems(lines + [lines[-1]])[0]
    assert "non-finite" in problems(lines[:1] + [lines[1].rsplit(",", 1)[0] + ",nan"] + lines[2:])[0]
    flipped = [ln.replace(",1.0,", ",X,").replace(",-1.0,", ",1.0,").replace(",X,", ",-1.0,")
               for ln in lines[1:]]
    assert "held-out error" in problems(lines[:1] + flipped)[0]


def test_tracing_overhead_pairs_each_traced_pass_with_the_plain_one_before():
    def p(traced, *seconds):
        return run.Pass(traced, [run.OpRun(s, 0, [], {}) for s in seconds])

    passes = [p(False, 1.0, 2.0, 4.0), p(True, 1.1, 2.4, 4.0), p(False, 9.0, 9.0, 9.0),
              p(True, 9.9, 9.0, 9.9)]
    # shares: 0.1, 0.2, 0.0 and 0.1, 0.0, 0.1
    assert run.overhead_share(passes) == pytest.approx(0.1)


def test_peak_rss_is_attributed_to_where_it_was_reached():
    def p(*rss):
        return run.Pass(False, [run.OpRun(0.0, 0, [], {}, cli, check) for cli, check in rss])

    ops = tiny("cde-5k").ops("", TINY_SIZES["cde-5k"], TINY_REFERENCE)
    record = run.rss_record(50.0, ops, [p((50.0, 50.0), (80.0, 80.0), (80.0, 80.0))])
    assert record == {"after_setup_mb": 50.0, "peak_mb": 80.0,
                      "reached_in": "cde_sample_draws_per_s", "raised_by_checks_mb": 0.0}
    record = run.rss_record(50.0, ops, [p((60.0, 60.0), (60.0, 90.0), (90.0, 90.0))])
    assert record["reached_in"] == "check of cde_sample_draws_per_s"
    assert record["raised_by_checks_mb"] == 30.0
