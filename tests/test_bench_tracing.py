"""The benchmark's tracer still finds every name it patches.

``bench/tracing.py`` wraps module-level names in ``src/`` by ``getattr``, so
renaming one of them (``boosting._best_confidence``, ``prior.train``,
``prior.augment_with_prior``, ``boosting.sigmoid``, ...) would crash a
traced benchmark run. These tests install the tracer and run small
commands through it.
"""

import importlib.util
from pathlib import Path

import numpy as np

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def traced(argv):
    tracing = load_tracing()
    tracer = tracing.Tracer()
    tracing.install(tracer)
    # looked up after install, which patches the boostkit modules imported
    # now: the benchmark harness re-imports boostkit afresh, so a main bound
    # when this file was imported may belong to modules no longer patched
    from boostkit import cli

    try:
        code = tracer.span("cli.train", 0, cli.main, argv)
    finally:
        tracer.uninstall()
    return code, tracer, tracing


def test_traced_prior_training(tmp_path, capsys):
    rng = np.random.default_rng(5)
    X = rng.uniform(-1.0, 1.0, size=(30, 2))
    y = np.where(X[:, 0] > 0.0, 1.0, -1.0)
    prior = 1.0 / (1.0 + np.exp(-2.0 * X[:, 0]))
    rows = ["a,b,label,prior"] + [",".join(repr(float(v)) for v in r) for r in zip(*X.T, y, prior)]
    data = tmp_path / "train.csv"
    data.write_text("\n".join(rows) + "\n")
    argv = ["train", "--data", str(data), "--rounds", "3", "--stumps", "confidence",
            "--prior-col", "prior", "--eta", "2", "--out", str(tmp_path / "m.txt")]

    code, tracer, tracing = traced(argv)
    assert code == 0, capsys.readouterr().err
    names = {span[1] for span in tracer.spans}
    assert {"stumps.search", "boosting.train", "boosting.alpha", "losses.sigmoid",
            "prior.train_with_prior", "prior.objective"} <= names
    assert tracer.counters["stumps.search_calls"] == 3
    # two continuous features of 30 distinct values: one tie-free block of
    # 30 candidates per feature, counted through space.thresholds
    assert tracer.counters["stumps.candidates_scanned"] == 3 * 2 * 30
    assert tracer.counters.get("prior.augmented_rows", 0) == 0
    metrics = tracing.layer_metrics(tracer.spans, tracer.counters)
    assert metrics["stumps.search_s"][0] > 0.0


def test_traced_cde_training_sorts_once(tmp_path, capsys):
    # 3 breakpoints of 4 rounds over 2 continuous features and one 0/1
    # feature: one sort shared by every breakpoint, whose label split
    # leaves the candidates scanned per search at 40 + 40 + 2
    rng = np.random.default_rng(6)
    m = 40
    X = np.column_stack([rng.uniform(-1.0, 1.0, size=(m, 2)), rng.integers(0, 2, size=m)])
    y = X[:, 0] + 0.5 * X[:, 2] + rng.normal(scale=0.3, size=m)
    rows = ["a,b,c,label"] + [",".join(repr(float(v)) for v in r) for r in zip(*X.T, y)]
    data = tmp_path / "reg.csv"
    data.write_text("\n".join(rows) + "\n")
    argv = ["cde", "train", "--data", str(data), "--k", "3", "--rounds", "4",
            "--out", str(tmp_path / "cde.txt")]

    code, tracer, _ = traced(argv)
    assert code == 0, capsys.readouterr().err
    assert tracer.counters["stumps.space_builds"] == 1
    assert tracer.counters["stumps.search_calls"] == 3 * 4
    assert tracer.counters["stumps.candidates_scanned"] == 3 * 4 * (m + m + 2)
    # one line search per round (no round of this data converges), called
    # through the names the tracer patches. The searches make 8.5
    # derivative evaluations each here; all but the one at alpha = 0
    # evaluate a sigmoid, and of the rounds' D only each breakpoint's first
    # does: 102 - 12 + 3 = 93 calls. Evaluating D and the step at alpha = 0
    # afresh every round made 114.
    assert tracer.counters["boosting.alpha_calls"] == 3 * 4
    assert 0 < tracer.counters["losses.sigmoid_calls"] < 8 * tracer.counters["boosting.alpha_calls"]


def test_traced_active_run(tmp_path, capsys):
    # 2 strategies x 2 iterations: 3 retrains each, and queries only when
    # uncertainty sampling picks the batch
    rng = np.random.default_rng(7)
    X = (rng.uniform(size=(80, 4)) < 0.3).astype(float)
    y = np.where(X[:, 0] + X[:, 1] - X[:, 2] > 0.5, 1.0, -1.0)
    rows = ["a,b,c,d,label"] + [",".join(repr(float(v)) for v in r) for r in zip(*X.T, y)]
    data = tmp_path / "pool.csv"
    data.write_text("\n".join(rows) + "\n")
    argv = ["active", "--data", str(data), "--test-fraction", "0.25", "--strategy", "both",
            "--init", "10", "--batch", "5", "--iterations", "2", "--rounds", "4",
            "--out", str(tmp_path / "curves.csv")]

    code, tracer, tracing = traced(argv)
    assert code == 0, capsys.readouterr().err
    names = {span[1] for span in tracer.spans}
    assert {"boosting.score", "boosting.update", "active.select_queries",
            "active.labeled_dataset"} <= names
    assert tracer.counters["active.retrains"] == 2 * 3
    metrics = tracing.layer_metrics(tracer.spans, tracer.counters)
    for metric in ("boosting.score_s", "boosting.update_s", "active.select_queries_s"):
        assert metrics[metric][0] > 0.0
