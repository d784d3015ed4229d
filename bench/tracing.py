"""Spans around the calls into each boostkit layer, recorded from outside.

Nothing in ``src/`` knows about tracing. :func:`install` replaces the
module-level names each layer is called through (the name is patched where
it is looked up, e.g. ``boosting.sigmoid`` rather than ``losses.sigmoid``)
with wrappers that record a span per call, and :func:`uninstall` restores
them. Spans are kept in memory and written out once, at the end of a run.

A layer is the prefix of a span name before the first dot. A span's self
time is its duration minus the durations of its direct children; spans
come from one thread, so children never overlap.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict


class Tracer:
    """Spans as (id, name, start_ns, end_ns, parent id, op id) tuples."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.op_id: int | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def call(self, name, fn, args, kwargs):
        if self.op_id is None:  # outside an op (checks, set-up): not traced
            return fn(*args, **kwargs), False
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs), True
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[sid] = (sid, name, start, end, parent, self.op_id)

    def span(self, name, op_id, fn, *args):
        """Run ``fn(*args)`` as the root span of op ``op_id``."""
        self.op_id = op_id
        try:
            return self.call(name, fn, args, {})[0]
        finally:
            self.op_id = None

    def patch(self, owner, attr: str, name: str, count=None) -> None:
        """Replace ``owner.attr`` by a wrapper recording span ``name``.

        ``count(counters, args, result)`` runs after each traced call.
        """
        fn = getattr(owner, attr)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result, traced = tracer.call(name, fn, args, kwargs)
            if traced and count is not None:
                count(tracer.counters, args, result)
            return result

        self._patches.append((owner, attr, fn))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches.clear()



def write_spans(path: str, passes: list[list[tuple]]) -> None:
    """One JSON object per span; ids and parents are per traced pass."""
    with open(path, "w", encoding="utf-8") as fh:
        for n, spans in enumerate(passes):
            for sid, name, start, end, parent, op in spans:
                fh.write(json.dumps({"pass": n, "id": sid, "name": name, "start_ns": start,
                                     "end_ns": end, "parent": parent, "op": op}) + "\n")


def _bump(key, by=lambda args, result: 1):
    def count(counters, args, result):
        counters[key] += by(args, result)
    return count


def _count_dataset(counters, args, result):
    counters["data.rows_parsed"] += result.m
    extra = (result.prior is not None) + (result.weights is not None)
    counters["data.cells_parsed"] += result.m * (result.d + 1 + extra)


def _count_matrix(counters, args, result):
    counters["data.rows_parsed"] += result.shape[0]
    counters["data.cells_parsed"] += result.size


def _count_search(counters, args, result):
    space = args[0]
    counters["stumps.search_calls"] += 1
    counters["stumps.candidates_scanned"] += sum(len(t) for t in space.thresholds)


def _count_score(counters, args, result):
    counters["boosting.score_calls"] += 1
    counters["boosting.score_rows"] += result.shape[0]


def _count_bytes(counters, args, result):
    counters["cli.bytes_written"] += os.path.getsize(args[0])


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the CLI reaches."""
    from boostkit import active, boosting, cli, density, prior
    from boostkit.rng import RngState

    tracer.patch(cli, "load_csv", "data.load_csv", _count_dataset)
    tracer.patch(cli, "load_features_csv", "data.load_features_csv", _count_matrix)

    for owner in (boosting, density):
        tracer.patch(owner, "StumpSearchSpace", "stumps.space_build", _bump("stumps.space_builds"))
    tracer.patch(boosting, "_best_binary", "stumps.search", _count_search)
    tracer.patch(boosting, "_best_confidence", "stumps.search", _count_search)

    for attr in ("alpha_binary", "alpha_line_search", "alpha_logistic_line_search"):
        tracer.patch(boosting, attr, "boosting.alpha", _bump("boosting.alpha_calls"))
    for owner in (boosting, cli):
        tracer.patch(owner, "update_distribution", "boosting.update")
    for owner in (cli, prior, density):
        tracer.patch(owner, "train", "boosting.train")
    tracer.patch(active, "train", "boosting.train", _bump("active.retrains"))
    tracer.patch(boosting.AdditiveModel, "score", "boosting.score", _count_score)

    tracer.patch(boosting, "sigmoid", "losses.sigmoid", _bump("losses.sigmoid_calls"))

    for attr in ("train_cde", "sample", "quantile"):
        tracer.patch(density, attr, f"density.{attr}")
    tracer.patch(density, "conditional_distribution", "density.conditional_distribution",
                 _bump("density.conditional_distribution_calls"))
    tracer.patch(density, "survival_probabilities", "density.survival_probabilities")

    tracer.patch(cli, "train_with_prior", "prior.train_with_prior")
    tracer.patch(prior, "augment_with_prior", "prior.augment",
                 _bump("prior.augmented_rows", lambda args, result: result.m))
    tracer.patch(prior, "prior_objective", "prior.objective")

    tracer.patch(active, "simulate", "active.simulate")
    tracer.patch(active, "select_queries", "active.select_queries")
    tracer.patch(active.Pool, "labeled_dataset", "active.labeled_dataset")

    for attr in ("save_classifier", "save_density"):
        tracer.patch(cli, attr, "model_io.save")
    tracer.patch(cli, "load_model", "model_io.load")

    tracer.patch(cli, "_write_csv", "cli.write_csv", _count_bytes)
    tracer.patch(RngState, "random", "rng.random", _bump("rng.draws"))


# Layers whose self time is reported as <layer>.self_s. The cli layer's
# cli.self_s is the op's root span alone (the command minus everything it
# calls), as cli.write_csv has its own metric.
LAYERS = ("data", "stumps", "boosting", "losses", "density", "prior", "active",
          "model_io", "rng")

# Inclusive span time reported per layer metric: metric -> span names.
SPAN_TIMES = {
    "data.parse_s": ("data.load_csv", "data.load_features_csv"),
    "stumps.search_s": ("stumps.search",),
    "stumps.space_build_s": ("stumps.space_build",),
    "boosting.alpha_s": ("boosting.alpha",),
    "boosting.update_s": ("boosting.update",),
    "boosting.score_s": ("boosting.score",),
    "losses.sigmoid_s": ("losses.sigmoid",),
    "density.conditional_distribution_s": ("density.conditional_distribution",),
    "density.survival_probabilities_s": ("density.survival_probabilities",),
    "prior.augment_s": ("prior.augment",),
    "prior.objective_s": ("prior.objective",),
    "active.select_queries_s": ("active.select_queries",),
    "active.labeled_dataset_s": ("active.labeled_dataset",),
    "model_io.save_s": ("model_io.save",),
    "model_io.load_s": ("model_io.load",),
    "cli.write_csv_s": ("cli.write_csv",),
}

COUNTS = (
    "data.rows_parsed", "data.cells_parsed", "stumps.search_calls",
    "stumps.candidates_scanned", "stumps.space_builds", "boosting.alpha_calls",
    "boosting.score_calls", "boosting.score_rows", "losses.sigmoid_calls",
    "density.conditional_distribution_calls", "prior.augmented_rows",
    "active.retrains", "cli.bytes_written", "rng.draws",
)


def self_times(spans: list[tuple]) -> list[int]:
    """Self time in ns of every span: duration minus its children's."""
    own = [end - start for _, _, start, end, _, _ in spans]
    for _, _, start, end, parent, _ in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def layer_metrics(spans: list[tuple], counters: dict[str, float]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass: name -> (value, unit)."""
    own = self_times(spans)
    inclusive: dict[str, int] = defaultdict(int)
    self_ns: dict[str, int] = defaultdict(int)
    train_self = 0
    cli_self = 0
    for (_, name, start, end, parent, _), s in zip(spans, own):
        inclusive[name] += end - start
        self_ns[name.split(".", 1)[0]] += s
        if name == "boosting.train":
            train_self += s
        elif parent is None:
            cli_self += s
    out: dict[str, tuple[float, str]] = {}
    for metric, names in SPAN_TIMES.items():
        out[metric] = (sum(inclusive[n] for n in names) / 1e9, "s")
    for metric in COUNTS:
        unit = "bytes" if metric == "cli.bytes_written" else "count"
        out[metric] = (float(counters.get(metric, 0.0)), unit)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (self_ns[layer] / 1e9, "s")
    out["boosting.train_self_s"] = (train_self / 1e9, "s")
    out["cli.self_s"] = (cli_self / 1e9, "s")

    def ratio(num, den):
        return out[num][0] / out[den][0] if out[den][0] else 0.0

    candidates = out["stumps.candidates_scanned"][0]
    out["stumps.ns_per_candidate"] = (
        out["stumps.search_s"][0] * 1e9 / candidates if candidates else 0.0, "ns")
    out["boosting.rows_per_score_call"] = (ratio("boosting.score_rows", "boosting.score_calls"), "rows")
    out["losses.sigmoid_calls_per_alpha"] = (ratio("losses.sigmoid_calls", "boosting.alpha_calls"), "calls")
    return out
