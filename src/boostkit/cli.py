"""Command-line surface: train, predict, eval, cde, active.

Every command is a pure function of its input files and flags: no clock,
no environment, no platform randomness. Outputs are CSV files or model
files written atomically. Exit codes: 0 success, 1 usage error, 2 data
error, 3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import math
import sys
from typing import Callable, NamedTuple

import numpy as np

from . import active as active_mod
from . import density as density_mod
from .boosting import (
    BoostConfig,
    RoundAccounting,
    bound_report,
    error_rate,
    normalized_margins,
    sign_pm1,
    stats_csv_rows,
    train,
    STATS_CSV_COLUMNS,
)
from .boosting import update_distribution  # noqa: F401  the benchmark tracer patches it here
from .config import load_config
from .data import atomic_write_text, load_csv, load_features_csv, split
from .errors import BoostkitError, DataError, InvariantError, UsageError
from .losses import check_finite_scores, loss_values, prob_positive
from .model_io import load_model, save_classifier, save_density
from .prior import PriorConfig, load_rule_table, train_with_prior
from .rng import RngState
from .stumps import StumpSearchConfig


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit 2; we own the exit codes
        raise UsageError(message)


# lines formatted and written at a time by _write_csv, and rows of array
# values converted at a time by _rows
_CHUNK_LINES = 1024


def _write_csv(path: str, header, lines) -> None:
    """Write a CSV file from its header cells and its data lines.

    Every cell written is a number or a fixed word, so none needs quoting
    and a line is its cells joined by commas. ``lines`` may be a generator:
    it is drawn and written ``_CHUNK_LINES`` lines at a time, so the file's
    text is never held whole.
    """
    def chunks():
        yield ",".join(header) + "\n"
        it = iter(lines)
        while chunk := list(itertools.islice(it, _CHUNK_LINES)):
            yield "\n".join(chunk) + "\n"

    atomic_write_text(path, chunks())


def _rows(*columns: np.ndarray):
    """The rows of equal-length arrays as tuples of Python numbers, converted
    ``_CHUNK_LINES`` rows at a time; a 2-D array gives each row as a list."""
    for lo in range(0, len(columns[0]), _CHUNK_LINES):
        yield from zip(*(c[lo:lo + _CHUNK_LINES].tolist() for c in columns))


class _Kind(NamedTuple):
    """How a flag's text becomes its value: ``parse`` raises ValueError on
    text that is not ``accepts`` (None for free text)."""

    parse: Callable[[str], object]
    accepts: str | None


def _number(cast, ok, accepts: str) -> _Kind:
    def parse(text: str):
        value = cast(text)
        if not ok(value):
            raise ValueError(text)
        return value

    return _Kind(parse, accepts)


def _choice(values: dict[str, str]) -> _Kind:
    """One of the keys of ``values``, parsed to the value it maps to."""

    def parse(text: str) -> str:
        if text not in values:
            raise ValueError(text)
        return values[text]

    return _Kind(parse, "one of " + ", ".join(values))


_TEXT = _Kind(str, None)
_POSITIVE = _number(int, lambda v: v >= 1, "an integer >= 1")
_NONNEGATIVE = _number(int, lambda v: v >= 0, "an integer >= 0")  # seeds too, as RngState requires
_FINITE_NONNEGATIVE = _number(float, lambda v: 0.0 <= v < math.inf, "finite and nonnegative")
_OPEN_UNIT = _number(float, lambda v: 0.0 < v < 1.0, "in (0, 1)")


def _seed_list(text: str) -> list[int]:
    seeds = [_NONNEGATIVE.parse(s) for s in text.split(",") if s.strip() != ""]
    if not seeds:
        raise ValueError(text)
    return seeds


_REQUIRED = object()


class _Flag(NamedTuple):
    kind: _Kind
    default: object  # flag text, None for none, or _REQUIRED
    help: str


# Every flag of every command. A config-file key is the flag's name with "_"
# for "-", and its value goes through the same parse.
_FLAGS = {
    "config": _Flag(_TEXT, None, "key = value config file; flags override it"),
    "label_col": _Flag(_TEXT, "label", "label column"),
    "data": _Flag(_TEXT, _REQUIRED, "input CSV"),
    "test": _Flag(_TEXT, None, "held-out CSV"),
    "model": _Flag(_TEXT, _REQUIRED, "model file"),
    "out": _Flag(_TEXT, _REQUIRED, "file to write"),
    "stats": _Flag(_TEXT, None, "round-stats CSV, by default <out>.stats.csv"),
    "prior_col": _Flag(_TEXT, None, "prior probability column"),
    "prior_rules": _Flag(_TEXT, None, "prior rule-table file"),
    "eta": _Flag(_FINITE_NONNEGATIVE, None, "prior strength, required with a prior and without default"),
    "rounds": _Flag(_POSITIVE, _REQUIRED, "boosting rounds"),
    "loss": _Flag(_choice({"exp": "exponential", "logistic": "logistic"}), None,
                  "training loss, by default logistic with a prior and exp otherwise"),
    "stumps": _Flag(_choice({"binary": "binary", "confidence": "confidence"}), None,
                    "base learner outputs, by default binary for train and confidence otherwise"),
    "alpha": _Flag(
        _choice({"auto": "auto", "closed-form": "closed_form_binary",
                 "line-search": "line_search", "unit": "unit"}),
        "auto", "vote-weight strategy"),
    "smoothing": _Flag(_FINITE_NONNEGATIVE, None, "confidence smoothing, by default 1/(2m)"),
    "seed": _Flag(_NONNEGATIVE, "0", "recorded in trained models; seeds the draws of cde sample"),
    "k": _Flag(_POSITIVE, _REQUIRED, "number of breakpoints"),
    "n_samples": _Flag(_POSITIVE, "1", "draws per row"),
    "level": _Flag(_OPEN_UNIT, _REQUIRED, "quantile level"),
    "test_fraction": _Flag(_OPEN_UNIT, "0.3", "share of rows held out when there is no test file"),
    "split_seed": _Flag(_NONNEGATIVE, "0", "seed of that split"),
    "strategy": _Flag(_choice({"uncertainty": "uncertainty", "random": "random", "both": "both"}),
                      "both", "labeling strategy"),
    "init": _Flag(_POSITIVE, "500", "initial random batch"),
    "batch": _Flag(_POSITIVE, "200", "per-iteration batch"),
    "iterations": _Flag(_NONNEGATIVE, "10", "query iterations"),
    "seeds": _Flag(_Kind(_seed_list, "a comma-separated list of integers >= 0"), "0",
                   "one paired run per seed"),
}
_CONFIG_KEYS = frozenset(_FLAGS) - {"config"}


def _dashed(key: str) -> str:
    return "--" + key.replace("_", "-")


def _parse(key: str, text: str, where: str = ""):
    flag = _FLAGS[key]
    try:
        return flag.kind.parse(text)
    except ValueError:
        raise UsageError(f"{where}{_dashed(key)} must be {flag.kind.accepts}, got {text!r}") from None


def _help(key: str) -> str:
    flag = _FLAGS[key]
    text = flag.help if flag.kind.accepts is None else f"{flag.help}; {flag.kind.accepts}"
    if flag.default is _REQUIRED:
        return text + " (required)"
    return text if flag.default is None else f"{text} (default: {flag.default})"


def _options(args: argparse.Namespace, keys: tuple[str, ...]) -> dict[str, object]:
    """Each key's value: its flag, else its --config value, else its default.

    A command ignores config keys it does not take.
    """
    config = load_config(args.config, _CONFIG_KEYS) if args.config else {}
    values = {}
    for key in keys:
        value = getattr(args, key)
        if value is None and key in config:
            text, line = config[key]
            value = _parse(key, text, f"{args.config}: line {line}: ")
        elif value is None and _FLAGS[key].default is _REQUIRED:
            raise UsageError(f"missing required option {_dashed(key)}")
        elif value is None and _FLAGS[key].default is not None:
            value = _parse(key, _FLAGS[key].default)
        values[key] = value
    return values


def _boost_config(opt: dict, loss_kind: str, default_stumps: str) -> BoostConfig:
    return BoostConfig(
        rounds=opt["rounds"],
        loss_kind=loss_kind,
        stumps=StumpSearchConfig(mode=opt["stumps"] or default_stumps, smoothing=opt["smoothing"]),
        alpha_strategy=opt["alpha"],
    )


def _config_echo(pairs: list[tuple[str, object]]) -> str:
    return ";".join(f"{k}={v}" for k, v in pairs)


def _classification_csv(opt: dict, key: str, use: str, prior_column: str | None = None):
    """The Dataset in the CSV file that option ``key`` names, whose labels
    must be -1/+1: ``use`` says what needs them."""
    ds = load_csv(opt[key], label_column=opt["label_col"], prior_column=prior_column)
    if not ds.is_classification:
        raise DataError(f"{opt[key]}: {use} requires classification labels (-1/+1)")
    return ds


def cmd_train(opt: dict) -> int:
    prior_col, prior_rules, eta = opt["prior_col"], opt["prior_rules"], opt["eta"]
    if eta is not None and prior_col is None and prior_rules is None:
        raise UsageError("--eta requires --prior-col or --prior-rules")
    if eta is None and (prior_col is not None or prior_rules is not None):
        raise UsageError("--prior-col/--prior-rules require --eta (it has no default)")

    loss = opt["loss"] or ("logistic" if eta is not None else "exponential")
    cfg = _boost_config(opt, loss, default_stumps="binary")
    if eta is not None and cfg.loss_kind != "logistic":
        raise UsageError("training with a prior requires --loss logistic")

    label_col, out_path = opt["label_col"], opt["out"]
    ds = _classification_csv(opt, "data", "training", prior_column=prior_col)
    eval_ds = _classification_csv(opt, "test", "test data") if opt["test"] else None
    if eval_ds is not None and eval_ds.d != ds.d:
        raise DataError(f"{opt['test']}: expected {ds.d} features as in {opt['data']}, got {eval_ds.d}")

    echo = _config_echo(
        [
            ("rounds", cfg.rounds),
            ("loss", cfg.loss_kind),
            ("stumps", cfg.stumps.mode),
            ("alpha", cfg.alpha_strategy),
            ("smoothing", "auto" if cfg.stumps.smoothing is None else cfg.stumps.smoothing),
            ("label_col", label_col),
            ("eta", "none" if eta is None else eta),
        ]
    )

    if eta is not None:
        prior = load_rule_table(prior_rules) if prior_rules else None
        model, stats = train_with_prior(ds, prior, PriorConfig(eta=eta), cfg, eval_ds)
    else:
        model, stats = train(ds, cfg, eval_ds)

    save_classifier(out_path, model, features=ds.d, seed=opt["seed"], config=echo)
    stats_path = opt["stats"] or out_path + ".stats.csv"
    _write_csv(stats_path, STATS_CSV_COLUMNS, map(",".join, stats_csv_rows(stats)))
    last = stats[-1]
    print(f"trained {model.rounds} rounds; final train_error {last.train_error!r}")
    print(f"model written to {out_path}; stats to {stats_path}")
    return 0


def _model_and_data(opt: dict, mode: str, labeled: bool = False):
    """The --model file, which must be a model of the given mode, and the
    --data rows to score with it: a Dataset of -1/+1 labels if labeled, else
    the features."""
    path = opt["model"]
    loaded = load_model(path)
    if loaded.mode != mode:
        other, use = (("density", "the cde commands") if mode == "classify"
                      else ("classifier", "train/predict/eval"))
        raise DataError(f"{path}: is a {other} model; use {use}")
    if labeled:
        data = _classification_csv(opt, "data", "eval")
        X = data.features
    else:
        data = X = load_features_csv(opt["data"], label_column=opt["label_col"])
    if X.shape[1] != loaded.features:
        raise DataError(f"{opt['data']}: expected {loaded.features} features for model {path}, "
                        f"got {X.shape[1]}")
    return loaded, data


def cmd_predict(opt: dict) -> int:
    loaded, X = _model_and_data(opt, "classify")
    model = loaded.model
    f = model.score(X)
    h = sign_pm1(f)
    prob = prob_positive(f, model.loss_kind)
    lines = (f"{i},{fi!r},{hi!r},{pi!r}" for i, (fi, hi, pi) in enumerate(_rows(f, h, prob)))
    _write_csv(opt["out"], ("row", "f", "H", "prob_positive"), lines)
    print(f"predictions for {X.shape[0]} rows written to {opt['out']}")
    return 0


def cmd_eval(opt: dict) -> int:
    loaded, ds = _model_and_data(opt, "classify", labeled=True)
    model = loaded.model

    f = model.score(ds.features)
    check_finite_scores(f)
    yf = ds.labels * f
    error = error_rate(f, ds.labels)
    exp_loss = float(np.sum(loss_values(yf, "exponential")))
    log_loss = float(np.sum(loss_values(yf, "logistic")))
    for name, value in (("exponential", exp_loss), ("logistic", log_loss)):
        if not math.isfinite(value):
            raise DataError(
                f"{opt['model']}: {name} loss on {opt['data']} is {value!r}; "
                "the model's scores are too large"
            )
    is_binary = all(s.is_binary for _, s in model.terms)
    chain = _bound_chain(opt, model, ds) if model.loss_kind == "exponential" and is_binary else None
    print(f"examples {ds.m}")
    print(f"error_rate {error!r}")
    print(f"exponential_loss {exp_loss!r}")
    print(f"logistic_loss {log_loss!r}")

    try:
        marg = normalized_margins(model, yf)
        counts, edges = np.histogram(np.clip(marg, -1.0, 1.0), bins=20, range=(-1.0, 1.0))
        print("margin_histogram bin_lo bin_hi count")
        for i in range(20):
            print(f"margin_bin {float(edges[i])!r} {float(edges[i + 1])!r} {int(counts[i])}")
    except DataError as exc:
        print(f"margins unavailable: {exc}")

    if chain is not None:
        report, stats = chain
        print("bound_chain round epsilon z prod_z prod_sqrt exp_bound train_error")
        for row, s in zip(report.rows, stats):
            print(
                f"bound_round {row.round} {s.epsilon!r} {s.z!r} {row.prod_z!r} "
                f"{row.prod_sqrt!r} {row.exp_bound!r} {row.train_error!r}"
            )
        print(f"bound_chain_ok {str(report.ok).lower()}")
    return 0


def _bound_chain(opt: dict, model, ds):
    """The bound chain of a binary-stump exponential model, replayed on ds.

    Replayed from a uniform distribution; a weight column is ignored. A
    normalizer of 0 or inf (scores that under- or overflow exp) is a
    DataError naming the model and data files.
    """
    rounds = RoundAccounting(np.ones(ds.m), ds.labels, "exponential")
    stats = []
    for t, (alpha, stump) in enumerate(model.terms, start=1):
        h = stump.evaluate_matrix(ds.features)
        epsilon = rounds.error(h)
        try:
            stats.append(rounds.stats(t, epsilon, rounds.step(h, alpha)))
        except InvariantError as exc:
            raise DataError(
                f"{opt['model']}: bound-chain replay on {opt['data']}, round {t}: {exc}; "
                "the model's scores are too large"
            ) from exc
    report = bound_report(stats)
    final = report.rows[-1]
    if final.train_error > final.prod_z * (1.0 + 1e-9) + 1e-12:
        raise InvariantError("error rate exceeds the normalizer product bound")
    return report, stats


def cmd_cde_train(opt: dict) -> int:
    ds = load_csv(opt["data"], label_column=opt["label_col"])
    cfg = _boost_config(opt, "logistic", default_stumps="confidence")
    k = opt["k"]
    model = density_mod.train_cde(ds, k, cfg)
    echo = _config_echo(
        [
            ("k", k),
            ("rounds", cfg.rounds),
            ("stumps", cfg.stumps.mode),
            ("alpha", cfg.alpha_strategy),
            ("smoothing", "auto" if cfg.stumps.smoothing is None else cfg.stumps.smoothing),
        ]
    )
    save_density(opt["out"], model, features=ds.d, seed=opt["seed"], config=echo)
    flagged = sum(model.constant_flags)
    print(f"density model with {model.k} breakpoints written to {opt['out']}")
    if flagged:
        print(f"constant_classifiers {flagged}")
    return 0


def cmd_cde_sample(opt: dict) -> int:
    loaded, X = _model_and_data(opt, "cde")
    rng = RngState(opt["seed"])
    values = density_mod.sample_rows(loaded.density, X, opt["n_samples"], rng)
    lines = (f"{i},{s},{value!r}" for i, (row,) in enumerate(_rows(values))
             for s, value in enumerate(row))
    _write_csv(opt["out"], ("row", "sample", "value"), lines)
    print(f"{values.size} samples written to {opt['out']}")
    return 0


def cmd_cde_quantile(opt: dict) -> int:
    loaded, X = _model_and_data(opt, "cde")
    values = density_mod.quantiles(loaded.density, X, opt["level"])
    lines = (f"{i},{value!r}" for i, (value,) in enumerate(_rows(values)))
    _write_csv(opt["out"], ("row", "value"), lines)
    print(f"quantiles written to {opt['out']}")
    return 0


def cmd_active(opt: dict) -> int:
    ds = _classification_csv(opt, "data", "active learning")
    if opt["test"]:
        test = _classification_csv(opt, "test", "active learning")
    else:
        ds, test = split(ds, opt["test_fraction"], RngState(opt["split_seed"]))
    cfg = _boost_config(opt, opt["loss"] or "exponential", default_stumps="confidence")

    strategy = opt["strategy"]
    strategies = ["uncertainty", "random"] if strategy == "both" else [strategy]
    results = []
    for strat in strategies:
        for seed in opt["seeds"]:
            acfg = active_mod.ActiveConfig(
                boost=cfg,
                init_batch=opt["init"],
                batch=opt["batch"],
                iterations=opt["iterations"],
                strategy=strat,
                seed=seed,
            )
            results.append(active_mod.simulate(ds, test, acfg))
    _write_csv(
        opt["out"], active_mod.CURVE_CSV_COLUMNS, map(",".join, active_mod.curve_csv_rows(results))
    )
    truncated = sum(r.truncated for r in results)
    print(f"learning curves written to {opt['out']}")
    if truncated:
        print(f"truncated_runs {truncated}")
    return 0


class _Command(NamedTuple):
    run: Callable[[dict], int]
    help: str
    keys: tuple[str, ...]  # besides _COMMON, in --help order


_COMMON = ("config", "label_col")
_COMMANDS = {
    "train": _Command(cmd_train, "train a boosted stump classifier", (
        "data", "test", "rounds", "loss", "stumps", "alpha", "smoothing", "seed", "out", "stats",
        "prior_col", "prior_rules", "eta")),
    "predict": _Command(cmd_predict, "score a dataset with a trained model", ("model", "data", "out")),
    "eval": _Command(cmd_eval, "error, losses, margins, bound chain", ("model", "data")),
    "cde train": _Command(cmd_cde_train, "train a density model", (
        "data", "k", "rounds", "stumps", "alpha", "smoothing", "seed", "out")),
    "cde sample": _Command(cmd_cde_sample, "draw from predicted distributions", (
        "model", "data", "n_samples", "seed", "out")),
    "cde quantile": _Command(cmd_cde_quantile, "invert predicted distributions", (
        "model", "data", "level", "out")),
    "active": _Command(cmd_active, "labeling-strategy simulation curves", (
        "data", "test", "test_fraction", "split_seed", "strategy", "init", "batch", "iterations",
        "seeds", "rounds", "loss", "stumps", "alpha", "smoothing", "out")),
}


def build_parser() -> _Parser:
    parser = _Parser(prog="boostkit", description=__doc__)
    groups = {"": parser.add_subparsers(dest="command", required=True)}
    for name, command in _COMMANDS.items():
        group, _, leaf = name.rpartition(" ")
        if group not in groups:  # cde, the one group of commands
            group_parser = groups[""].add_parser(group, help="conditional density estimation")
            groups[group] = group_parser.add_subparsers(dest=f"{group}_command", required=True)
        p = groups[group].add_parser(leaf, help=command.help)
        for key in _COMMON + command.keys:
            p.add_argument(_dashed(key), type=functools.partial(_parse, key), help=_help(key))
        p.set_defaults(handler=command)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.handler.run(_options(args, _COMMON + args.handler.keys))
    except OSError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except BoostkitError as exc:
        kind = {1: "usage error", 2: "data error"}.get(exc.exit_code, "internal error")
        print(f"{kind}: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
