"""Command-line surface: train, predict, eval, cde, active.

Every command is a pure function of its input files and flags: no clock,
no environment, no platform randomness. Outputs are CSV files or model
files written atomically. Exit codes: 0 success, 1 usage error, 2 data
error, 3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import sys

import numpy as np

from . import active as active_mod
from . import density as density_mod
from .boosting import (
    BoostConfig,
    RoundAccounting,
    bound_report,
    normalized_margins,
    sign_pm1,
    stats_csv_rows,
    train,
    STATS_CSV_COLUMNS,
)
from .boosting import update_distribution  # noqa: F401  the benchmark tracer patches it here
from .config import load_config
from .data import load_csv, load_features_csv
from .errors import BoostkitError, DataError, InvariantError, UsageError
from .losses import check_finite_scores, loss_values, prob_positive
from .model_io import (
    LoadedModel,
    atomic_write_text,
    load_model,
    save_classifier,
    save_density,
)
from .prior import PriorConfig, load_rule_table, train_with_prior
from .rng import RngState
from .stumps import StumpSearchConfig

_LOSS_FLAG = {"exp": "exponential", "logistic": "logistic"}
_ALPHA_FLAG = {
    "auto": "auto",
    "closed-form": "closed_form_binary",
    "line-search": "line_search",
    "unit": "unit",
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit 2; we own the exit codes
        raise UsageError(message)


def _write_csv(path: str, header, rows) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    atomic_write_text(path, buf.getvalue())


class _Options:
    """Flags layered over an optional config file, flags winning."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.cfg = load_config(args.config) if getattr(args, "config", None) else {}

    def get(self, key: str, cast=str, default=None, required: bool = False):
        flag = getattr(self.args, key, None)
        if flag is not None:
            return flag
        if key in self.cfg:
            try:
                return cast(self.cfg[key])
            except ValueError:
                raise UsageError(f"config key {key!r}: bad value {self.cfg[key]!r}") from None
        if required and default is None:
            raise UsageError(f"missing required option --{key.replace('_', '-')}")
        return default


def _boost_config(opt: _Options, default_loss: str, default_stumps: str) -> BoostConfig:
    loss_flag = opt.get("loss", str, default_loss)
    if loss_flag not in _LOSS_FLAG:
        raise UsageError(f"--loss must be one of {sorted(_LOSS_FLAG)}")
    stump_mode = opt.get("stumps", str, default_stumps)
    alpha_flag = opt.get("alpha", str, "auto")
    if alpha_flag not in _ALPHA_FLAG:
        raise UsageError(f"--alpha must be one of {sorted(_ALPHA_FLAG)}")
    smoothing = opt.get("smoothing", float)
    return BoostConfig(
        rounds=opt.get("rounds", int, required=True),
        loss_kind=_LOSS_FLAG[loss_flag],
        stumps=StumpSearchConfig(mode=stump_mode, smoothing=smoothing),
        alpha_strategy=_ALPHA_FLAG[alpha_flag],
    )


def _config_echo(pairs: list[tuple[str, object]]) -> str:
    return ";".join(f"{k}={v}" for k, v in pairs)


def cmd_train(args: argparse.Namespace) -> int:
    opt = _Options(args)
    label_col = opt.get("label_col", str, "label")
    prior_col = opt.get("prior_col", str)
    prior_rules = opt.get("prior_rules", str)
    eta = opt.get("eta", float)
    if eta is not None and prior_col is None and prior_rules is None:
        raise UsageError("--eta requires --prior-col or --prior-rules")
    if eta is None and (prior_col is not None or prior_rules is not None):
        raise UsageError("--prior-col/--prior-rules require --eta (it has no default)")
    if eta is not None and not 0.0 <= eta < math.inf:
        raise UsageError(f"--eta must be finite and nonnegative, got {eta!r}")

    default_loss = "logistic" if eta is not None else "exp"
    cfg = _boost_config(opt, default_loss=default_loss, default_stumps="binary")
    if eta is not None and cfg.loss_kind != "logistic":
        raise UsageError("training with a prior requires --loss logistic")

    data_path = opt.get("data", str, required=True)
    out_path = opt.get("out", str, required=True)
    seed = opt.get("seed", int, 0)
    ds = load_csv(data_path, label_column=label_col, prior_column=prior_col)
    test_path = opt.get("test", str)
    eval_ds = load_csv(test_path, label_column=label_col) if test_path else None

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

    save_classifier(out_path, model, features=ds.d, seed=seed, config=echo)
    stats_path = opt.get("stats", str, out_path + ".stats.csv")
    _write_csv(stats_path, STATS_CSV_COLUMNS, stats_csv_rows(stats))
    last = stats[-1]
    print(f"trained {model.rounds} rounds; final train_error {last.train_error!r}")
    print(f"model written to {out_path}; stats to {stats_path}")
    return 0


def _load_classifier(path: str) -> LoadedModel:
    loaded = load_model(path)
    if loaded.mode != "classify":
        raise DataError(f"{path}: is a density model; use the cde commands")
    return loaded


def _check_features(X: np.ndarray, loaded: LoadedModel) -> None:
    if X.shape[1] != loaded.features:
        raise DataError(f"expected {loaded.features} features, got {X.shape[1]}")


def cmd_predict(args: argparse.Namespace) -> int:
    opt = _Options(args)
    loaded = _load_classifier(opt.get("model", str, required=True))
    label_col = opt.get("label_col", str, "label")
    X = load_features_csv(opt.get("data", str, required=True), label_column=label_col)
    _check_features(X, loaded)
    model = loaded.model
    f = model.score(X)
    h = sign_pm1(f)
    prob = prob_positive(f, model.loss_kind)
    rows = [
        [str(i), repr(float(f[i])), repr(float(h[i])), repr(float(prob[i]))]
        for i in range(X.shape[0])
    ]
    out_path = opt.get("out", str, required=True)
    _write_csv(out_path, ("row", "f", "H", "prob_positive"), rows)
    print(f"predictions for {X.shape[0]} rows written to {out_path}")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    opt = _Options(args)
    loaded = _load_classifier(opt.get("model", str, required=True))
    label_col = opt.get("label_col", str, "label")
    ds = load_csv(opt.get("data", str, required=True), label_column=label_col)
    if not ds.is_classification:
        raise DataError("eval requires classification labels")
    _check_features(ds.features, loaded)
    model = loaded.model

    f = model.score(ds.features)
    check_finite_scores(f)
    yf = ds.labels * f
    error = float(np.mean(sign_pm1(f) != ds.labels))
    print(f"examples {ds.m}")
    print(f"error_rate {error!r}")
    print(f"exponential_loss {float(np.sum(loss_values(yf, 'exponential')))!r}")
    print(f"logistic_loss {float(np.sum(loss_values(yf, 'logistic1')))!r}")

    try:
        marg = normalized_margins(model, yf)
        counts, edges = np.histogram(np.clip(marg, -1.0, 1.0), bins=20, range=(-1.0, 1.0))
        print("margin_histogram bin_lo bin_hi count")
        for i in range(20):
            print(f"margin_bin {float(edges[i])!r} {float(edges[i + 1])!r} {int(counts[i])}")
    except DataError as exc:
        print(f"margins unavailable: {exc}")

    is_binary = all(s.is_binary for _, s in model.terms)
    if model.loss_kind == "exponential" and is_binary:
        # replayed from a uniform distribution; a weight column is ignored
        rounds = RoundAccounting(np.ones(ds.m), ds.labels, "exponential")
        stats = []
        for t, (alpha, stump) in enumerate(model.terms, start=1):
            h = stump.evaluate_matrix(ds.features)
            stats.append(rounds.add(t, h, alpha, rounds.error(h)))
        report = bound_report(stats)
        print("bound_chain round epsilon z prod_z prod_sqrt exp_bound train_error")
        for row, s in zip(report.rows, stats):
            print(
                f"bound_round {row.round} {s.epsilon!r} {s.z!r} {row.prod_z!r} "
                f"{row.prod_sqrt!r} {row.exp_bound!r} {row.train_error!r}"
            )
        final = report.rows[-1]
        if final.train_error > final.prod_z * (1.0 + 1e-9) + 1e-12:
            raise InvariantError("error rate exceeds the normalizer product bound")
        print(f"bound_chain_ok {str(report.ok).lower()}")
    return 0


def cmd_cde_train(args: argparse.Namespace) -> int:
    opt = _Options(args)
    ds = load_csv(opt.get("data", str, required=True), label_column=opt.get("label_col", str, "label"))
    cfg = _boost_config(opt, default_loss="logistic", default_stumps="confidence")
    k = opt.get("k", int, required=True)
    seed = opt.get("seed", int, 0)
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
    out_path = opt.get("out", str, required=True)
    save_density(out_path, model, features=ds.d, seed=seed, config=echo)
    flagged = sum(model.constant_flags)
    print(f"density model with {model.k} breakpoints written to {out_path}")
    if flagged:
        print(f"constant_classifiers {flagged}")
    return 0


def _load_density(path: str):
    loaded = load_model(path)
    if loaded.mode != "cde":
        raise DataError(f"{path}: is a classifier model; use train/predict/eval")
    return loaded


def cmd_cde_sample(args: argparse.Namespace) -> int:
    opt = _Options(args)
    loaded = _load_density(opt.get("model", str, required=True))
    X = load_features_csv(opt.get("data", str, required=True), label_column=opt.get("label_col", str, "label"))
    _check_features(X, loaded)
    n = opt.get("n_samples", int, 1)
    if n < 1:
        raise UsageError("--n-samples must be >= 1")
    rng = RngState(opt.get("seed", int, 0))
    values = density_mod.sample_rows(loaded.density, X, n, rng).tolist()
    rows = [
        [str(i), str(s), repr(value)]
        for i, row in enumerate(values)
        for s, value in enumerate(row)
    ]
    out_path = opt.get("out", str, required=True)
    _write_csv(out_path, ("row", "sample", "value"), rows)
    print(f"{len(rows)} samples written to {out_path}")
    return 0


def cmd_cde_quantile(args: argparse.Namespace) -> int:
    opt = _Options(args)
    level = opt.get("level", float, required=True)
    if not 0.0 < level < 1.0:
        raise UsageError(f"--level must be in (0, 1), got {level!r}")
    loaded = _load_density(opt.get("model", str, required=True))
    X = load_features_csv(opt.get("data", str, required=True), label_column=opt.get("label_col", str, "label"))
    _check_features(X, loaded)
    values = density_mod.quantiles(loaded.density, X, level).tolist()
    rows = [[str(i), repr(value)] for i, value in enumerate(values)]
    out_path = opt.get("out", str, required=True)
    _write_csv(out_path, ("row", "value"), rows)
    print(f"quantiles written to {out_path}")
    return 0


def cmd_active(args: argparse.Namespace) -> int:
    opt = _Options(args)
    ds = load_csv(opt.get("data", str, required=True), label_column=opt.get("label_col", str, "label"))
    test_path = opt.get("test", str)
    if test_path:
        test = load_csv(test_path, label_column=opt.get("label_col", str, "label"))
    else:
        from .data import split

        fraction = opt.get("test_fraction", float, 0.3)
        ds, test = split(ds, fraction, RngState(opt.get("split_seed", int, 0)))
    cfg = _boost_config(opt, default_loss="exp", default_stumps="confidence")

    strategy = opt.get("strategy", str, "both")
    if strategy not in ("uncertainty", "random", "both"):
        raise UsageError("--strategy must be uncertainty, random, or both")
    strategies = ["uncertainty", "random"] if strategy == "both" else [strategy]
    seeds_text = opt.get("seeds", str, "0")
    try:
        seeds = [int(s) for s in str(seeds_text).split(",") if s.strip() != ""]
    except ValueError:
        raise UsageError(f"--seeds must be a comma-separated integer list, got {seeds_text!r}") from None
    if not seeds:
        raise UsageError("--seeds must name at least one seed")

    results = []
    for strat in strategies:
        for seed in seeds:
            acfg = active_mod.ActiveConfig(
                boost=cfg,
                init_batch=opt.get("init", int, 500),
                batch=opt.get("batch", int, 200),
                iterations=opt.get("iterations", int, 10),
                strategy=strat,
                seed=seed,
            )
            results.append(active_mod.simulate(ds, test, acfg))
    out_path = opt.get("out", str, required=True)
    _write_csv(out_path, active_mod.CURVE_CSV_COLUMNS, active_mod.curve_csv_rows(results))
    truncated = sum(r.truncated for r in results)
    print(f"learning curves written to {out_path}")
    if truncated:
        print(f"truncated_runs {truncated}")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="boostkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="key=value config file; flags override")
        p.add_argument("--label-col", dest="label_col", help="label column name (default: label)")

    p_train = sub.add_parser("train", help="train a boosted stump classifier")
    add_common(p_train)
    p_train.add_argument("--data", help="training CSV")
    p_train.add_argument("--test", help="held-out CSV for per-round test error")
    p_train.add_argument("--rounds", type=int, help="number of boosting rounds")
    p_train.add_argument("--loss", choices=("exp", "logistic"), help="training loss")
    p_train.add_argument("--stumps", choices=("binary", "confidence"), help="base learner outputs")
    p_train.add_argument("--alpha", choices=tuple(_ALPHA_FLAG), help="vote-weight strategy")
    p_train.add_argument("--smoothing", type=float, help="confidence smoothing (default 1/(2m))")
    p_train.add_argument("--seed", type=int, help="provenance seed recorded in the model")
    p_train.add_argument("--out", help="model file to write")
    p_train.add_argument("--stats", help="round-stats CSV (default: <out>.stats.csv)")
    p_train.add_argument("--prior-col", dest="prior_col", help="prior probability column")
    p_train.add_argument("--prior-rules", dest="prior_rules", help="prior rule-table file")
    p_train.add_argument("--eta", type=float, help="prior strength (required with a prior; no default)")
    p_train.set_defaults(func=cmd_train)

    p_pred = sub.add_parser("predict", help="score a dataset with a trained model")
    add_common(p_pred)
    p_pred.add_argument("--model", help="model file")
    p_pred.add_argument("--data", help="CSV of feature rows (label column optional)")
    p_pred.add_argument("--out", help="predictions CSV")
    p_pred.set_defaults(func=cmd_predict)

    p_eval = sub.add_parser("eval", help="error, losses, margins, bound chain")
    add_common(p_eval)
    p_eval.add_argument("--model", help="model file")
    p_eval.add_argument("--data", help="labeled CSV")
    p_eval.set_defaults(func=cmd_eval)

    p_cde = sub.add_parser("cde", help="conditional density estimation")
    cde_sub = p_cde.add_subparsers(dest="cde_command", required=True)

    p_ct = cde_sub.add_parser("train", help="train a density model")
    add_common(p_ct)
    p_ct.add_argument("--data", help="regression CSV")
    p_ct.add_argument("--k", type=int, help="number of breakpoints")
    p_ct.add_argument("--rounds", type=int, help="boosting rounds per breakpoint")
    p_ct.add_argument("--stumps", choices=("binary", "confidence"))
    p_ct.add_argument("--alpha", choices=tuple(_ALPHA_FLAG))
    p_ct.add_argument("--smoothing", type=float)
    p_ct.add_argument("--seed", type=int)
    p_ct.add_argument("--out", help="model file to write")
    p_ct.set_defaults(func=cmd_cde_train)

    p_cs = cde_sub.add_parser("sample", help="draw from predicted distributions")
    add_common(p_cs)
    p_cs.add_argument("--model")
    p_cs.add_argument("--data")
    p_cs.add_argument("--n-samples", dest="n_samples", type=int, help="draws per row (default 1)")
    p_cs.add_argument("--seed", type=int)
    p_cs.add_argument("--out")
    p_cs.set_defaults(func=cmd_cde_sample)

    p_cq = cde_sub.add_parser("quantile", help="invert predicted distributions")
    add_common(p_cq)
    p_cq.add_argument("--model")
    p_cq.add_argument("--data")
    p_cq.add_argument("--level", type=float, help="quantile level in (0,1)")
    p_cq.add_argument("--out")
    p_cq.set_defaults(func=cmd_cde_quantile)

    p_act = sub.add_parser("active", help="labeling-strategy simulation curves")
    add_common(p_act)
    p_act.add_argument("--data", help="fully labeled pool CSV")
    p_act.add_argument("--test", help="held-out CSV (or use --test-fraction)")
    p_act.add_argument("--test-fraction", dest="test_fraction", type=float)
    p_act.add_argument("--split-seed", dest="split_seed", type=int)
    p_act.add_argument("--strategy", choices=("uncertainty", "random", "both"))
    p_act.add_argument("--init", type=int, help="initial random batch (default 500)")
    p_act.add_argument("--batch", type=int, help="per-iteration batch (default 200)")
    p_act.add_argument("--iterations", type=int)
    p_act.add_argument("--seeds", help="comma-separated seed list (default 0)")
    p_act.add_argument("--rounds", type=int, help="boosting rounds per retrain")
    p_act.add_argument("--loss", choices=("exp", "logistic"))
    p_act.add_argument("--stumps", choices=("binary", "confidence"))
    p_act.add_argument("--alpha", choices=tuple(_ALPHA_FLAG))
    p_act.add_argument("--smoothing", type=float)
    p_act.add_argument("--out", help="curve CSV")
    p_act.set_defaults(func=cmd_active)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except BoostkitError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
