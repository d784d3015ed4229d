"""Seeded workloads for the boostkit benchmark: inputs, CLI ops and output checks.

Every workload is a pure function of its seed and its size: the same seed
and size always give byte-identical CSV files. The program under test only
ever sees those files and the flags of each op.

Why these three workloads (each stresses a different layer):

- ``clf-20k``: stump search at large m and moderate d, the logistic line
  search on 20k rows, the prior path's tripled 60k-row set, and CSV parsing
  of 120k+ rows. Density and active learning stay idle.
- ``cde-5k``: the Newton line search dominates training, stump search runs
  at small d, and the query commands score one row at a time. No bulk CSV
  parsing and no batch scoring.
- ``active-word``: 44 from-scratch retrains at m=100..350 with d=50 binary
  features (few thresholds per feature), plus batch scoring of the pool.
  No line search and no per-row scoring.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

# Noise scale of the clf label rule. Its Bayes error is arctan(0.5)/pi ~ 0.148;
# the held-out error bound the checks apply is in reference.json.
CLF_NOISE = 0.5

# Relative tolerance on eval's printed bound-chain products: far above the
# last-bit changes of a reordered product over 100 rounds, far below any
# change in epsilon or z a defect would make.
PRODUCT_RTOL = 1e-12


@dataclass(frozen=True)
class ClfSize:
    m: int = 20_000
    holdout: int = 100_000
    d: int = 20
    rounds: int = 100


@dataclass(frozen=True)
class CdeSize:
    m: int = 5_000
    d: int = 4
    k: int = 10
    rounds: int = 100
    query_rows: int = 200
    draws: int = 2
    level: float = 0.9


@dataclass(frozen=True)
class ActiveSize:
    pool: int = 10_000
    test: int = 2_000
    init: int = 100
    batch: int = 25
    iterations: int = 10
    seeds: tuple[int, ...] = (0, 1)
    rounds: int = 60


@dataclass
class OpResult:
    """What one successful CLI call left behind, handed to that op's check."""

    stdout: str
    workdir: str


@dataclass(frozen=True)
class Op:
    """One CLI call. ``metric`` is its end-to-end metric name: a time in
    seconds, or, when ``items`` is set, items per second."""

    metric: str
    argv: tuple[str, ...]
    trains: bool
    artifacts: tuple[str, ...]
    check: Callable[[OpResult], list[str]]
    items: int | None = None
    stdout_is_artifact: bool = False


@dataclass
class Workload:
    name: str
    size: object
    # (seed, size) -> {file name: (header, columns)}; pure.
    generate: Callable[[int, object], dict]
    # (workdir, size, reference) -> ops in run order.
    ops: Callable[[str, object, dict], list[Op]]


# --------------------------------------------------------------------------
# CSV files

# A generator returns {file name: (header, columns)}; write_inputs streams
# each table to disk in chunks so set-up memory stays below the CLI's own.
CHUNK_ROWS = 1_000


def write_table(path: str, header: list[str], columns: list[np.ndarray]) -> None:
    """CSV with shortest round-trip floats, so the reader recovers every bit."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for lo in range(0, len(columns[0]), CHUNK_ROWS):
            rows = zip(*(c[lo:lo + CHUNK_ROWS].tolist() for c in columns))
            fh.write("".join(",".join(map(repr, row)) + "\n" for row in rows))


def write_inputs(workload: "Workload", seed: int, workdir: str) -> list[str]:
    names = []
    for name, (header, columns) in workload.generate(seed, workload.size).items():
        write_table(os.path.join(workdir, name), header, columns)
        names.append(name)
    return names


def _feature_names(d: int) -> list[str]:
    return [f"x{j}" for j in range(d)]


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([stream, seed])


# --------------------------------------------------------------------------
# clf-20k


def clf_arrays(seed: int, size: ClfSize):
    """Gaussian features, a noisy linear label, and a prior column on the
    training rows that is the sigmoid of a rule on the strongest feature."""
    rng = _rng(seed, 1)
    w = rng.normal(size=size.d)
    w /= np.linalg.norm(w)
    strongest = int(np.argmax(np.abs(w)))

    def draw(n):
        X = rng.normal(size=(n, size.d))
        y = np.where(X @ w + CLF_NOISE * rng.normal(size=n) >= 0.0, 1.0, -1.0)
        return X, y

    X, y = draw(size.m)
    prior = 1.0 / (1.0 + np.exp(-2.0 * np.sign(w[strongest]) * X[:, strongest]))
    Xh, yh = draw(size.holdout)
    return X, y, prior, Xh, yh


def clf_generate(seed: int, size: ClfSize) -> dict:
    X, y, prior, Xh, yh = clf_arrays(seed, size)
    names = _feature_names(size.d)
    return {
        "train.csv": (names + ["label", "prior"], [*X.T, y, prior]),
        "holdout.csv": (names + ["label"], [*Xh.T, yh]),
    }


def clf_ops(workdir: str, size: ClfSize, reference: dict) -> list[Op]:
    p = lambda name: os.path.join(workdir, name)  # noqa: E731
    error_bound = reference["clf_holdout_error_bound"]
    train = ("train", "--data", p("train.csv"), "--rounds", str(size.rounds))

    def train_op(metric, model, flags):
        return Op(
            metric,
            train + flags + ("--out", p(model)),
            trains=True,
            artifacts=(model, model + ".stats.csv"),
            check=lambda r: check_model(r, model, size.rounds),
        )

    return [
        train_op("train_exp_binary_s", "exp_binary.txt",
                 ("--loss", "exp", "--stumps", "binary", "--seed", "0")),
        train_op("train_logistic_confidence_s", "logistic_confidence.txt",
                 ("--loss", "logistic", "--stumps", "confidence")),
        train_op("train_prior_s", "prior.txt",
                 ("--loss", "logistic", "--stumps", "confidence",
                  "--prior-col", "prior", "--eta", "2")),
        Op(
            "predict_rows_per_s",
            ("predict", "--model", p("exp_binary.txt"), "--data", p("holdout.csv"),
             "--out", p("pred.csv")),
            trains=False,
            artifacts=("pred.csv",),
            check=lambda r: check_predictions(r, size.holdout, error_bound),
            items=size.holdout,
        ),
        Op(
            "eval_s",
            ("eval", "--model", p("exp_binary.txt"), "--data", p("holdout.csv")),
            trains=False,
            artifacts=(),
            check=lambda r: check_eval(r, size.holdout, size.rounds, error_bound),
            stdout_is_artifact=True,
        ),
    ]


# --------------------------------------------------------------------------
# cde-5k


def cde_arrays(seed: int, size: CdeSize):
    """y = x0 + noise whose scale grows with |x1|; queries from the same x law."""
    rng = _rng(seed, 2)
    X = rng.uniform(-1.0, 1.0, size=(size.m, size.d))
    scale = 0.1 + 0.5 * np.abs(X[:, min(1, size.d - 1)])
    y = X[:, 0] + scale * rng.normal(size=size.m)
    Q = rng.uniform(-1.0, 1.0, size=(size.query_rows, size.d))
    return X, y, Q


def cde_generate(seed: int, size: CdeSize) -> dict:
    X, y, Q = cde_arrays(seed, size)
    names = _feature_names(size.d)
    return {
        "cde_train.csv": (names + ["label"], [*X.T, y]),
        "cde_query.csv": (names, list(Q.T)),
    }


def cde_ops(workdir: str, size: CdeSize, reference: dict) -> list[Op]:
    p = lambda name: os.path.join(workdir, name)  # noqa: E731
    model = p("cde.txt")
    return [
        Op(
            "cde_train_s",
            ("cde", "train", "--data", p("cde_train.csv"), "--k", str(size.k),
             "--rounds", str(size.rounds), "--out", model),
            trains=True,
            artifacts=("cde.txt",),
            check=lambda r: check_density_model(r, "cde.txt", size.k, size.rounds),
        ),
        Op(
            "cde_sample_draws_per_s",
            ("cde", "sample", "--model", model, "--data", p("cde_query.csv"),
             "--n-samples", str(size.draws), "--seed", "1", "--out", p("samples.csv")),
            trains=False,
            artifacts=("samples.csv",),
            check=lambda r: check_density_values(r, "samples.csv", size.query_rows * size.draws),
            items=size.query_rows * size.draws,
        ),
        Op(
            "cde_quantile_rows_per_s",
            ("cde", "quantile", "--model", model, "--data", p("cde_query.csv"),
             "--level", repr(size.level), "--out", p("quantiles.csv")),
            trains=False,
            artifacts=("quantiles.csv",),
            check=lambda r: check_density_values(r, "quantiles.csv", size.query_rows),
            items=size.query_rows,
        ),
    ]


# --------------------------------------------------------------------------
# active-word


def word_arrays(seed: int, size: ActiveSize, k_inf=30, p_inf=0.08, d_noise=20, threshold=0.5):
    """Rare-indicative-word pool: 0/1 features, 30 rare words with +-1 votes
    and 20 noise words; the label is whether the vote sum exceeds 0.5.
    Ambiguous documents are scarce, which is where querying by low |f| pays."""
    rng = _rng(seed, 3)
    d = k_inf + d_noise
    p = np.concatenate([np.full(k_inf, p_inf), rng.uniform(0.05, 0.3, size=d_noise)])
    w = np.concatenate([rng.choice([-1.0, 1.0], size=k_inf), np.zeros(d_noise)])
    perm = rng.permutation(d)
    p, w = p[perm], w[perm]

    def draw(n):
        X = (rng.uniform(size=(n, d)) < p).astype(float)
        return X, np.where(X @ w > threshold, 1.0, -1.0)

    Xp, yp = draw(size.pool)
    Xt, yt = draw(size.test)
    return Xp, yp, Xt, yt


def word_generate(seed: int, size: ActiveSize) -> dict:
    Xp, yp, Xt, yt = word_arrays(seed, size)
    names = _feature_names(Xp.shape[1])
    return {
        "pool.csv": (names + ["label"], [*Xp.T, yp]),
        "test.csv": (names + ["label"], [*Xt.T, yt]),
    }


def word_ops(workdir: str, size: ActiveSize, reference: dict) -> list[Op]:
    p = lambda name: os.path.join(workdir, name)  # noqa: E731
    return [
        Op(
            "active_s",
            ("active", "--data", p("pool.csv"), "--test", p("test.csv"),
             "--strategy", "both", "--init", str(size.init), "--batch", str(size.batch),
             "--iterations", str(size.iterations), "--seeds", ",".join(map(str, size.seeds)),
             "--rounds", str(size.rounds), "--out", p("curves.csv")),
            trains=True,
            artifacts=("curves.csv",),
            check=lambda r: check_curves(r, size),
        )
    ]


WORKLOADS = {
    "clf-20k": Workload("clf-20k", ClfSize(), clf_generate, clf_ops),
    "cde-5k": Workload("cde-5k", CdeSize(), cde_generate, cde_ops),
    "active-word": Workload("active-word", ActiveSize(), word_generate, word_ops),
}


# --------------------------------------------------------------------------
# Output checks. Each returns the list of problems found; empty means the
# op's outputs are correct. They read the artifacts as text, without the
# library, so a defect in the library cannot hide itself.


def _read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def _floats(rows: list[list[str]], col: int) -> list[float]:
    return [float(r[col]) for r in rows]


def _all_finite(values) -> bool:
    return all(math.isfinite(v) for v in values)


def check_model(r: OpResult, model: str, rounds: int) -> list[str]:
    problems = []
    with open(os.path.join(r.workdir, model), encoding="utf-8") as fh:
        terms = [ln.split() for ln in fh if ln.startswith("term ")]
    if len(terms) != rounds:
        problems.append(f"{model}: {len(terms)} terms, expected {rounds}")
    if not _all_finite(float(v) for t in terms for v in t[2:]):
        problems.append(f"{model}: non-finite term value")
    _, stats = _read_csv(os.path.join(r.workdir, model + ".stats.csv"))
    if len(stats) != rounds:
        problems.append(f"{model}.stats.csv: {len(stats)} rows, expected {rounds}")
    return problems


def check_predictions(r: OpResult, rows_expected: int, error_bound: float) -> list[str]:
    """Reads pred.csv and holdout.csv in lockstep, one line at a time, so the
    check holds a few rows in memory rather than both files; its memory then
    stays well below the CLI's own and ``peak_rss_mb`` measures the CLI."""
    with open(os.path.join(r.workdir, "pred.csv"), encoding="utf-8") as pred, \
            open(os.path.join(r.workdir, "holdout.csv"), encoding="utf-8") as holdout:
        header = pred.readline().rstrip("\n").split(",")
        if header != ["row", "f", "H", "prob_positive"]:
            return [f"pred.csv: header {header}"]
        label_col = holdout.readline().rstrip("\n").split(",").index("label")
        rows = errors = 0
        finite = in_range = True
        for line in pred:
            truth = next(holdout, None)
            if truth is None:
                return [f"pred.csv: more rows than holdout.csv's {rows}"]
            _, f, h, prob = map(float, line.split(","))
            rows += 1
            errors += h != float(truth.split(",")[label_col])
            finite = finite and math.isfinite(f) and math.isfinite(prob)
            in_range = in_range and h in (-1.0, 1.0) and 0.0 <= prob <= 1.0
    if rows != rows_expected:
        return [f"pred.csv: {rows} rows, expected {rows_expected}"]
    problems = []
    if not finite:
        problems.append("pred.csv: non-finite score or probability")
    if not in_range:
        problems.append("pred.csv: H outside {-1,1} or prob outside [0,1]")
    error = errors / rows
    if not error < error_bound:
        problems.append(f"pred.csv: held-out error {error!r} not below {error_bound!r}")
    return problems


def check_eval(r: OpResult, rows_expected: int, rounds: int, error_bound: float) -> list[str]:
    """Error, then the bound chain recomputed from eval's own printed rounds.

    The products are compared within PRODUCT_RTOL, not bit for bit, so that a
    change in the order of eval's arithmetic is not a failed op; whether the
    bits changed is what the digests and ``outputs_identical`` report.

    On held-out rows only train_error <= prod_z is a theorem; prod_z <=
    exp(-2 sum gamma^2) holds on the training rows but may fail on others, so
    the check is that eval's verdict agrees with its numbers, not that the
    verdict is true.
    """
    lines = r.stdout.splitlines()
    fields = dict(ln.split(" ", 1) for ln in lines if " " in ln)
    problems = []
    if fields.get("examples") != str(rows_expected):
        problems.append(f"eval: examples {fields.get('examples')!r}, expected {rows_expected}")
    error = float(fields.get("error_rate", "nan"))
    if not error < error_bound:
        problems.append(f"eval: error_rate {error!r} not below {error_bound!r}")
    chain = [ln.split()[1:] for ln in lines if ln.startswith("bound_round ")]
    if [int(c[0]) for c in chain] != list(range(1, rounds + 1)):
        return problems + [f"eval: {len(chain)} bound_round lines, expected {rounds}"]
    prod_z = prod_sqrt = 1.0
    gamma_sq = 0.0
    ok = True
    for t, eps, z, p_z, p_sqrt, e_bound, train_error in (
        (c[0], *map(float, c[1:])) for c in chain
    ):
        prod_z *= z
        prod_sqrt *= 2.0 * math.sqrt(max(eps * (1.0 - eps), 0.0))
        gamma = 0.5 - eps
        gamma_sq += gamma * gamma
        expected = (prod_z, prod_sqrt, math.exp(-2.0 * gamma_sq))
        if not all(math.isclose(a, b, rel_tol=PRODUCT_RTOL)
                   for a, b in zip((p_z, p_sqrt, e_bound), expected)):
            problems.append(f"eval: round {t}: products disagree with epsilon and z")
        tol = 1e-9 * max(1.0, p_z)
        if train_error > p_z + tol:
            problems.append(f"eval: round {t}: error {train_error!r} above prod_z {p_z!r}")
        ok = ok and train_error <= p_z + tol and p_z <= e_bound + tol
    if fields.get("bound_chain_ok") != str(ok).lower():
        problems.append(f"eval: bound_chain_ok {fields.get('bound_chain_ok')!r} disagrees with its rows")
    if chain[-1][-1] != repr(error):
        problems.append(f"eval: final replay error {chain[-1][-1]} != error_rate {error!r}")
    return problems


def model_support(path: str) -> tuple[float, float]:
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("support "):
                lo, hi = line.split()[1:3]
                return float(lo), float(hi)
    raise ValueError(f"{path}: no support line")


def check_density_model(r: OpResult, model: str, k: int, rounds: int) -> list[str]:
    path = os.path.join(r.workdir, model)
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    problems = []
    if "mode cde" not in lines or f"breakpoints {k}" not in lines:
        problems.append(f"{model}: not a cde model with {k} breakpoints")
    blocks = [ln for ln in lines if ln.startswith("classifier ")]
    terms = [ln.split() for ln in lines if ln.startswith("term ")]
    constant = sum(ln.endswith("constant 1") for ln in blocks)
    if len(blocks) != k or len(terms) != (k - constant) * rounds + constant:
        problems.append(f"{model}: {len(blocks)} classifiers with {len(terms)} terms")
    if not _all_finite(float(v) for t in terms for v in t[2:]):
        problems.append(f"{model}: non-finite term value")
    lo, hi = model_support(path)
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        problems.append(f"{model}: support [{lo!r}, {hi!r}]")
    return problems


def check_density_values(r: OpResult, name: str, rows_expected: int) -> list[str]:
    _, rows = _read_csv(os.path.join(r.workdir, name))
    if len(rows) != rows_expected:
        return [f"{name}: {len(rows)} rows, expected {rows_expected}"]
    values = _floats(rows, len(rows[0]) - 1)
    if not _all_finite(values):
        return [f"{name}: non-finite value"]
    lo, hi = model_support(os.path.join(r.workdir, "cde.txt"))
    outside = [v for v in values if not lo <= v <= hi]
    if outside:
        return [f"{name}: {len(outside)} values outside the support [{lo!r}, {hi!r}]"]
    return []


def check_curves(r: OpResult, size: ActiveSize) -> list[str]:
    header, rows = _read_csv(os.path.join(r.workdir, "curves.csv"))
    points = size.iterations + 1
    expected = 2 * len(size.seeds) * points
    if len(rows) != expected:
        return [f"curves.csv: {len(rows)} rows, expected {expected}"]
    problems = []
    used = [int(row[header.index("labels_used")]) for row in rows]
    want = [size.init + (i % points) * size.batch for i in range(expected)]
    if used != want:
        problems.append("curves.csv: labels_used does not step by the batch size")
    errors = _floats(rows, header.index("test_error"))
    if not all(0.0 <= e <= 1.0 for e in errors):
        problems.append("curves.csv: test_error outside [0, 1]")
    return problems
