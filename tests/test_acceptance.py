"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; plain `pytest` runs them silently. Every tolerance is pinned here.
"""

import math
import time

import numpy as np
import pytest

from boostkit.active import ActiveConfig, Pool, simulate
from boostkit.boosting import (
    BoostConfig,
    alpha_binary,
    sign_pm1,
    train,
    update_distribution,
)
from boostkit.cli import main
from boostkit.data import normalized
from boostkit.density import (
    Breakpoints,
    distribution_from_scores,
    sample,
    survival_probabilities,
    train_cde,
)
from boostkit.losses import log1pexp, loss_values
from boostkit.model_io import load_model, save_classifier
from boostkit.prior import PriorConfig, augment_with_prior, prior_objective, train_with_prior
from boostkit.rng import RngState
from boostkit.stumps import StumpSearchConfig

from conftest import dataset, save_csv, xor_task
from oracles import common_minimizer_check, logistic_weights, taylor_match_check

SQRT3_OVER_2 = 0.8660254037844386


def report(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:02d} {status} - {detail}")
    assert ok, f"criterion {number}: {detail}"


def binary_cfg(rounds):
    return BoostConfig(rounds=rounds, loss_kind="exponential",
                       stumps=StumpSearchConfig(mode="binary"))


def random_runs(count=200, seed_base=11000):
    """Exponential-loss binary-stump runs with no clamped rounds.

    Datasets where some round reaches zero weighted error (and the vote
    weight would be infinite) are skipped: the product identities assume
    every round error is strictly inside (0, 1).
    """
    runs = []
    seed = seed_base
    while len(runs) < count:
        rng = np.random.default_rng(seed)
        seed += 1
        m = int(rng.integers(10, 51))
        d = int(rng.integers(1, 6))
        T = int(rng.integers(2, 21))
        X = rng.uniform(-1, 1, size=(m, d))
        y = rng.choice([-1.0, 1.0], size=m)
        ds = dataset(X, y)
        model, stats = train(ds, binary_cfg(T))
        if any(s.clamped for s in stats):
            continue
        runs.append((ds, model, stats))
    return runs


@pytest.fixture(scope="module")
def property_runs():
    return random_runs()


def test_criterion_01_exponential_loss_identity(property_runs):
    start = time.time()
    worst_rel = 0.0
    bound_ok = True
    for ds, model, stats in property_runs:
        mean_exp = float(np.mean(np.exp(-ds.labels * model.score(ds.features))))
        prod_z = stats[-1].cumulative_bound
        worst_rel = max(worst_rel, abs(mean_exp - prod_z) / prod_z)
        if stats[-1].train_error > mean_exp + 1e-12:
            bound_ok = False
    elapsed = time.time() - start
    ok = worst_rel <= 1e-9 and bound_ok and elapsed < 60.0
    report(1, ok,
           f"mean exponential loss equals the normalizer product on {len(property_runs)} "
           f"runs (worst rel err {worst_rel:.2e}), training error below it, {elapsed:.1f}s")


def test_criterion_02_bound_chain(property_runs):
    worst_rel = 0.0
    chain_ok = True
    for _, _, stats in property_runs:
        prod_z = 1.0
        prod_sqrt = 1.0
        gamma_sq = 0.0
        for s in stats:
            prod_z *= s.z
            prod_sqrt *= 2.0 * math.sqrt(s.epsilon * (1.0 - s.epsilon))
            gamma_sq += s.gamma * s.gamma
        worst_rel = max(worst_rel, abs(prod_z - prod_sqrt) / prod_sqrt)
        if prod_z > math.exp(-2.0 * gamma_sq) * (1.0 + 1e-9):
            chain_ok = False
    spot_z = 2.0 * math.sqrt(0.25 * 0.75)
    spot_ok = (abs(spot_z - SQRT3_OVER_2) < 1e-12
               and spot_z <= math.exp(-2.0 * 0.25**2)
               and abs(math.exp(-2.0 * 0.25**2) - 0.8824969025845955) < 1e-12)
    ok = worst_rel <= 1e-9 and chain_ok and spot_ok
    report(2, ok,
           f"normalizer product equals the 2*sqrt(eps(1-eps)) product "
           f"(worst rel err {worst_rel:.2e}) and stays below exp(-2*sum gamma^2); "
           f"spot values {spot_z:.6f} <= {math.exp(-0.125):.6f}")


def test_criterion_03_half_mass(property_runs):
    worst = 0.0
    for ds, model, _ in property_runs:
        D = normalized(np.ones(ds.m))
        for alpha, stump in model.terms:
            h = stump.evaluate_matrix(ds.features)
            missed = sign_pm1(h) != ds.labels
            eps = float(np.sum(D[missed]))
            assert alpha == alpha_binary(eps)
            D, _ = update_distribution(D, h, ds.labels, alpha)
            worst = max(worst, abs(float(np.sum(D[missed])) - 0.5))
    ok = worst <= 1e-12
    report(3, ok, f"misclassified weight after every update is 0.5 (worst dev {worst:.2e})")


def test_criterion_04_exponential_decay():
    start = time.time()
    separable_ok = True
    for seed in range(20):
        rng = np.random.default_rng(12000 + seed)
        X = rng.uniform(-1, 1, size=(500, 3))
        y = np.where(X[:, 1] <= 0.2, -1.0, 1.0)
        _, stats = train(dataset(X, y), binary_cfg(50))
        reached = next((s.round for s in stats if s.train_error == 0.0), None)
        if reached is None or reached > 50:
            separable_ok = False
    xor_rounds = []
    cfg = BoostConfig(rounds=500, loss_kind="exponential",
                      stumps=StumpSearchConfig(mode="confidence"))
    for seed in range(20):
        rng = np.random.default_rng(7000 + seed)
        ds = xor_task(rng, 80)
        _, stats = train(ds, cfg)
        reached = next((s.round for s in stats if s.train_error == 0.0), None)
        xor_rounds.append(reached if reached is not None else math.inf)
    xor_ok = all(r <= 500 for r in xor_rounds)
    elapsed = time.time() - start
    ok = separable_ok and xor_ok
    report(4, ok,
           f"separable task hits zero within 50 rounds in 20/20 seeds; "
           f"xor-style task within 500 (worst {max(xor_rounds)}), {elapsed:.1f}s")


def test_criterion_05_loss_relations():
    z = np.arange(-30.0, 30.0 + 1e-9, 1e-3)
    grid_ok = bool(np.all(loss_values(z, "logistic2") <= loss_values(z, "exponential") + 1e-15))
    taylor = taylor_match_check(step=1e-4, tol=1e-5)
    minimizer = common_minimizer_check(np.round(np.arange(0.1, 0.91, 0.1), 10), tol=1e-6)
    ok = grid_ok and taylor.passed and minimizer.passed
    detail = (f"logistic2 <= exponential on {z.size} grid points; "
              f"taylor items {'all pass' if taylor.passed else 'FAIL'}; "
              f"minimizers within 1e-6 for p in 0.1..0.9")
    if not taylor.passed:
        detail += " | " + "; ".join(l for l in taylor.lines() if l.startswith("FAIL"))
    report(5, ok, detail)


def test_criterion_06_logistic_variant():
    mono_ok = True
    weight_worst = 0.0
    cfg = BoostConfig(rounds=8, loss_kind="logistic",
                      stumps=StumpSearchConfig(mode="confidence"))
    for seed in range(50):
        rng = np.random.default_rng(13000 + seed)
        m = int(rng.integers(10, 40))
        X = rng.uniform(-1, 1, size=(m, int(rng.integers(1, 4))))
        y = rng.choice([-1.0, 1.0], size=m)
        ds = dataset(X, y)
        model, stats = train(ds, cfg)
        losses = [s.loss for s in stats]
        if any(b > a + 1e-9 for a, b in zip(losses, losses[1:])):
            mono_ok = False
        w = logistic_weights(model, ds)
        with np.errstate(over="ignore"):
            direct = 1.0 / (1.0 + np.exp(ds.labels * model.score(ds.features)))
        direct /= direct.sum()
        weight_worst = max(weight_worst, float(np.max(np.abs(w - direct))))
    ok = mono_ok and weight_worst <= 1e-12
    report(6, ok,
           f"logistic objective non-increasing on 50 runs; weight rule matches "
           f"direct recomputation (worst dev {weight_worst:.2e})")


def test_criterion_07_density_estimation():
    start = time.time()
    rng = np.random.default_rng(424242)

    # adversarial survival scores must always produce a distribution
    bps = Breakpoints(np.linspace(1.0, 9.0, 9), 0.0, 10.0)
    fuzz_ok = True
    for _ in range(10000):
        q = rng.uniform(-0.5, 1.5, size=9)
        dist = distribution_from_scores(q, bps)
        if np.any(dist.masses < 0.0) or abs(float(dist.masses.sum()) - 1.0) > 1e-9:
            fuzz_ok = False
            break

    # known-CDF calibration: y ~ Uniform(0,1) independent of x
    n, k, T = 5000, 10, 200
    X = rng.uniform(-1, 1, size=(n, 2))
    y = rng.uniform(0, 1, size=n)
    cfg = BoostConfig(rounds=T, loss_kind="logistic",
                      stumps=StumpSearchConfig(mode="confidence"))
    model = train_cde(dataset(X, y), k, cfg)
    grid = rng.uniform(-1, 1, size=(200, 2))
    q_hat = survival_probabilities(model, grid).mean(axis=0)
    truth = 1.0 - model.breakpoints.values  # uniform survival
    calib_err = float(np.max(np.abs(q_hat - truth)))

    # sampling frequencies match masses
    x0 = grid[0]
    masses = distribution_from_scores(
        survival_probabilities(model, x0[None, :])[0], model.breakpoints
    ).masses
    edges = model.breakpoints.edges
    stream = RngState(2024)
    draws = np.array([sample(model, x0, stream) for _ in range(10000)])
    freq = np.array([
        np.mean((draws >= edges[i]) & (draws < edges[i + 1])) for i in range(k)
    ] + [float(np.mean(draws >= edges[k]))])
    freq_err = float(np.max(np.abs(freq - masses)))

    elapsed = time.time() - start
    ok = fuzz_ok and calib_err <= 0.05 and freq_err <= 0.02 and elapsed < 300.0
    report(7, ok,
           f"fuzz 10000 ok={fuzz_ok}; calibration max err {calib_err:.4f} <= 0.05; "
           f"sampling freq err {freq_err:.4f} <= 0.02; {elapsed:.1f}s")


def test_criterion_08_prior_knowledge():
    # eta = 0 reproduces plain logistic training term for term
    rng = np.random.default_rng(31337)
    X = rng.uniform(-1, 1, size=(25, 2))
    y = rng.choice([-1.0, 1.0], size=25)
    p = rng.uniform(0.1, 0.9, size=25)
    ds = dataset(X, y)
    cfg = BoostConfig(rounds=8, loss_kind="logistic",
                      stumps=StumpSearchConfig(mode="confidence"))
    prior_model, _ = train_with_prior(ds, p, PriorConfig(eta=0.0), cfg)
    plain_model, _ = train(ds, cfg)
    eta0_ok = prior_model.terms == plain_model.terms

    # augmentation equivalence: objectives differ by a model-free constant
    eta = 2.5
    aug = augment_with_prior(ds, p, eta)
    pcfg = PriorConfig(eta=eta, epsilon_clip=1e-12)
    offsets = []
    for rounds in (1, 4, 8):
        model, _ = train(ds, BoostConfig(rounds=rounds, loss_kind="logistic",
                                         stumps=StumpSearchConfig(mode="confidence")))
        aug_loss = float(np.sum(aug.weights * log1pexp(-(aug.labels * model.score(aug.features)))))
        offsets.append(prior_objective(model.score(ds.features), ds, p, pcfg.eta, pcfg.epsilon_clip) - aug_loss)
    offset_dev = max(abs(a - b) for a in offsets for b in offsets)
    offset_ok = offset_dev <= 1e-9

    # large eta forces the model probabilities onto the rule
    rng = np.random.default_rng(777)
    Xl = rng.uniform(-1, 1, size=(80, 1))
    yl = rng.choice([-1.0, 1.0], size=80)
    pl = np.where(Xl[:, 0] > 0.0, 0.9, 0.1)
    big_model, _ = train_with_prior(
        dataset(Xl, yl), pl, PriorConfig(eta=1e4),
        BoostConfig(rounds=60, loss_kind="logistic", stumps=StumpSearchConfig(mode="confidence")),
    )
    sig = 1.0 / (1.0 + np.exp(-big_model.score(Xl)))
    match_err = float(np.mean(np.abs(sig - pl)))
    match_ok = match_err < 0.05

    # small-data trend: noisy labels, mostly-correct expert rule
    def concept(Z):
        return np.where(Z[:, 0] + Z[:, 1] > 0.0, 1.0, -1.0)

    wins = 0
    tcfg = BoostConfig(rounds=30, loss_kind="logistic",
                       stumps=StumpSearchConfig(mode="confidence"))
    for seed in range(20):
        srng = np.random.default_rng(3100 + seed)
        Xtr = srng.uniform(-1, 1, size=(20, 2))
        ytrue = concept(Xtr)
        ytr = np.where(srng.uniform(size=20) < 0.2, -ytrue, ytrue)
        Xte = srng.uniform(-1, 1, size=(2000, 2))
        yte = concept(Xte)
        rule_p = np.where(ytrue > 0, 0.85, 0.15)
        sds = dataset(Xtr, ytr)
        plain, _ = train(sds, tcfg)
        primed, _ = train_with_prior(sds, rule_p, PriorConfig(eta=5.0), tcfg)
        e_plain = float(np.mean(sign_pm1(plain.score(Xte)) != yte))
        e_prior = float(np.mean(sign_pm1(primed.score(Xte)) != yte))
        wins += e_prior < e_plain
    trend_ok = wins >= 14

    ok = eta0_ok and offset_ok and match_ok and trend_ok
    report(8, ok,
           f"eta=0 identical={eta0_ok}; offset dev {offset_dev:.2e} <= 1e-9; "
           f"large-eta mean |sigma(f)-p| {match_err:.4f} < 0.05; "
           f"prior beats plain in {wins}/20 noisy-label seeds (need >= 14)")


def make_word_task(rng, k_inf=30, p_inf=0.08, d_noise=20, threshold=0.5):
    """Rare-indicative-word pool: ambiguous documents are scarce under
    random sampling, which is where low-confidence querying pays off."""
    d = k_inf + d_noise
    p = np.concatenate([np.full(k_inf, p_inf), rng.uniform(0.05, 0.3, size=d_noise)])
    w = np.concatenate([rng.choice([-1.0, 1.0], size=k_inf), np.zeros(d_noise)])
    perm = rng.permutation(d)
    p, w = p[perm], w[perm]

    def draw(n):
        X = (rng.uniform(size=(n, d)) < p).astype(float)
        return X, X @ w

    Xp, sp = draw(10000)
    Xt, st = draw(2000)
    return (dataset(Xp, np.where(sp > threshold, 1.0, -1.0)),
            dataset(Xt, np.where(st > threshold, 1.0, -1.0)))


def labels_to_target(points, target=0.05):
    for pt in points:
        if pt.test_error <= target:
            return pt.labels_used
    return math.inf


def test_criterion_09_active_learning():
    start = time.time()
    cfg = BoostConfig(rounds=60, loss_kind="exponential",
                      stumps=StumpSearchConfig(mode="confidence"))

    # acquisition exactness on one run: every batch equals the sort oracle
    rng = np.random.default_rng(5000)
    pool_ds, test_ds = make_word_task(rng)
    acfg = ActiveConfig(boost=cfg, init_batch=100, batch=25, iterations=6,
                        strategy="uncertainty", seed=0)
    result = simulate(pool_ds, test_ds, acfg)
    replay = Pool(pool_ds)
    replay.acquire(result.acquisitions[0])
    exact_ok = True
    for step in result.acquisitions[1:]:
        model, _ = train(replay.labeled_dataset(), cfg)
        unlabeled = replay.unlabeled_ids()
        conf = np.abs(model.score(pool_ds.features[unlabeled]))
        order = np.lexsort((unlabeled, conf))
        if step != [int(i) for i in unlabeled[order[:25]]]:
            exact_ok = False
        replay.acquire(step)

    wins = ties = 0
    ratios = []
    for seed in range(20):
        srng = np.random.default_rng(5000 + seed)
        pool_i, test_i = make_word_task(srng)
        ru = simulate(pool_i, test_i,
                      ActiveConfig(boost=cfg, init_batch=100, batch=25, iterations=16,
                                   strategy="uncertainty", seed=seed))
        rr = simulate(pool_i, test_i,
                      ActiveConfig(boost=cfg, init_batch=100, batch=25, iterations=16,
                                   strategy="random", seed=seed))
        lu = labels_to_target(ru.points)
        lr = labels_to_target(rr.points)
        if lu < lr:
            wins += 1
        elif lu == lr:
            ties += 1
        if math.isfinite(lu) and math.isfinite(lr):
            ratios.append(lr / lu)
    elapsed = time.time() - start
    trend_ok = (wins + ties) >= 14
    ok = exact_ok and trend_ok and elapsed < 600.0
    report(9, ok,
           f"batches equal the k-smallest-|f| oracle={exact_ok}; uncertainty <= random "
           f"in {wins + ties}/20 seeds ({wins} strict); best observed label-savings "
           f"ratio {max(ratios):.2f}x; {elapsed:.0f}s")


def test_criterion_10_determinism_and_persistence(tmp_path, np_rng):
    # byte-identical CLI rerun
    X = np_rng.uniform(-1, 1, size=(60, 3))
    y = np_rng.choice([-1.0, 1.0], size=60)
    data_path = str(tmp_path / "train.csv")
    save_csv(dataset(X, y), data_path)
    out_a, out_b = str(tmp_path / "a.model"), str(tmp_path / "b.model")
    flags = ["train", "--data", data_path, "--rounds", "10", "--loss", "exp", "--seed", "9"]
    assert main(flags + ["--out", out_a]) == 0
    assert main(flags + ["--out", out_b]) == 0
    model_ok = open(out_a, "rb").read() == open(out_b, "rb").read()
    stats_ok = (open(out_a + ".stats.csv", "rb").read()
                == open(out_b + ".stats.csv", "rb").read())

    # curve CSV byte-identical rerun
    pool_path = str(tmp_path / "pool.csv")
    rng2 = np.random.default_rng(2)
    save_csv(dataset(rng2.uniform(-1, 1, size=(400, 2)),
                     np.where(rng2.uniform(size=400) < 0.5, 1.0, -1.0)), pool_path)
    curves = []
    for name in ("c1.csv", "c2.csv"):
        out = str(tmp_path / name)
        assert main(["active", "--data", pool_path, "--test-fraction", "0.25",
                     "--strategy", "both", "--init", "30", "--batch", "10",
                     "--iterations", "2", "--seeds", "0,1", "--rounds", "3",
                     "--out", out]) == 0
        curves.append(open(out, "rb").read())
    curve_ok = curves[0] == curves[1]

    # save/load round trip preserves predictions bit for bit
    ds = dataset(X, y)
    model, _ = train(ds, BoostConfig(rounds=12, loss_kind="exponential",
                                     stumps=StumpSearchConfig(mode="confidence")))
    path = str(tmp_path / "round.model")
    save_classifier(path, model, features=3, seed=0, config="c")
    loaded = load_model(path).model
    probe = np_rng.uniform(-5, 5, size=(1000, 3))
    round_trip_ok = bool(np.all(loaded.score(probe) == model.score(probe)))

    ok = model_ok and stats_ok and curve_ok and round_trip_ok
    report(10, ok,
           f"model bytes identical={model_ok}; stats bytes identical={stats_ok}; "
           f"curve bytes identical={curve_ok}; 1000-input score round-trip exact={round_trip_ok}")
