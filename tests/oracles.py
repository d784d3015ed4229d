"""Straightforward reference implementations the fast paths must match bit for bit.

Each function here is the plain form of a library routine that has a
faster implementation: a masked two-branch sigmoid, line searches that
evaluate the first and second derivative in separate passes, per-term
scoring of one row, and per-row, per-draw density queries.
"""

import numpy as np

from boostkit.losses import prob_positive


def sigmoid(x):
    """1/(1 + exp(-x)) by masked gathers and scatters, one exp per branch."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0.0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out if out.ndim else float(out)


def _newton_1d(dfn, d2fn, lo, hi, tol):
    a, b = lo, hi
    x = 0.0 if lo < 0.0 < hi else 0.5 * (lo + hi)
    for _ in range(200):
        g = dfn(x)
        if abs(g) <= tol:
            return x
        if g > 0.0:
            b = x
        else:
            a = x
        curv = d2fn(x)
        step = g / curv if curv > 0.0 else 0.0
        x_new = x - step
        if not a < x_new < b:
            x_new = 0.5 * (a + b)
        x = x_new
    return x


def alpha_line_search(D, h, y, cap=35.0, tol=1e-10):
    yh = y * h
    active = (D > 0.0) & (yh != 0.0)
    a_cap = cap / float(np.max(np.abs(h[active])))
    Da, yha = D[active], yh[active]

    def dz(a):
        return float(np.sum(-Da * yha * np.exp(-a * yha)))

    def d2z(a):
        return float(np.sum(Da * yha * yha * np.exp(-a * yha)))

    if dz(a_cap) <= 0.0:
        return a_cap
    if dz(-a_cap) >= 0.0:
        return -a_cap
    return _newton_1d(dz, d2z, -a_cap, a_cap, tol)


def alpha_logistic_line_search(w, f, h, y, cap=35.0, tol=1e-10):
    yh = y * h
    yf = y * f
    active = (w > 0.0) & (yh != 0.0)
    a_cap = cap / float(np.max(np.abs(yh[active])))
    wa, yha, yfa = w[active], yh[active], yf[active]

    def dl(a):
        return float(np.sum(-wa * yha * sigmoid(-(yfa + a * yha))))

    def d2l(a):
        s = sigmoid(-(yfa + a * yha))
        return float(np.sum(wa * yha * yha * s * (1.0 - s)))

    if dl(a_cap) <= 0.0:
        return a_cap
    if dl(-a_cap) >= 0.0:
        return -a_cap
    return _newton_1d(dl, d2l, -a_cap, a_cap, tol)


def score_one(model, x):
    """f(x) for one row, one term at a time from 0.0."""
    f = 0.0
    for alpha, stump in model.terms:
        f += alpha * stump.evaluate(x)
    return f


def masses_from_scores(q_raw):
    """One row's bin masses: running minimum from 1, differenced, renormalized."""
    q = np.clip(np.asarray(q_raw, dtype=np.float64), 0.0, 1.0)
    full = np.concatenate((np.minimum.accumulate(np.concatenate(([1.0], q))), [0.0]))
    masses = -np.diff(full)
    return masses / masses.sum()


def conditional_masses(model, x):
    q = np.array([prob_positive(score_one(c, x), model.link) for c in model.classifiers])
    return masses_from_scores(q)


def sample(model, x, rng):
    masses = conditional_masses(model, x)
    edges = model.breakpoints.edges
    cum = np.cumsum(masses)
    u = rng.random()
    idx = min(int(np.searchsorted(cum, u, side="right")), masses.shape[0] - 1)
    lo, hi = float(edges[idx]), float(edges[idx + 1])
    return lo + rng.random() * (hi - lo)


def quantile(model, x, level):
    masses = conditional_masses(model, x)
    edges = model.breakpoints.edges
    cum = np.concatenate(([0.0], np.cumsum(masses)))
    cum[-1] = 1.0
    idx = int(np.searchsorted(cum[1:], level, side="left"))
    lo, hi = float(edges[idx]), float(edges[idx + 1])
    mass = float(masses[idx])
    if mass <= 0.0:
        return lo
    return lo + (level - float(cum[idx])) / mass * (hi - lo)
