"""Portfolio weights: cluster-entropy allocation, max-Sharpe baseline, diagnostics."""

from __future__ import annotations

import functools
import itertools
import logging
import math

import numpy as np

from .errors import DataError, NoTangencyError

logger = logging.getLogger(__name__)

SIMPLEX_TOL = 1e-9
_MAX_ITER = 500  # cap on the steps of one max-Sharpe ascent
_GRID_DIVISIONS = 10  # max-Sharpe grid start: weights in steps of 1/10


def _simplex(w: np.ndarray) -> np.ndarray:
    """w, once checked to be a long-only allocation: finite, non-negative, unit sum."""
    if not np.all(np.isfinite(w)):
        raise DataError(f"non-finite weight in {w}")
    if np.any(w < -SIMPLEX_TOL):
        raise DataError(f"negative weight in {w}")
    if abs(w.sum() - 1.0) > SIMPLEX_TOL:
        raise DataError(f"weights sum to {w.sum()}, not 1")
    return w


# --- max-Sharpe optimizer ----------------------------------------------------

def _project_simplex(v: list[float]) -> np.ndarray:
    """Euclidean projection onto the probability simplex.

    Plain-float form of sort / cumsum / maximum(v - theta, 0): the same
    operations in the same order, so the same bits, without numpy's per-call
    cost on a vector of a few elements. rho is the last index i with
    u_i * (i + 1) > css_i - 1, found by one backward scan. Raises IndexError,
    as the numpy form does, when no index passes the test (values near 2^53
    and beyond).
    """
    u = sorted(v, reverse=True)
    css = list(itertools.accumulate(u))
    for rho in range(len(u) - 1, -1, -1):
        if u[rho] * (rho + 1) > css[rho] - 1.0:
            break
    else:
        raise IndexError("no index passes the simplex projection test")
    theta = (css[rho] - 1.0) / (rho + 1.0)
    # np.maximum(d, 0.0) gives +0.0 for d = -0.0 and keeps NaN
    return np.array([0.0 if d <= 0.0 else d for d in (x - theta for x in v)])


def _sharpe(w: np.ndarray, mu: np.ndarray, sigma: np.ndarray) -> float:
    var = float(w.dot(sigma).dot(w))
    if var <= 0:
        return -np.inf
    return float(w.dot(mu)) / np.sqrt(var)


def _ascend(w0: np.ndarray, mu: np.ndarray,
            sigma: np.ndarray) -> tuple[np.ndarray, float, int]:
    """Projected-gradient ascent on the Sharpe ratio with backtracking.

    Returns the weights, their Sharpe ratio (the bits _sharpe gives them) and
    the number of steps taken; _MAX_ITER steps means the ascent stopped at its
    cap, not at a point where no step gains. The step, the gradient and the
    projection run on Python floats; each candidate's variance and mean are
    kept for the next gradient.
    """
    # ndarray.dot on purpose: the same BLAS kernels as @ at about half the
    # call cost. Their rounding, not a Python sum's, defines the output bytes,
    # and so does the operand order: the variance is (w.Sigma).w and the
    # gradient Sigma.w; for symmetric Sigma the two products round differently,
    # so neither stands in for the other.
    mu_list = mu.tolist()
    w = w0.copy()
    var, mean = float(w.dot(sigma).dot(w)), float(w.dot(mu))
    f = mean / math.sqrt(var) if var > 0 else -math.inf
    step = 1.0
    for steps in range(_MAX_ITER):
        if var <= 0:
            break
        sp = math.sqrt(var)
        k = mean / (sp * var)
        # elementwise as numpy's mu / sp - k * (sigma @ w), so the same bits
        gl = [m / sp - k * s for m, s in zip(mu_list, sigma.dot(w).tolist())]
        wl = w.tolist()
        t = step
        for _ in range(40):
            cand = _project_simplex([x + t * g for x, g in zip(wl, gl)])
            cvar, cmean = float(cand.dot(sigma).dot(cand)), float(cand.dot(mu))
            fc = cmean / math.sqrt(cvar) if cvar > 0 else -math.inf
            if fc > f + 1e-15:
                w, f, var, mean = cand, fc, cvar, cmean
                step = min(t * 2.0, 1e6)
                break
            t *= 0.5
        else:
            break
    else:  # every iteration took a step
        steps = _MAX_ITER
    return w, f, steps


@functools.lru_cache(maxsize=16)
def simplex_grid(n_assets: int, divisions: int) -> np.ndarray:
    """All weight vectors with components k/divisions summing to 1, one per row.

    Rows follow itertools.combinations_with_replacement order. The array is
    cached per (n_assets, divisions) and read-only, since callers share it.
    """
    comps = np.array(list(itertools.combinations_with_replacement(range(n_assets),
                                                                  divisions)))
    counts = (comps[:, :, None] == np.arange(n_assets)).sum(axis=1)
    grid = counts / divisions
    grid.flags.writeable = False
    return grid


def _grid_start(mu: np.ndarray, sigma: np.ndarray, divisions: int) -> np.ndarray:
    """The simplex_grid row with the highest _sharpe, the first one on ties.

    All rows are scored at once; vectorised sums round differently from
    _sharpe's, so every row whose score lies within a rounding bound of the
    best is re-scored with _sharpe itself. The bound covers both roundings,
    hence the exact best row is always among those re-scored.
    """
    grid = simplex_grid(len(mu), divisions)
    var = ((grid @ sigma) * grid).sum(axis=1)
    tol = 4 * (len(mu) + 2) * np.finfo(float).eps
    var_err = tol * ((grid @ np.abs(sigma)) * grid).sum(axis=1)
    if np.all(var > 2 * var_err):
        sd = np.sqrt(var)
        scores = (grid @ mu) / sd
        err = tol * (grid @ np.abs(mu)) / sd + np.abs(scores) * var_err / var
        near = np.flatnonzero(scores + err >= np.max(scores - err))
    else:  # a variance within rounding of zero: score every row exactly
        near = np.arange(len(grid))
    exact = [_sharpe(grid[i], mu, sigma) for i in near]
    return grid[near[int(np.argmax(exact))]]


def max_sharpe_weights(mu: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Long-only weights maximizing the Sharpe ratio.

    mu are per-asset expected returns and sigma their covariance, in the
    same period units; both are checked first. Runs projected-gradient
    ascent from several starts (uniform, best vertex, clipped unconstrained
    tangency, best coarse-grid point) and returns the best; singular
    covariances get an automatic ridge of 1e-10 * trace / N.
    """
    mu, sigma = np.asarray(mu, dtype=float), np.asarray(sigma, dtype=float)
    if not np.all(np.isfinite(mu)):
        raise DataError(f"expected returns mu must be finite, got {mu}")
    if not np.all(np.isfinite(sigma)):
        raise DataError("covariance matrix sigma must be finite")
    if sigma.shape != (len(mu), len(mu)):
        raise DataError(f"covariance shape {sigma.shape} does not match {len(mu)} assets")
    if not np.allclose(sigma, sigma.T, rtol=1e-8, atol=1e-12):
        raise DataError("covariance matrix must be symmetric")
    n = len(mu)
    if n == 1:
        return np.ones(1)
    if np.all(mu <= 0):
        raise NoTangencyError("all expected returns are non-positive")

    eigmin = float(np.linalg.eigvalsh(sigma).min())
    if eigmin < 1e-14 * max(np.trace(sigma), 1e-300):
        eps = 1e-10 * np.trace(sigma) / n
        logger.warning("covariance near-singular (min eig %.3e); adding ridge %.3e",
                       eigmin, eps)
        sigma = sigma + eps * np.eye(n)

    starts = {"uniform": np.full(n, 1.0 / n),
              "vertex": max(np.eye(n), key=lambda v: _sharpe(v, mu, sigma))}
    try:
        tangency = np.linalg.solve(sigma, mu)
        tangency = np.maximum(tangency, 0.0)
        if tangency.sum() > 0:
            starts["tangency"] = tangency / tangency.sum()
    except np.linalg.LinAlgError:
        pass
    if n <= 6:
        starts["grid"] = _grid_start(mu, sigma, _GRID_DIVISIONS)

    ascents = {name: _ascend(w0, mu, sigma) for name, w0 in starts.items()}
    # the first start with the highest score; none if every score is -inf
    best_start = max(ascents, key=lambda name: ascents[name][1])
    if ascents[best_start][1] == -np.inf:
        best_start = None
    if logger.isEnabledFor(logging.DEBUG):
        capped = [name for name, (_, _, steps) in ascents.items() if steps == _MAX_ITER]
        logger.debug("max_sharpe: ascent steps %s; best start %s; %s",
                     " ".join(f"{name}={steps}" for name, (_, _, steps) in ascents.items()),
                     best_start,
                     f"unconverged, stopped at the {_MAX_ITER}-step cap: {','.join(capped)}"
                     if capped else "every start converged")
    # _ascend takes strict gains only, so best is no worse than the uniform and
    # best-vertex starts, and like every start and projection it is >= +0.0
    if best_start is None:
        raise NoTangencyError("no start portfolio has positive variance")
    best = ascents[best_start][0]
    return _simplex(best / best.sum())


# --- entropy-based weights and diagnostics -----------------------------------

def cluster_entropy_weights(indices) -> np.ndarray:
    """w_i = I_i / sum I: aggregate cluster-entropy indices as allocation weights.

    This is the high-risk rule, w proportional to I. Given 1/I it gives the
    low-risk weights, proportional to 1/I_i (a monotone-reversing extension,
    not prescribed by the high-risk rule).
    """
    ivals = np.asarray(indices, dtype=float)
    if len(ivals) < 2:
        raise DataError("need at least 2 assets")
    if not np.all(np.isfinite(ivals) & (ivals > 0)):
        raise DataError(f"all indices must be finite and positive, got {ivals}")
    return _simplex(ivals / ivals.sum())


def naive_weights(n: int) -> np.ndarray:
    """Equal 1/N allocation over n assets."""
    return np.full(n, 1.0 / n)


def weight_entropy(w: np.ndarray) -> float:
    """Shannon entropy of the weight distribution, with 0 ln 0 = 0."""
    wv = w[w > 0]
    return float(-(wv * np.log(wv)).sum())


def kl_cross_entropy(w: np.ndarray, u: np.ndarray) -> float:
    """-sum w_i ln(w_i / u_i): negative of the conventional KL divergence.

    Zero iff w equals u on common support, negative otherwise.
    """
    if len(w) != len(u):
        raise DataError("weight vectors must have equal length")
    mask = w > 0
    if np.any(u[mask] <= 0):
        raise DataError("reference weights must be positive wherever w is positive")
    wv = w[mask]
    uv = u[mask]
    return float(-(wv * np.log(wv / uv)).sum())
