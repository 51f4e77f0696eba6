"""Seeded synthetic series generators: FBM, ARFIMA(0,d,0), GARCH(1,1).

Every generator draws from its own named random stream, so adding a
generator never perturbs the draws of another, and identical specs yield
bit-identical samples; GeneratorSpec.prices maps them to prices.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DataError

#: MA(infinity) truncation for fractional differencing. The neglected weight
#: mass is O(K^(d-1)) ~ 1e-4 .. 1e-2 of psi_K for |d| < 0.5, negligible next
#: to Monte Carlo noise at the series lengths used here.
ARFIMA_TRUNCATION = 10_000
#: the price at the start of every synthetic path (GeneratorSpec.prices)
BASE_PRICE = 100.0
#: generator kinds whose samples are price levels; the others' are returns
LEVEL_KINDS = frozenset({"fbm"})

_STREAM_IDS = {"fbm": 1, "arfima": 2, "garch": 3}


def _rng(stream: str, seed: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([_STREAM_IDS[stream], seed]))


class GeneratorSpec:
    """Declarative description of a synthetic asset.

    kind is 'fbm' (which reads hurst), 'arfima' (d) or 'garch' (omega, alpha,
    beta); price_scale scales the samples before they map to prices.
    """

    __slots__ = ("kind", "length", "seed", "hurst", "d", "omega", "alpha", "beta",
                 "price_scale")

    def __init__(self, kind: str, length: int, seed: int, hurst: float | None = None,
                 d: float | None = None, omega: float | None = None,
                 alpha: float | None = None, beta: float | None = None,
                 price_scale: float = 0.001):
        self.kind, self.length, self.seed, self.hurst = kind, length, seed, hurst
        self.d, self.omega, self.alpha, self.beta = d, omega, alpha, beta
        self.price_scale = price_scale

    def generate(self) -> np.ndarray:
        """The generator's samples; a DataError naming the kind unless all are finite."""
        if self.kind not in _GENERATORS:
            raise DataError(f"unknown generator kind {self.kind!r}")
        x = _GENERATORS[self.kind](*(getattr(self, p) for p in GENERATOR_PARAMS[self.kind]),
                                   self.length, self.seed)
        if not np.isfinite(x).all():
            raise DataError(f"{self.kind} samples are not all finite")
        return x

    def prices(self) -> np.ndarray:
        """The samples as positive prices from BASE_PRICE.

        Level paths become BASE_PRICE * exp(scale * x); return paths compound
        as BASE_PRICE * prod(1 + scale * r), floored away from zero. A price
        that overflows to inf or underflows to 0 is a DataError naming the scale.
        """
        x, scale = self.generate(), self.price_scale
        with np.errstate(over="ignore"):  # reported below, not warned
            if self.kind in LEVEL_KINDS:
                values = BASE_PRICE * np.exp(scale * x)
            else:
                values = BASE_PRICE * np.cumprod(np.maximum(1.0 + scale * x, 1e-8))
        if not ((values > 0) & (values < np.inf)).all():
            raise DataError(f"price_scale {scale} takes prices outside (0, inf)")
        return values


def fbm_series(hurst: float, length: int, seed: int) -> np.ndarray:
    """Fractional Brownian motion path with exact covariance.

    Uses circulant embedding of the fractional Gaussian noise covariance
    (Davies-Harte), so length must be a power of two. Increments are
    stationary with Var[B(t+k) - B(t)] = k^(2H).
    """
    if not 0.0 < hurst < 1.0:
        raise DataError(f"Hurst exponent must be in (0, 1), got {hurst}")
    if length < 2 or length & (length - 1):
        raise DataError(f"length must be a power of two >= 2, got {length}")
    return np.cumsum(_fgn_davies_harte(hurst, length, _rng("fbm", seed)))


def _fgn_davies_harte(hurst: float, n: int, rng: np.random.Generator) -> np.ndarray:
    # each temporary is deleted once used, and both FFTs run in place on their
    # complex input: at n = 2^20 each buffer is tens of MB
    k = np.arange(n + 1, dtype=float)
    two_h = 2.0 * hurst
    cov = 0.5 * ((k + 1) ** two_h - 2.0 * k ** two_h + np.abs(k - 1) ** two_h)
    del k
    row = np.empty(2 * n, dtype=complex)
    row[:n + 1] = cov
    row[n + 1:] = cov[-2:0:-1]
    del cov
    lam = np.fft.fft(row, out=row).real.copy()
    del row
    if lam.min() < -1e-8:
        raise DataError(f"circulant embedding not non-negative definite (min {lam.min()})")
    np.maximum(lam, 0.0, out=lam)

    m = 2 * n
    a = rng.standard_normal(m)
    b = rng.standard_normal(m)
    w = np.zeros(m, dtype=complex)
    w[0] = np.sqrt(lam[0] / m) * a[0]
    w[n] = np.sqrt(lam[n] / m) * a[n]
    half = np.sqrt(lam[1:n] / (2 * m))
    del lam
    w[1:n] = half * (a[1:n] + 1j * b[1:n])
    del a, b, half
    w[m - 1:n:-1] = np.conj(w[1:n])
    return np.fft.fft(w, out=w).real[:n].copy()


def fractional_weights(d: float, count: int) -> np.ndarray:
    """MA(infinity) weights of (1-B)^(-d): psi_k = Gamma(k+d) / (Gamma(d) k!)."""
    psi = np.empty(count)
    psi[0] = 1.0
    k = np.arange(1, count)
    psi[1:] = np.cumprod((k - 1 + d) / k)
    return psi


def arfima_series(d: float, length: int, seed: int) -> np.ndarray:
    """ARFIMA(0, d, 0) noise via truncated fractional-differencing weights."""
    if not abs(d) < 0.5:
        raise DataError(f"fractional order must satisfy |d| < 0.5, got {d}")
    if length < 1:
        raise DataError("length must be >= 1")
    rng = _rng("arfima", seed)
    psi = fractional_weights(d, ARFIMA_TRUNCATION + 1)
    eps = rng.standard_normal(length + ARFIMA_TRUNCATION)
    return _fft_convolve_valid(eps, psi)[:length]


def _next_fast_len(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= n: the real-FFT length scipy.fft.next_fast_len picks."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # p35 times the smallest power of two that reaches n
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _fft_convolve_valid(x: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """The 'valid' part of x * kernel (len(x) >= len(kernel)) by real FFT.

    Same padding, transforms and slice as scipy.signal.fftconvolve(x, kernel,
    mode="valid"); both run pocketfft, and the tests check that the results
    agree to the bit wherever scipy is installed.
    """
    full = len(x) + len(kernel) - 1
    size = _next_fast_len(full)
    out = np.fft.irfft(np.fft.rfft(x, size) * np.fft.rfft(kernel, size), size)
    return out[len(kernel) - 1:len(x)]


def garch_series(omega: float, alpha: float, beta: float, length: int,
                 seed: int) -> np.ndarray:
    """GARCH(1,1) return path with unconditional variance omega / (1 - alpha - beta)."""
    for name, value in (("omega", omega), ("alpha", alpha), ("beta", beta)):
        if not math.isfinite(value):
            raise DataError(f"{name} must be finite, got {value}")
    if omega <= 0:
        raise DataError(f"omega must be positive, got {omega}")
    if alpha < 0 or beta < 0:
        raise DataError("alpha and beta must be non-negative")
    if alpha + beta >= 1:
        raise DataError(f"stationarity requires alpha + beta < 1, got {alpha + beta}")
    if length < 1:
        raise DataError("length must be >= 1")
    # Python floats round exactly as numpy float64 scalars, at a fraction of the
    # cost; step t overwrites shock z_t with return r_t
    r = _rng("garch", seed).standard_normal(length).tolist()
    var = omega / (1.0 - alpha - beta)
    for t, z in enumerate(r):
        rt = r[t] = math.sqrt(var) * z
        var = omega + alpha * rt * rt + beta * var
    return np.array(r)


#: generator kind -> its float GeneratorSpec fields, which are also its config keys and CLI flags
GENERATOR_PARAMS = {"fbm": ("hurst",), "arfima": ("d",), "garch": ("omega", "alpha", "beta")}
#: generator kind -> its series function, which takes GENERATOR_PARAMS[kind], length and seed
_GENERATORS = {"fbm": fbm_series, "arfima": arfima_series, "garch": garch_series}
