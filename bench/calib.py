"""Reference kernel that measures how fast the machine runs at the moment.

On a shared host the same `analyze` can run 1.6-2x slower for seconds to
minutes at a time (measured on a 2-vCPU x86-64 Linux VM). Little of that
shows as steal time: other tenants share the cores and caches, and CPU time
inflates with wall time. The kernel below does the same kinds of work as the
pipeline, imports nothing from entroport and must never change: numpy passes
over a 2^16-sample random walk (windowed std, moving-average crossings,
duration histograms), Python CSV parsing into small frozen objects, sorted,
and a loop of Sharpe ratios on 6-asset weight vectors. Each sample times
REPS passes just before and REPS just after its `analyze`; run.py scales the
sample's times by REFERENCE_S over the mean of the two, so a slow phase of
the host cancels while a change to entroport does not. The mean, not the
minimum, of the passes is taken: a slow phase lasts seconds to minutes, and
the minimum picks out the few fast moments the `analyze` did not get.
"""

from __future__ import annotations

import csv
import io
import time
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

#: seconds per kernel pass at the speed the scaled times are expressed in: its
#: usual time on a quiet 2-vCPU x86-64 Linux VM (Python 3.11, numpy 2.4)
REFERENCE_S = 0.1
REPS = 3


@dataclass(frozen=True)
class _Row:
    stamp: int
    price: float


def _inputs():
    rng = np.random.default_rng(20180101)
    walk = np.cumsum(rng.standard_normal(1 << 16))
    stamps = np.cumsum(rng.integers(0, 600_000, 15_000)).tolist()
    prices = (100.0 + np.abs(walk[:15_000])).tolist()
    text = "".join(f"{t},{p!r}\n" for t, p in zip(stamps, prices))
    mu = rng.uniform(0.5, 1.5, 6) * 1e-4
    a = rng.standard_normal((6, 40))
    sigma = a @ a.T * 1e-6
    weights = list(rng.dirichlet(np.ones(6), 4_000))
    return walk, text, mu, sigma, weights


def _once(walk, text, mu, sigma, weights) -> float:
    acc = 0.0
    r = np.diff(walk)
    for w in (3, 6, 12):
        acc += float(sliding_window_view(r, w).std(axis=-1, ddof=1)[-1])
    for n in range(5, 51, 10):
        ma = np.convolve(walk, np.full(n, 1.0 / n), mode="valid")
        sign = np.sign(walk[n - 1:] - ma)
        nz = np.flatnonzero(sign)
        sv = sign[nz]
        t = nz[1:][sv[1:] != sv[:-1]]
        taus, counts = np.unique(np.diff(t), return_counts=True)
        hist = {int(a): int(b) for a, b in zip(taus, counts)}
        total = sum(hist.values())
        acc += sum(-np.log(c / total) for c in hist.values())
    rows = [_Row(int(a), float(b)) for a, b in csv.reader(io.StringIO(text))]
    rows.sort(key=lambda row: row.stamp)
    best = max(float(w @ mu) / np.sqrt(w @ sigma @ w) for w in weights)
    return acc + rows[-1].price + best


def kernel_seconds(reps: int = REPS) -> float:
    """Mean wall time of one pass of the reference kernel over `reps` passes."""
    inputs = _inputs()
    t0 = time.perf_counter()
    for _ in range(reps):
        _once(*inputs)
    return (time.perf_counter() - t0) / reps
