"""The affectance-term kernel: every (len_w / d(s_w, x))^alpha of the package.

The interference measure, slot feasibility, the greedy scheduler and the
exact oracle's term matrix are all sums of this one term.  They get it from
here, a block of terms at a time, computed straight from the instance's
read-only arrays (``metric.points`` or ``metric.d``, ``Instance.lengths``,
``senders`` and ``receivers``).  Callers split their work with ``blocks`` so
that no temporary grows beyond about ``BLOCK`` elements or one column of n
terms, whatever the instance size.

The arithmetic follows the scalar forms it replaced.  Powers use
``np.float_power``, which calls the C library ``pow`` as Python's ``**``
does; ``np.power`` may take a SIMD path that differs in the last bit.
``ascending_sums`` adds each column left to right in ascending order, as
``sum(sorted(column))`` does.  Euclidean distances come from ``np.hypot``
and may differ from ``math.dist`` in the last bit.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .model import REL_TOL, Instance, MatrixMetric

# Elements per temporary block.  It bounds the kernel's memory; it is not a
# user setting.
BLOCK = 1 << 14


def blocks(n_items: int, per_item: int) -> Iterator[slice]:
    """Slices of range(n_items), each of max(1, BLOCK // per_item) items or fewer."""
    step = max(1, BLOCK // per_item)
    for start in range(0, n_items, step):
        yield slice(start, min(start + step, n_items))


def dist(inst: Instance, P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Distances between the nodes P and Q, as a (len(P), len(Q)) block."""
    metric = inst.metric
    if isinstance(metric, MatrixMetric):
        return metric.d[np.ix_(P, Q)]
    a, b = metric.points[P], metric.points[Q]
    with np.errstate(over="ignore"):  # points farther apart than the float range are at inf
        d = np.abs(a[:, None, 0] - b[None, :, 0])
        for k in range(1, metric.dim):
            d = np.hypot(d, a[:, None, k] - b[None, :, k])
    return d


def ratio_power(num: np.ndarray, den: np.ndarray, alpha: float) -> np.ndarray:
    """(num / den)^alpha elementwise; +inf where den is 0 or the power overflows."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        out = np.float_power(num / den, alpha)
    out[den == 0.0] = np.inf
    return out


def terms(inst: Instance, W: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Block T[i, j] = (len_w / d(s_w, x))^alpha for links w = W[i], nodes x = X[j].

    Pass ``inst.receivers[V]`` as X for the terms of links W on links V.
    """
    d = dist(inst, inst.senders[W], X)
    return ratio_power(inst.lengths[W][:, None], d, inst.params.alpha)


def ascending_sums(T: np.ndarray) -> np.ndarray:
    """Each column of T summed left to right in ascending order.

    Equal bit for bit to ``sum(sorted(column))``: cumulative sums are strictly
    sequential, where ``np.sum`` may add pairwise.
    """
    if len(T) == 0:
        return np.zeros(T.shape[1])
    return np.cumsum(np.sort(T, axis=0), axis=0)[-1]


def rel_leq(x, y) -> np.ndarray:
    """x <= y elementwise, up to REL_TOL times the larger magnitude.

    False where x - y is infinite or NaN.
    """
    x, y = np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)
    with np.errstate(invalid="ignore", over="ignore"):
        diff = x - y
        tol = REL_TOL * np.maximum(np.abs(x), np.abs(y))
        return (x <= y) | (np.isfinite(diff) & (diff <= tol))
