"""The affectance-term kernel: every (len_w / d(s_w, x))^alpha of the package.

The interference measure, slot feasibility, the greedy scheduler and the
exact oracle's term matrix are all sums of this one term.  They get it from
here, a block of terms at a time.  Blocks are receiver-major: row j holds
the terms of every sender on the evaluation point X[j], so each sum runs
along the contiguous last axis.  A caller gathers what the block reads once,
in the order it needs, and slices it per block: ``coords`` of the senders
and of the evaluation points, and the senders' lengths.  For a Euclidean
metric coordinates are points and ``euclid`` takes the distances; for a
matrix they are node ids, and each block gathers its rows of the transposed
matrix, which are small.  Callers split their work with ``blocks`` so that
no temporary grows beyond about ``BLOCK`` elements or one row of n terms,
whatever the instance size.

The arithmetic follows the scalar forms it replaced.  Powers use
``np.float_power``, which calls the C library ``pow`` as Python's ``**``
does; ``np.power`` may take a SIMD path that differs in the last bit.
``ascending_sums`` adds each row left to right in ascending order, as
``sum(sorted(row))`` does.  Euclidean distances come from ``np.hypot``
and may differ from ``math.dist`` in the last bit.

Those two calls cost about 14 and 25 ns per term (one x86-64 core with
AVX-512, numpy 2.4).  ``cheap_ratios`` and
``cheap_power`` give every term for about a third of that, from ``sqrt`` of
summed squares and ``np.power``, and ``cheap_error`` bounds how far a load
summed from them can lie from the exact one.  A caller decides every test
the bound settles on the cheap load and takes ``terms`` only for the rest,
so that each output is still the exact kernel's.

``rel_leq_cut`` is the package's one 1e-9 band-edge rule: greedy, slot
feasibility and the exact oracle compare their loads with it.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from .model import REL_TOL, Instance, MatrixMetric

# Elements per temporary block.  It bounds the kernel's memory; it is not a
# user setting.
BLOCK = 1 << 14

EPS = float(np.finfo(float).eps)  # 2^-52, twice the unit roundoff


def blocks(n_items: int, per_item: int) -> Iterator[slice]:
    """Slices of range(n_items), each of max(1, BLOCK // per_item) items or fewer."""
    step = max(1, BLOCK // per_item)
    for start in range(0, n_items, step):
        yield slice(start, min(start + step, n_items))


def coords(inst: Instance, nodes: np.ndarray) -> np.ndarray:
    """What ``dist`` reads of the nodes: their points, or their ids for a matrix."""
    metric = inst.metric
    if isinstance(metric, MatrixMetric):
        return np.asarray(nodes)
    return metric.points[nodes]


def dist(inst: Instance, S: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Block D[j, i] = d(S[i], X[j]) for the ``coords`` S of senders and X of points."""
    metric = inst.metric
    if isinstance(metric, MatrixMetric):
        # Rows of d.T read d[s, x], never d[x, s].  Adding 0.0 turns a -0.0
        # entry into 0.0, so that a zero distance divides to +inf.
        D = metric.d.T[np.ix_(X, S)]
        D += 0.0
        return D
    return euclid(S, X[:, None])


def euclid(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean distances between the points a[..., :] and b[..., :], broadcast.

    Pass sender positions as ``a`` and evaluation points as ``b``: every
    distance of the package is taken in that order.
    """
    with np.errstate(over="ignore"):  # points farther apart than the float range are at inf
        d = a[..., 0] - b[..., 0]
        if a.shape[-1] == 1:
            return np.abs(d, out=d)
        for k in range(1, a.shape[-1]):  # hypot ignores the signs
            np.hypot(d, a[..., k] - b[..., k], out=d)
    return d


def cheap_ratios(inst: Instance, S: np.ndarray, L: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Block Q[j, i] = L[i] / d(S[i], X[j]) with cheap Euclidean distances.

    Same arguments and layout as ``terms``.  A Euclidean distance is the
    ``sqrt`` of the summed squared coordinate differences when the points
    are ``squares_in_range``, a check made once per instance; otherwise,
    and for a matrix, it is the exact kernel's ``dist``.  0/0 is NaN, which
    no cheap decision settles.
    """
    metric = inst.metric
    if isinstance(metric, MatrixMetric) or not metric.squares_in_range:
        D = dist(inst, S, X)
    else:
        a, b = S, X[:, None]
        D = a[..., 0] - b[..., 0]
        D *= D
        for k in range(1, a.shape[-1]):
            e = a[..., k] - b[..., k]
            D += np.multiply(e, e, out=e)
        np.sqrt(D, out=D)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.divide(L, D, out=D)


def cheap_power(Q: np.ndarray, alpha: float) -> np.ndarray:
    """The cheap terms Q^alpha of ``cheap_ratios``, by ``np.power``."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.power(Q, alpha)


def cheap_error(inst: Instance, k: int) -> tuple[float, float]:
    """(r, f): a load of at most k cheap terms B and its exact load A satisfy
    B(1 - r) - f <= A <= B(1 + r) + f, whatever order either sum takes.

    The exact load has the same terms from ``terms``.  r is +inf where the
    bound settles nothing.

    Per term.  With u = 2^-53, the cheap and the exact distance of the same
    rounded coordinate differences in m dimensions differ by at most
    (m/2 + 1)u (the squares, the m - 1 additions and ``sqrt``) plus 2(m - 1)u
    (m - 1 ``hypot`` calls within an ulp each); a matrix entry is the same in
    both.  The two divisions add 2u, so the ratios differ by a factor within
    1 +- s, s = (3m + 4)u, and their alpha-th powers by a factor within
    1 +- expm1(alpha*s), plus an ulp or two for each ``pow``.  So the exact
    term T and the cheap term C satisfy

        C(1 - E) - 2^-1021 <= T <= C(1 + E) + 2^-1021,
        E = max(2^-30, 2*expm1(alpha*s) + 64*eps),

    where 2^-1021 covers a term that underflows in either form.  Where one
    form overflows to +inf, the other is at least 2^1022.  E is twice the
    bound and more, which covers the rounding of the callers' arithmetic on
    r and f; the floor 2^-30 keeps any ``pow`` whose last bits differ far
    inside it (with alpha = 3 in the plane the derived part is 94 eps).

    Per load.  A sum of k nonnegative terms in any order is within a factor
    1 +- gamma, gamma = (k - 1)u / (1 - (k - 1)u), of the exact sum of its
    terms.  So r = E + 2k*eps*(1 + E) and f = k*2^-1020, or r = +inf where
    that r is 1 or more.
    """
    metric = inst.metric
    m = 0 if isinstance(metric, MatrixMetric) else metric.dim
    try:
        e = max(2.0**-30, 2.0 * math.expm1(inst.params.alpha * (3 * m + 4) * 2.0**-53) + 64 * EPS)
    except OverflowError:
        e = math.inf
    r = e + 2 * k * EPS * (1.0 + e)
    return (r if r < 1.0 else math.inf), k * 2.0**-1020


def cheap_cuts(inst: Instance, cut: float, k: int) -> tuple[float, float]:
    """(below, above) for loads of at most k cheap terms.

    A cheap load at most ``below`` has an exact load at most ``cut``; one
    above ``above`` has an exact load above ``cut``.  A cheap load in
    between, or NaN, settles nothing.  ``above`` is +inf for cuts of 2^1021
    or more, where a cheap +inf may stand for an exact 2^1022.
    """
    r, f = cheap_error(inst, k)
    if r == math.inf:
        return -math.inf, math.inf
    return (cut - f) / (1.0 + r), (cut + f) / (1.0 - r) if cut < 2.0**1021 else math.inf


def ratio_power(num: np.ndarray, den: np.ndarray, alpha: float) -> np.ndarray:
    """(num / den)^alpha elementwise; +inf where den is 0 or the power overflows.

    ``den`` holds no -0.0, so a positive num over 0 is already +inf.
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        out = np.float_power(num / den, alpha)
    if not (num > 0.0).all():  # 0/0 is NaN
        out[den == 0.0] = np.inf
    return out


def terms(inst: Instance, S: np.ndarray, L: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Block T[j, i] = (L[i] / d(S[i], X[j]))^alpha, one row per evaluation point.

    S and X are ``coords`` of sender and evaluation nodes, and L the senders'
    link lengths; pass the ``coords`` of ``inst.receivers[V]`` as X for the
    terms on links V.
    """
    return ratio_power(L, dist(inst, S, X), inst.params.alpha)


def ascending_sums(T: np.ndarray) -> np.ndarray:
    """Each row of T summed left to right in ascending order.

    Equal bit for bit to ``sum(sorted(row))``: cumulative sums are strictly
    sequential, where ``np.sum`` may add pairwise.
    """
    if T.shape[-1] == 0:
        return np.zeros(T.shape[:-1])
    s = np.sort(T, axis=-1)
    return np.cumsum(s, axis=-1, out=s)[..., -1]


def rel_leq_cut(y: float) -> float:
    """The largest float x with x <= y up to REL_TOL times the larger magnitude.

    Every threshold test of the package is ``load <= rel_leq_cut(thr)``.
    The test behind the cut, x <= y or a finite x - y <= REL_TOL *
    max(|x|, |y|), is monotone in x: above y, x - y grows by an ulp of x per
    step of x and the tolerance by far less.  So one comparison with the cut
    is that test, and a NaN load fails it.  The cut lies within a few ulps
    of y + REL_TOL * |y|, and a few ``nextafter`` steps find it.  An
    infinite or NaN y is its own cut.
    """
    def leq(x: float) -> bool:
        diff = x - y
        return x <= y or (math.isfinite(diff) and diff <= REL_TOL * max(abs(x), abs(y)))

    y = float(y)
    if not math.isfinite(y):
        return y
    x = y + REL_TOL * abs(y)
    while not leq(x):
        x = math.nextafter(x, -math.inf)
    while leq(math.nextafter(x, math.inf)):
        x = math.nextafter(x, math.inf)
    return x
