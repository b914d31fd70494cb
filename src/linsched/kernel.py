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
AVX-512, numpy 2.4), about 36 ns with the block around them.  The cheap
pass gives every term for about 4 ns.  On points scaled by a power of two,
``float32_scale``, and gathered one contiguous row per axis
(``cheap_coords``), ``cheap_distances`` sums squared coordinate differences
in float64, and ``cheap_power`` takes the float32 ``np.power`` of them times
a float32 length^alpha per sender.  Distance matrices and points outside
the float32 range take the exact distances and a float64 ``np.power``
instead.  ``cheap_bound`` and ``cheap_error`` bound how far a load summed
from cheap terms can lie from the exact one.  A caller decides every test
the bound settles on the cheap load and takes ``terms`` only for the rest,
so that each output is still the exact kernel's; the interference measure
bounds its near field with ``cheap_bound`` per term.

``rel_leq_cut`` is the package's one 1e-9 band-edge rule: greedy, slot
feasibility and the exact oracle compare their loads with it.
"""

from __future__ import annotations

import math
from typing import Iterator, NamedTuple

import numpy as np

from .model import REL_TOL, Instance, MatrixMetric

# Elements per temporary block.  It bounds the kernel's memory; it is not a
# user setting.
BLOCK = 1 << 14

EPS = float(np.finfo(float).eps)  # 2^-52, twice the unit roundoff
U32 = 2.0**-24  # the float32 unit roundoff

# The relative error of np.power in float32 that ``cheap_bound`` assumes:
# a generous floor, so that any SIMD path of numpy's stays inside it.  A test
# keeps the measured error under a quarter of it.
POW32_ERROR = 2.0**-19

# The float32 range of the scaled points that ``cheap_bound`` assumes and
# ``float32_scale`` checks: the bounds of a nonzero coordinate magnitude, of
# the bounding box's squared diagonal, of the shortest link and of its
# alpha-th power.
COORD_RANGE = (2.0**-400, 2.0**1000)
DIAGONAL2_MAX = 2.0**125
LENGTH_MIN = 2.0**-32
WEIGHT_MIN = 2.0**-96


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
        D = metric.d.T[X[:, None], S]
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


def float32_scale(inst: Instance) -> float:
    """The power of two by which the cheap pass scales the points for
    float32 terms, or 0.0 where the cheap terms take exact distances;
    ``Instance.cheap_scale`` keeps it.

    The scale puts the longest link in [1/2, 1).  ``cheap_bound`` holds for
    float32 terms when, after scaling:

    - every nonzero coordinate magnitude lies in ``COORD_RANGE``, so that
      the scaled points are exact and finite and no squared coordinate
      difference underflows: a float of magnitude 2^-400 or more is a
      multiple of 2^-452, so a nonzero difference of two such coordinates
      (or of one and 0) squares to at least 2^-904;
    - the bounding box's squared diagonal is at most ``DIAGONAL2_MAX``, so
      that every squared distance is a finite float32;
    - the shortest link is at least ``LENGTH_MIN`` long and its alpha-th
      power at least ``WEIGHT_MIN``.

    A distance matrix, an instance without links, one with a dimension
    below 1 and one whose longest link lies outside (2^-1020, 2^1020) take
    exact distances too.
    """
    metric = inst.metric
    if isinstance(metric, MatrixMetric) or inst.n == 0 or metric.dim < 1:
        return 0.0
    longest = float(inst.lengths.max())
    if not 2.0**-1020 < longest < 2.0**1020:  # NaN too; the scale is a normal float
        return 0.0
    scale = math.ldexp(1.0, -math.frexp(longest)[1])
    points = metric.points
    a = np.abs(points)
    # Python floats: a product or span beyond the float range is inf, unwarned.
    least = float(np.min(a, where=a > 0.0, initial=np.inf)) * scale
    most = float(a.max()) * scale
    spans = [(float(axis.max()) - float(axis.min())) * scale for axis in points.T]
    diagonal = sum(span * span for span in spans)
    shortest = float(inst.lengths.min()) * scale
    in_range = (
        COORD_RANGE[0] <= least
        and most <= COORD_RANGE[1]
        and diagonal <= DIAGONAL2_MAX
        and shortest >= LENGTH_MIN
        and shortest**inst.params.alpha >= WEIGHT_MIN
    )
    return scale if in_range else 0.0


def cheap_coords(inst: Instance, nodes: np.ndarray) -> np.ndarray:
    """What the cheap pass reads of the nodes: a row per axis, a column per node.

    Where ``inst.cheap_scale`` is nonzero, these are the points times that
    power of two, each axis one contiguous row; otherwise the transposed
    ``coords``.  Either way callers slice nodes along the last axis.
    """
    scale = inst.cheap_scale
    if not scale:
        return coords(inst, nodes).T
    return np.multiply(inst.metric.points[nodes].T, scale, order="C")


def cheap_weights(inst: Instance, L: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """What the cheap pass reads of the senders' lengths L: ``cheap_power``'s
    weights and ``received_powers``' numerators.

    Where ``inst.cheap_scale`` is nonzero, these are the float32
    (L * scale)^alpha and the float64 (L * scale)^2; otherwise both are L.
    """
    scale = inst.cheap_scale
    if not scale:
        return L, L
    scaled = L * scale
    return np.float_power(scaled, inst.params.alpha).astype(np.float32), np.square(scaled)


def cheap_distances(inst: Instance, S: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Block D[j, i] for the ``cheap_coords`` S of senders and X of points.

    S[..., i] are senders that every point shares.  For a Euclidean metric,
    S[..., j, i] may instead give point j senders of its own.  Where
    ``inst.cheap_scale`` is nonzero, D is the squared distance of the scaled
    points, summed over the axes in float64; otherwise it is the exact
    kernel's ``dist``.
    """
    if not inst.cheap_scale:
        return dist(inst, np.moveaxis(S, 0, -1), X.T)
    D = S[0] - X[0][:, None]
    D *= D
    for k in range(1, len(S)):
        e = S[k] - X[k][:, None]
        D += np.multiply(e, e, out=e)
    return D


def cheap_power(inst: Instance, D: np.ndarray, W: np.ndarray) -> np.ndarray:
    """The cheap terms of the block D of ``cheap_distances``, for senders of
    ``cheap_weights`` W; D is left as it is.

    Where ``inst.cheap_scale`` is nonzero, the float32 D^(-alpha/2) * W, with
    the exponent a float32 scalar; otherwise the float64 (L / D)^alpha by
    ``np.power``.  A zero distance gives +inf, and 0/0 NaN, which no cheap
    decision settles.
    """
    alpha = inst.params.alpha
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if not inst.cheap_scale:
            Q = np.divide(W, D)
            return np.power(Q, alpha, out=Q)
        P = D.astype(np.float32)
        np.power(P, np.float32(-alpha / 2), out=P)
        P *= W
        return P


def received_powers(inst: Instance, D: np.ndarray, R: np.ndarray) -> np.ndarray:
    """Block P[j, i] = (L[i] / d)^alpha for the block D of ``cheap_distances``
    and the numerators R of ``cheap_weights``, in float64; +inf where d = 0.

    The raw SINR form reads it, as exp(alpha * log(L / d)): a ratio of a
    length to a distance and its logarithm neither overflow nor lose bits
    with the scale of the points, where L^alpha and d^alpha would.  Where D
    holds squared distances the ratio is R / D = (L / d)^2, and the factor
    alpha / 2.
    """
    alpha = inst.params.alpha / 2 if inst.cheap_scale else inst.params.alpha
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        P = np.divide(R, D)
        np.log(P, out=P)
        P *= alpha
        return np.exp(P, out=P)


class CheapBound(NamedTuple):
    """Per term: a cheap term C at most ``huge`` and its exact term T satisfy
    C(1 - rel) - tiny <= T <= C(1 + rel) + tiny, and a cheap term above
    ``huge``, +inf included, has T > huge / 2."""

    rel: float
    tiny: float
    huge: float


def cheap_bound(inst: Instance) -> CheapBound:
    """The per-term bound of the instance's cheap terms.

    The exact term is ``terms``' float_power of (length / hypot distance).

    Exact distances (``inst.cheap_scale`` is 0.0).  Both terms divide the
    same lengths by the same distances and differ only in the power,
    ``np.power`` against ``np.float_power``, each within a few ulps.  So
    rel = 2^-30 covers any ``pow`` whose last bits differ, tiny = 2^-1021 a
    term that underflows in either form, and huge = 2^1021: where one form
    overflows to +inf, the other is at least 2^1022.

    Float32 terms.  Let u = 2^-24, e = -alpha/2, e32 the float32 e, and L
    and x the scaled length and squared distance; the scaled points lie in
    the range that ``float32_scale`` checks.  The scaled coordinate
    differences are those of the exact kernel times the scale, so:

    - the float64 sum of squares is within a factor 1 +- 2m*2^-53 of x, in
      m dimensions, and its float32 x32 within 1 +- u while it is a normal
      float32 (it is at most 2^125);
    - ``np.power(x32, e32)`` is within POW32_ERROR of x32^e32, which is
      x32^e * exp((e32 - e) * ln x32), with |ln x32| < 89;
    - the weight W = fl32(L^alpha) is within u and 2^-52 of L^alpha, and
      their product within u;
    - the exact term is within alpha*(4m + 4)*2^-53 of (L^2/x)^(alpha/2):
      m - 1 hypot calls, the division and float_power.

    Together, while no float32 value underflows, |ln(C/T)| is at most
    rho = POW32_ERROR + (alpha/2 + 2)u + 89|e32 - e| + (alpha(5m + 4) + 2)2^-53,
    and rel = 2*expm1(rho): twice the bound and more, which covers the
    rounding of the callers' arithmetic on r and f.  With alpha = 3 in the
    plane rel is about 4.2e-6.  The edges:

    - a power or product below 2^-126: C and T are both below
      2^-126(1 + rho), since W <= 1, so tiny = 2^-125 covers them;
    - a power or product that overflows to +inf: T is at least
      2^128 * W * (1 - rho), at least 2^31 since W >= WEIGHT_MIN = 2^-96;
    - x32 below 2^-126 (a float32 subnormal, or 0): the distance is below
      2^-63(1 + rho) and the length at least LENGTH_MIN = 2^-32, so
      T > 2^31, and C >= (2^63 * L)^alpha * (1 - 2rho) > 2^30
      (|ln x32| < 104), or +inf.
    So huge = 2^30: every cheap term at most 2^30 has the relative bound.
    """
    if not inst.cheap_scale:
        return CheapBound(2.0**-30, 2.0**-1021, 2.0**1021)
    alpha, m = inst.params.alpha, inst.metric.dim
    e = -alpha / 2
    rho = (
        POW32_ERROR
        + (alpha / 2 + 2) * U32
        + 89 * abs(float(np.float32(e)) - e)
        + (alpha * (5 * m + 4) + 2) * EPS / 2
    )
    return CheapBound(2.0 * math.expm1(rho), 2.0**-125, 2.0**30)


def cheap_error(bound: CheapBound, k: int) -> tuple[float, float]:
    """(r, f): a load B of at most k cheap terms, each at most ``bound.huge``,
    and its exact load A satisfy B(1 - r) - f <= A <= B(1 + r) + f, whatever
    order either sum takes.  A load with a term above huge has A > huge / 2.

    A float64 sum of k nonnegative terms in any order is within a factor
    1 +- gamma, gamma = (k - 1)u / (1 - (k - 1)u) with u = 2^-53, of the
    exact sum of its terms.  So r = rel + 2k*eps*(1 + rel) and
    f = 2k*tiny, or r = +inf where that r is 1 or more.
    """
    r = bound.rel + 2 * k * EPS * (1.0 + bound.rel)
    return (r if r < 1.0 else math.inf), 2 * k * bound.tiny


def cheap_cuts(bound: CheapBound, cut: float, k: int) -> tuple[float, float]:
    """(below, above) for loads of at most k cheap terms.

    A cheap load at most ``below`` has an exact load at most ``cut``; one
    above ``above`` has an exact load above ``cut``.  A cheap load in
    between, or NaN, settles nothing, and nothing settles a cut above
    ``bound.huge / 2``, where a cheap term above huge says too little of its
    exact one.
    """
    r, f = cheap_error(bound, k)
    if r == math.inf or not cut <= bound.huge / 2:
        return -math.inf, math.inf
    return (cut - f) / (1.0 + r), (cut + f) / (1.0 - r)


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
