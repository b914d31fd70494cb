"""Deterministic instance generators for tests and benchmarks.

Randomness comes from splitmix64 (Steele, Lea & Flood's 64-bit mix), chosen
over a stdlib generator so the exact byte-level fixtures can be reproduced
from the documented algorithm in any language.  Doubles are derived as
(x >> 11) * 2^-53.  For the random-euclidean family the draw order is, per
link in id order: sender x, sender y, heading angle, length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import EuclideanMetric, Instance, MatrixMetric, PhysicalParams

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """splitmix64: golden-gamma increment plus a 64-bit finalizer mix."""

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def random(self) -> float:
        """Uniform double in [0, 1)."""
        return (self.next_u64() >> 11) * 2.0**-53

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.random()


@dataclass(frozen=True)
class GenSpec:
    """Parameters for the random-euclidean family."""

    n: int
    params: PhysicalParams
    box: float = 100.0
    lmin: float = 1.0
    lmax: float = 2.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("n must be >= 0")
        if not all(math.isfinite(x) for x in (self.box, self.lmin, self.lmax)):
            raise ValueError("box, lmin and lmax must be finite")
        if not self.lmin > 0:
            raise ValueError("lmin must be > 0")
        if self.lmax < self.lmin:
            raise ValueError("lmax must be >= lmin")
        if self.lmax > self.box:
            raise ValueError("lmax must not exceed the box side")


def _link_pairs(points: list[tuple[float, ...]], params: PhysicalParams) -> Instance:
    """Links over Euclidean points: nodes 2i and 2i+1 are the sender and receiver of link i."""
    nodes = 2 * np.arange(len(points) // 2)
    return Instance(
        metric=EuclideanMetric(points=points), senders=nodes, receivers=nodes + 1, params=params
    )


def random_euclidean(spec: GenSpec) -> Instance:
    """Uniform senders in a square box, receivers at random heading/length.

    Receivers may land slightly outside the box.  Nodes 2i and 2i+1 are the
    sender and receiver of link i.
    """
    rng = SplitMix64(spec.seed)
    points: list[tuple[float, ...]] = []
    for _ in range(spec.n):
        sx = rng.uniform(0.0, spec.box)
        sy = rng.uniform(0.0, spec.box)
        angle = rng.uniform(0.0, 2.0 * math.pi)
        length = rng.uniform(spec.lmin, spec.lmax)
        points.append((sx, sy))
        points.append((sx + length * math.cos(angle), sy + length * math.sin(angle)))
    return _link_pairs(points, spec.params)


def collocated(k: int, params: PhysicalParams) -> Instance:
    """k unit links stacked on one spot: all senders coincide, all receivers
    coincide, every cross distance equals the link length.

    Worst case for concurrency; the optimal schedule needs k slots whenever
    beta > 1.  Built as a distance matrix (senders are nodes 0..k-1,
    receivers k..2k-1).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    is_sender = np.arange(2 * k) < k
    d = (is_sender[:, None] != is_sender[None, :]).astype(np.float64)
    senders = np.arange(k)
    return Instance(
        metric=MatrixMetric(d=d), senders=senders, receivers=k + senders, params=params
    )


def spread(k: int, separation: float, params: PhysicalParams) -> Instance:
    """k unit links along a line with consecutive senders ``separation`` apart.

    With separation comfortably above c * k^(1/alpha) all links fit in one
    slot.  Nodes 2i and 2i+1 are the sender and receiver of link i.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not 0 < separation < math.inf:
        raise ValueError("separation must be > 0 and finite")
    points: list[tuple[float, ...]] = []
    for i in range(k):
        x = i * separation
        points.append((x,))
        points.append((x + 1.0,))
    return _link_pairs(points, params)
