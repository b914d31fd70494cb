from __future__ import annotations

from unittest import mock

import numpy as np
import pytest

from linsched import EuclideanMetric, GenSpec, Instance, PhysicalParams, bounds, kernel, random_euclidean
from linsched.model import MatrixMetric
from linsched.gen import SplitMix64


@pytest.fixture
def params():
    return PhysicalParams(alpha=3.0, beta=2.0)


def make_random_instance(seed: int, n: int = 8, box: float = 20.0, params=None):
    params = params or PhysicalParams(alpha=3.0, beta=2.0)
    return random_euclidean(GenSpec(n=n, params=params, box=box, seed=seed))


def link_terms(inst: Instance, W, nodes) -> np.ndarray:
    """The package kernel's block T[j, i]: the term of link W[i] at node nodes[j]."""
    W = np.asarray(W, dtype=np.intp)
    S, X = kernel.coords(inst, inst.senders[W]), kernel.coords(inst, np.asarray(nodes, dtype=np.intp))
    return kernel.terms(inst, S, inst.lengths[W], X)


def term_on(inst: Instance, w: int, v: int) -> float:
    """The package kernel's term of link w on link v."""
    return float(link_terms(inst, [w], inst.receivers[[v]])[0, 0])


def affectance_on(inst: Instance, v: int, members) -> float:
    """Affectance on link v from ``members`` (v excluded), summed by the package kernel."""
    W = [w for w in members if w != v]
    return float(kernel.ascending_sums(link_terms(inst, W, inst.receivers[[v]]))[0])


def full_scan_measure(members, inst: Instance) -> tuple[float, int]:
    """``interference_measure`` with every node's bounds at -inf and +inf: the full scan."""
    unbounded = lambda inst, W, nodes: (np.full(len(nodes), -np.inf), np.full(len(nodes), np.inf))  # noqa: E731
    with mock.patch.object(bounds, "_node_bounds", unbounded):
        return bounds.interference_measure(members, inst)


def with_far_links(inst: Instance, k: int = 8) -> Instance:
    """The planar instance and k more links of length 1 to 2, spread over a
    box of 1e30: squared distances beyond the float32 range."""
    rng = np.random.default_rng(k)
    x, length = rng.uniform(0.0, 1e30, k), rng.uniform(1.0, 2.0, k)
    far = np.column_stack([x, np.zeros(k), x, length]).reshape(2 * k, 2)  # sender, then receiver
    first = len(inst.metric.points)
    return Instance(EuclideanMetric(points=np.vstack([inst.metric.points, far])),
                    [*inst.senders, *range(first, first + 2 * k, 2)],
                    [*inst.receivers, *range(first + 1, first + 2 * k, 2)], inst.params)


def line_pseudometric(seed: int, n: int = 12) -> Instance:
    """Nodes on an integer line, many sharing a position: zero cross distances."""
    rng = SplitMix64(seed)
    xs = []
    for _ in range(n):
        s = int(rng.random() * 40)
        xs += [s, s + 1 + int(rng.random() * 2)]
    d = tuple(tuple(float(abs(a - b)) for b in xs) for a in xs)
    nodes = 2 * np.arange(n)
    return Instance(MatrixMetric(d=d), nodes, nodes + 1, PhysicalParams(alpha=3.0, beta=2.0))
