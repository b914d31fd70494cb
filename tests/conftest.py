from __future__ import annotations

import numpy as np
import pytest

from linsched import GenSpec, Instance, PhysicalParams, kernel, random_euclidean
from linsched.model import MatrixMetric
from linsched.gen import SplitMix64


@pytest.fixture
def params():
    return PhysicalParams(alpha=3.0, beta=2.0)


def make_random_instance(seed: int, n: int = 8, box: float = 20.0, params=None):
    params = params or PhysicalParams(alpha=3.0, beta=2.0)
    return random_euclidean(GenSpec(n=n, params=params, box=box, seed=seed))


def term_on(inst: Instance, w: int, v: int) -> float:
    """The package kernel's term of link w on link v."""
    return float(kernel.terms(inst, np.array([w]), inst.receivers[[v]])[0, 0])


def affectance_on(inst: Instance, v: int, members) -> float:
    """Affectance on link v from ``members`` (v excluded), summed by the package kernel."""
    W = np.array([w for w in members if w != v], dtype=np.intp)
    return float(kernel.ascending_sums(kernel.terms(inst, W, inst.receivers[[v]]))[0])


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
