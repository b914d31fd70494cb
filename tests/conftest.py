from __future__ import annotations

import numpy as np
import pytest

from linsched import GenSpec, Instance, MatrixMetric, PhysicalParams, random_euclidean
from linsched.gen import SplitMix64


@pytest.fixture
def params():
    return PhysicalParams(alpha=3.0, beta=2.0)


def make_random_instance(seed: int, n: int = 8, box: float = 20.0, params=None):
    params = params or PhysicalParams(alpha=3.0, beta=2.0)
    return random_euclidean(GenSpec(n=n, params=params, box=box, seed=seed))


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
