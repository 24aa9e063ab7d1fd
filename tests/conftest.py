import functools
import importlib.util
import random
from fractions import Fraction
from pathlib import Path

import pytest

from latsym.network import Network

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


@functools.cache
def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def grow(n_total, gen_seed):
    """A fresh copy of the benchmark's grown nine-site network: chains hung off
    its singlet sites, (2, 6) cospectral and latent (perfbench/workloads.py)."""
    return _workloads().grow(n_total, gen_seed)


def random_network(rng, n):
    onsite = [Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(n)]
    edges = [
        (i, j, Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
        if rng.random() < 0.6
    ]
    return Network(n, onsite, edges)


def mirrored_network(rng, n):
    """Random network that swapping sites 1 and 2 maps to itself."""
    h = random_network(rng, n).hamiltonian()
    image = {0: 1, 1: 0}
    m = lambda i: image.get(i, i)
    onsite = [(h[i][i] + h[m(i)][m(i)]) / 2 for i in range(n)]
    edges = [
        (i + 1, j + 1, (h[i][j] + h[m(i)][m(j)]) / 2)
        for i in range(n)
        for j in range(i + 1, n)
    ]
    return Network(n, onsite, edges)


@pytest.fixture(scope="session")
def oracle_networks():
    """Seeded random rational networks, n = 3..8: one generic, one mirrored each."""
    rng = random.Random(2025)
    return [net for n in range(3, 9) for net in (random_network(rng, n), mirrored_network(rng, n))]
