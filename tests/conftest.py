"""Shared fixtures: pinned worked examples and seeded random-instance makers."""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Iterator

import pytest

from fairlot import lp
from fairlot.core import FractionalAllocation, Instance, IntegralAllocation


@pytest.fixture(autouse=True)
def dual_certificates(monkeypatch):
    # every optimal solve in the suite must also pass the strong-duality check
    monkeypatch.setattr(lp, "VERIFY_OPTIMALITY", True)


@pytest.fixture
def swap4() -> Instance:
    # two agents, four goods; agent 2 swaps the middle two ranks
    return Instance.from_rows([[8, 4, 2, 1], [8, 2, 4, 1]])


# the four equally likely outcomes, in canonical (matrix-sorted) order
SWAP4_SUPPORT = (
    ((0, 1, 0, 1), (1, 0, 1, 0)),
    ((0, 1, 1, 0), (1, 0, 0, 1)),
    ((1, 0, 0, 1), (0, 1, 1, 0)),
    ((1, 1, 0, 0), (0, 0, 1, 1)),
)


@pytest.fixture
def swap4_matrices() -> tuple[tuple[tuple[int, ...], ...], ...]:
    return SWAP4_SUPPORT


@pytest.fixture
def cycle3() -> Instance:
    # cyclic near-tie instance at epsilon = 1/10
    return Instance.from_rows(
        [
            ["11/10", "1", "3/5"],
            ["3/5", "11/10", "1"],
            ["11/10", "3/5", "1"],
        ]
    )


@pytest.fixture
def tilt2() -> Instance:
    return Instance.from_rows([[1, 2], [1, 3]])


@pytest.fixture
def shift4() -> Instance:
    return Instance.from_rows([[10, 6, 4, 2], [2, 10, 6, 4]])


@pytest.fixture
def shift4_x() -> FractionalAllocation:
    return FractionalAllocation.from_rows(
        [
            ["3/5", "2/5", "2/5", "3/5"],
            ["2/5", "3/5", "3/5", "2/5"],
        ]
    )


@pytest.fixture
def shift4_certificate() -> tuple[tuple[Fraction, IntegralAllocation], ...]:
    # one known-valid decomposition of shift4_x (weights 2/5, 1/5, 2/5)
    parts = (
        IntegralAllocation.from_bundles(2, 4, [(0, 2), (1, 3)]),
        IntegralAllocation.from_bundles(2, 4, [(0, 3), (1, 2)]),
        IntegralAllocation.from_bundles(2, 4, [(1, 3), (0, 2)]),
    )
    weights = (Fraction(2, 5), Fraction(1, 5), Fraction(2, 5))
    return tuple(zip(weights, parts))


@pytest.fixture
def bads3() -> Instance:
    return Instance.from_rows([[-1, -2, -3], [-1, -2, -3]])


@pytest.fixture
def weak3() -> Instance:
    # one strong good valued by all, one weak good valued only by agent 2
    return Instance.from_rows([[1, 0], [1, 0], [1, 1]])


@pytest.fixture
def mixed4() -> Instance:
    return Instance.from_rows([[2, -1, 1, -2], [-1, 2, -2, 1]])


def random_goods(rng: random.Random, n_max: int = 4, m_max: int = 8, vmax: int = 10) -> Instance:
    """Random goods instance; every column gets at least one positive valuer."""
    n = rng.randint(2, n_max)
    m = rng.randint(2, m_max)
    values = [[rng.randint(0, vmax) for _ in range(m)] for _ in range(n)]
    for j in range(m):
        if all(values[i][j] == 0 for i in range(n)):
            values[rng.randrange(n)][j] = rng.randint(1, vmax)
    return Instance.from_rows(values)


def random_positive_goods(rng: random.Random, n_max: int = 4, m_max: int = 7, vmax: int = 10) -> Instance:
    """Random goods instance with strictly positive values (no zero rows/columns)."""
    n = rng.randint(2, n_max)
    m = rng.randint(2, m_max)
    return Instance.from_rows([[rng.randint(1, vmax) for _ in range(m)] for _ in range(n)])


def random_bads(rng: random.Random, n_max: int = 3, m_max: int = 6, vmax: int = 10) -> Instance:
    n = rng.randint(2, n_max)
    m = rng.randint(2, m_max)
    values = [[-rng.randint(0, vmax) for _ in range(m)] for _ in range(n)]
    if all(v == 0 for row in values for v in row):
        values[0][0] = -1
    return Instance.from_rows(values)


# one round of the eating benchmark's inputs
EATING_ROUND = ("goods", "goods", "bads", "goods", "goods", "mixed")


def eating_inputs(rng: random.Random, count: int) -> Iterator[tuple[str, Instance]]:
    """``count`` instances drawn like the eating benchmark's, each with its kind:
    goods and bads from the makers above, mixed items from {-3..3} minus 0."""
    for k in range(count):
        kind = EATING_ROUND[k % len(EATING_ROUND)]
        if kind == "goods":
            yield kind, random_goods(rng)
        elif kind == "bads":
            yield kind, random_bads(rng)
        else:
            m = rng.randint(2, 5)
            rows = [[rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(m)] for _ in range(rng.randint(2, 3))]
            yield kind, Instance.from_rows(rows)


def random_integral(rng: random.Random, instance: Instance) -> IntegralAllocation:
    """A uniformly random complete integral allocation of the instance's items."""
    owners = [rng.randrange(instance.n) for _ in range(instance.m)]
    matrix = tuple(
        tuple(1 if owners[j] == i else 0 for j in range(instance.m)) for i in range(instance.n)
    )
    return IntegralAllocation(matrix)
