"""Shared fixtures: pinned worked examples and seeded random-instance makers."""

from __future__ import annotations

import _thread
import faulthandler
import random
import sys
import threading
from fractions import Fraction
from typing import Iterator

import pytest

import oracles
from fairlot import lp
from fairlot.core import FractionalAllocation, Instance, IntegralAllocation


def certified(solve_standard):
    """``solve_standard`` with every optimal return checked against the input cost by
    ``oracles.certify_standard_reference``, looked up at call time so a test can swap it."""

    def solve(rows, rhs, cost):
        result = solve_standard(rows, rhs, cost)
        status, values, basis, kept = result
        if status == lp.OPTIMAL:
            # a row negated to make its rhs nonnegative only negates its dual
            oracles.certify_standard_reference([rows[r] for r in kept], [rhs[r] for r in kept], cost, basis, values)
        return result

    return solve


# The slowest tests take about 5 s on a 2-core host: a test still running after
# this many seconds hangs (a search that loops forever, say), and the watchdog
# below fails it.
TEST_TIME_LIMIT_S = 60


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    """Fail a test that runs past ``TEST_TIME_LIMIT_S``: a timer interrupts the main
    thread, and the interrupt becomes this test's failure, so the suite goes on.
    faulthandler dumps every thread's stack to the test's captured stderr at the
    same moment, which shows where a test stuck in native code hangs too."""
    timed_out = threading.Event()

    def interrupt() -> None:
        timed_out.set()
        _thread.interrupt_main()

    timer = threading.Timer(TEST_TIME_LIMIT_S, interrupt)
    faulthandler.dump_traceback_later(TEST_TIME_LIMIT_S, file=sys.__stderr__)
    timer.start()
    try:
        return (yield)
    except KeyboardInterrupt:
        if not timed_out.is_set():
            raise
        pytest.fail(f"ran past the {TEST_TIME_LIMIT_S}-s limit of every test")
    finally:
        timer.cancel()
        faulthandler.cancel_dump_traceback_later()


@pytest.fixture(autouse=True)
def dual_certificates(monkeypatch):
    # every optimal solve in the suite must also pass the strong-duality check
    monkeypatch.setattr(lp, "_solve_standard", certified(lp._solve_standard))


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


def mnw_inputs(rng: random.Random, count: int) -> Iterator[Instance]:
    """``count`` goods instances for the MNW solver, cycling through: the gf-audit
    shapes (2-4 agents, 2-7 items, values 1-10), one agent, one item, zero rows,
    ties (repeated rows over {1, 2}), exact values such as 1/3, 1e-400 and 1e400,
    near ties from 10^3 to 10^17, and the instance that ``mnw_v`` hands to ``solve_mnw``
    once single-bidder items are carved out."""
    for k in range(count):
        case = k % 8
        if case == 0:
            n, m = rng.randint(2, 4), rng.randint(2, 7)
            rows = [[rng.randint(1, 10) for _ in range(m)] for _ in range(n)]
        elif case == 1:
            rows = [[rng.randint(1, 9) for _ in range(rng.randint(1, 6))]]
        elif case == 2:
            rows = [[rng.randint(0, 5)] for _ in range(rng.randint(1, 5))]
        elif case == 3:
            rows = [list(row) for row in random_goods(rng, n_max=5, m_max=7, vmax=6).values]
            for i in rng.sample(range(len(rows)), rng.randint(1, len(rows) - 1)):
                rows[i] = [0] * len(rows[i])
        elif case == 4:
            m = rng.randint(1, 6)
            base = [[rng.randint(1, 2) for _ in range(m)] for _ in range(rng.randint(1, 3))]
            rows = [list(rng.choice(base)) for _ in range(rng.randint(2, 5))]
        elif case == 5:
            m = rng.randint(1, 5)
            values = (0, 1, 3, "1/3", "2/7", "5/2", "1e-400", "1e400")
            rows = [[rng.choice(values) for _ in range(m)] for _ in range(rng.randint(1, 4))]
        elif case == 6:
            scale = 10 ** rng.choice((3, 4, 8, 12, 17))
            m = rng.randint(1, 6)
            rows = [[scale + rng.randint(0, 3) for _ in range(m)] for _ in range(rng.randint(2, 4))]
        else:
            full = random_goods(rng, n_max=4, m_max=8, vmax=3)
            strong = [j for j in range(full.m) if sum(row[j] > 0 for row in full.values) > 1] or [0]
            rows = [[row[j] for j in strong] for row in full.values]
        for j in range(len(rows[0])):
            if all(Fraction(row[j]) == 0 for row in rows):
                rows[rng.randrange(len(rows))][j] = rng.randint(1, 4)
        yield Instance.from_rows(rows)


def random_integral(rng: random.Random, instance: Instance) -> IntegralAllocation:
    """A uniformly random complete integral allocation of the instance's items."""
    owners = [rng.randrange(instance.n) for _ in range(instance.m)]
    matrix = tuple(
        tuple(1 if owners[j] == i else 0 for j in range(instance.m)) for i in range(instance.n)
    )
    return IntegralAllocation(matrix)


# the exact values of utility_inputs: fractions, decimals down to 1e-30, and zeros
EXACT_VALUES = (0, 1, 3, 12, "1/3", "2/7", "5/2", "7/10", "0.25", "1e-30")


def random_complete(rng: random.Random, n: int, m: int) -> FractionalAllocation:
    """A complete fractional allocation: each item split by random weights 0-3."""
    columns = []
    for _ in range(m):
        weights = [rng.randint(0, 3) for _ in range(n)]
        if not any(weights):
            weights[rng.randrange(n)] = 1
        columns.append([Fraction(w, sum(weights)) for w in weights])
    return FractionalAllocation(tuple(tuple(column[i] for column in columns) for i in range(n)))


def utility_inputs(rng: random.Random, count: int) -> Iterator[tuple[Instance, FractionalAllocation]]:
    """``count`` (instance, complete allocation) pairs for the utility-based checks,
    cycling through: int goods and exact-valued goods (``EXACT_VALUES``, some rows
    all zero) with their ``solve_mnw`` allocation, goods under a random allocation,
    bads with exact negative values and zero rows, and mixed values, each under a
    random allocation."""
    from fairlot.mnw import solve_mnw

    for k in range(count):
        case = k % 5
        n, m = rng.randint(2, 4), rng.randint(1, 6)
        if case in (0, 2):
            rows = [list(row) for row in random_goods(rng, n_max=4, m_max=6).values]
        elif case == 1:
            rows = [[rng.choice(EXACT_VALUES) for _ in range(m)] for _ in range(n)]
        elif case == 3:
            rows = [[f"-{v}" if v else 0 for v in (rng.choice(EXACT_VALUES) for _ in range(m))] for _ in range(n)]
        else:
            rows = [[rng.choice((-1, 1)) * Fraction(rng.choice(EXACT_VALUES)) for _ in range(m)] for _ in range(n)]
        if case in (1, 3) and rng.random() < 0.3:
            rows[rng.randrange(len(rows))] = [0] * len(rows[0])
        if case == 1:
            for j in range(m):
                if all(Fraction(row[j]) == 0 for row in rows):
                    rows[rng.randrange(n)][j] = rng.choice(EXACT_VALUES[1:])
        inst = Instance.from_rows(rows)
        x = solve_mnw(inst).allocation if case in (0, 1) else random_complete(rng, inst.n, inst.m)
        yield inst, x
