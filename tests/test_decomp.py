"""Lottery decompositions: quota satisfaction, exact marginals, support bounds."""

from __future__ import annotations

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fairlot.core import (
    FractionalAllocation,
    InputError,
    Instance,
    IntegralAllocation,
    Lottery,
    lottery_to_json,
)
from fairlot.decomp import (
    Bihierarchy,
    ConstraintSet,
    bihierarchy_decompose,
    bvn_constraints,
    bvn_decompose,
    prefix_constraints,
    reduce_support,
)
from fairlot.mnw import solve_mnw

from conftest import random_goods, random_integral

F = Fraction


def quota_satisfied(part: IntegralAllocation, hierarchy: Bihierarchy) -> bool:
    for cs in hierarchy.all_sets():
        total = sum(part.matrix[i][j] for (i, j) in cs.cells)
        if not cs.lower <= total <= cs.upper:
            return False
    return True


def fractional_cells(x: FractionalAllocation) -> int:
    return sum(1 for row in x.matrix for v in row if 0 < v < 1)


def random_substochastic(rng: random.Random, n: int, m: int) -> FractionalAllocation:
    """Random matrix with row and column sums at most one."""
    raw = [[F(rng.randint(0, 4), 12) for _ in range(m)] for _ in range(n)]
    scale = max(
        [sum(row, F(0)) for row in raw]
        + [sum(raw[i][j] for i in range(n)) for j in range(m)]
        + [F(1)]
    )
    return FractionalAllocation(tuple(tuple(v / scale for v in row) for row in raw))


def random_doubly_stochastic(rng: random.Random, n: int) -> FractionalAllocation:
    """Dense doubly stochastic matrix: a random weighted mix of 2n permutation matrices."""
    counts = [[0] * n for _ in range(n)]
    total = 0
    for _ in range(2 * n):
        w = rng.randint(1, 9)
        total += w
        for i, j in enumerate(rng.sample(range(n), n)):
            counts[i][j] += w
    return FractionalAllocation(tuple(tuple(F(v, total) for v in row) for row in counts))


def lottery_line(lot: Lottery) -> str:
    return json.dumps(lottery_to_json(lot), separators=(",", ":"))


class TestConstraintSet:
    def test_rejects_empty(self):
        with pytest.raises(InputError):
            ConstraintSet(frozenset(), 0, 1)

    def test_rejects_inverted_quotas(self):
        with pytest.raises(InputError):
            ConstraintSet(frozenset({(0, 0)}), 2, 1)

    def test_rejects_fractional_quotas(self):
        with pytest.raises(InputError):
            ConstraintSet(frozenset({(0, 0)}), 0, F(1, 2))


class TestBihierarchy:
    def test_partial_overlap_rejected(self):
        a = ConstraintSet(frozenset({(0, 0), (0, 1)}), 0, 1)
        b = ConstraintSet(frozenset({(0, 1), (0, 2)}), 0, 1)
        with pytest.raises(InputError):
            Bihierarchy((a, b), ())

    def test_nested_and_disjoint_accepted(self):
        a = ConstraintSet(frozenset({(0, 0), (0, 1)}), 0, 2)
        b = ConstraintSet(frozenset({(0, 0)}), 0, 1)
        c = ConstraintSet(frozenset({(1, 0), (1, 1)}), 0, 1)
        Bihierarchy((a, b, c), ())

    def test_crossing_inside_a_common_superset_rejected(self):
        # {01, 02} lies inside the row set but crosses both halves of it
        row = ConstraintSet(frozenset({(0, 0), (0, 1), (0, 2), (0, 3)}), 0, 4)
        left = ConstraintSet(frozenset({(0, 0), (0, 1)}), 0, 2)
        right = ConstraintSet(frozenset({(0, 2), (0, 3)}), 0, 2)
        cross = ConstraintSet(frozenset({(0, 1), (0, 2)}), 0, 2)
        Bihierarchy((cross, row), ())
        Bihierarchy((left, right, row), ())
        with pytest.raises(InputError, match="H1 is not laminar"):
            Bihierarchy((cross, left, right, row), ())
        with pytest.raises(InputError, match="H2 is not laminar"):
            Bihierarchy((), (row, right, left, cross))

    def test_cross_family_duplicate_rejected(self):
        a = ConstraintSet(frozenset({(0, 0)}), 0, 1)
        with pytest.raises(InputError):
            Bihierarchy((a,), (a,))


class TestBvnDecompose:
    def test_swap4_first_stage(self, swap4):
        x1 = FractionalAllocation.from_rows(
            [["1/2", "1/2", "0", "0"], ["1/2", "0", "1/2", "0"]]
        )
        lot = bvn_decompose(x1)
        assert lot.marginal == x1
        assert len(lot) <= fractional_cells(x1) + 1
        hierarchy = bvn_constraints(x1)
        assert all(quota_satisfied(part, hierarchy) for _, part in lot.support)
        # every part gives each agent exactly one item (row sums are integral here)
        for _, part in lot.support:
            assert all(sum(row) == 1 for row in part.matrix)

    def test_permutation_matrix_identity(self):
        x = FractionalAllocation.from_rows([["0", "1"], ["1", "0"]])
        lot = bvn_decompose(x)
        assert len(lot) == 1
        assert lot.support[0][1].bundles == ((1,), (0,))

    def test_half_mix(self):
        x = FractionalAllocation.from_rows([["1/2", "1/2"], ["1/2", "1/2"]])
        lot = bvn_decompose(x)
        assert lot.marginal == x
        assert len(lot) == 2
        assert all(w == F(1, 2) for w, _ in lot.support)

    def test_row_sum_violation_rejected(self):
        x = FractionalAllocation.from_rows([["1", "1/2"], ["0", "1/2"]])
        with pytest.raises(InputError):
            bvn_decompose(x)


class TestPrefixConstraints:
    def test_shift4_agent1_quotas(self, shift4, shift4_x):
        hierarchy = prefix_constraints(shift4, shift4_x)
        runs = {}
        for cs in hierarchy.h1:
            if {i for (i, _) in cs.cells} == {0}:
                runs[len(cs.cells)] = (cs.lower, cs.upper)
        # agent 1 value order is item order; prefix sums 3/5, 1, 7/5, 2
        assert runs[1] == (0, 1)
        assert runs[2] == (1, 1)
        assert runs[3] == (1, 2)
        assert runs[4] == (2, 2)

    def test_integral_input_all_tight(self):
        inst = Instance.from_rows([[2, 1], [1, 2]])
        x = FractionalAllocation.from_rows([["1", "0"], ["0", "1"]])
        hierarchy = prefix_constraints(inst, x)
        for cs in hierarchy.all_sets():
            total = sum(x.matrix[i][j] for (i, j) in cs.cells)
            assert cs.lower <= total <= cs.upper
            if len(cs.cells) > 1:
                assert cs.lower == cs.upper == total

    def test_uniform_square_quotas(self):
        inst = Instance.from_rows([[3, 2, 1], [3, 2, 1], [3, 2, 1]])
        x = FractionalAllocation.from_rows([["1/3"] * 3] * 3)
        hierarchy = prefix_constraints(inst, x)
        for cs in hierarchy.h1:
            if len(cs.cells) in (1, 2):
                assert (cs.lower, cs.upper) == (0, 1)
            elif len(cs.cells) == 3:
                assert (cs.lower, cs.upper) == (1, 1)

    def test_incomplete_input_rejected(self, shift4):
        x = FractionalAllocation.from_rows([["1/2", "0", "0", "0"], ["0", "0", "0", "0"]])
        with pytest.raises(InputError):
            prefix_constraints(shift4, x)


class TestBihierarchyDecompose:
    def test_shift4_lottery(self, shift4, shift4_x):
        hierarchy = prefix_constraints(shift4, shift4_x)
        lot = bihierarchy_decompose(shift4_x, hierarchy)
        assert lot.marginal == shift4_x
        assert all(quota_satisfied(part, hierarchy) for _, part in lot.support)

    def test_integral_input_single_point(self, shift4):
        x = FractionalAllocation.from_rows([["1", "1", "0", "0"], ["0", "0", "1", "1"]])
        lot = bihierarchy_decompose(x, prefix_constraints(shift4, x))
        assert len(lot) == 1
        assert lot.support[0][1].bundles == ((0, 1), (2, 3))

    def test_bvn_constraints_reproduce_bvn(self):
        rng = random.Random(17)
        for _ in range(25):
            x = random_substochastic(rng, rng.randint(1, 3), rng.randint(1, 4))
            via_engine = bihierarchy_decompose(x, bvn_constraints(x))
            direct = bvn_decompose(x)
            assert via_engine == direct

    def test_quota_violation_rejected(self):
        x = FractionalAllocation.from_rows([["1/2", "1/2"]])
        bad = Bihierarchy(
            (ConstraintSet(frozenset({(0, 0), (0, 1)}), 2, 2),),
            (),
        )
        with pytest.raises(InputError):
            bihierarchy_decompose(x, bad)


class TestReduceSupport:
    def test_redundant_mix_shrinks(self):
        a = IntegralAllocation.from_bundles(2, 2, [(0,), (1,)])
        b = IntegralAllocation.from_bundles(2, 2, [(1,), (0,)])
        c = IntegralAllocation.from_bundles(2, 2, [(0, 1), ()])
        d = IntegralAllocation.from_bundles(2, 2, [(), (0, 1)])
        lot = Lottery(
            ((F(1, 4), a), (F(1, 4), b), (F(1, 4), c), (F(1, 4), d))
        )
        reduced = reduce_support(lot)
        assert reduced.marginal == lot.marginal
        assert len(reduced) <= 2 * 2 + 1
        kept = {part.matrix for _, part in reduced.support}
        assert kept <= {part.matrix for _, part in lot.support}

    def test_swap4_lottery_preserved(self, swap4, swap4_matrices):
        lot = Lottery(
            tuple((F(1, 4), IntegralAllocation(m)) for m in swap4_matrices)
        )
        reduced = reduce_support(lot)
        assert reduced.marginal == lot.marginal
        assert len(reduced) <= len(lot)


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_bvn_random_matrices(seed):
    rng = random.Random(seed)
    x = random_substochastic(rng, rng.randint(1, 4), rng.randint(1, 5))
    lot = bvn_decompose(x)
    assert lot.marginal == x
    assert len(lot) <= fractional_cells(x) + 1
    hierarchy = bvn_constraints(x)
    assert all(quota_satisfied(part, hierarchy) for _, part in lot.support)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_prefix_decompose_random_complete(seed):
    # complete marginals built from random lotteries, decomposed under prefix quotas
    rng = random.Random(seed)
    inst = random_goods(rng, n_max=3, m_max=5)
    parts = [random_integral(rng, inst) for _ in range(3)]
    lot = Lottery(
        ((F(1, 2), parts[0]), (F(1, 3), parts[1]), (F(1, 6), parts[2]))
    )
    x = lot.marginal
    hierarchy = prefix_constraints(inst, x)
    out = bihierarchy_decompose(x, hierarchy)
    assert out.marginal == x
    assert all(quota_satisfied(part, hierarchy) for _, part in out.support)


def _gap_case() -> tuple[FractionalAllocation, Bihierarchy]:
    # Row 0 has quota [0, 3] over four halves: with the empty part first, its step
    # is (3 - 2) / 3 of the mass, a denominator the input's halves do not have.
    h, z = F(1, 2), F(0)
    x = FractionalAllocation(((h, h, h, h, z, z, z, z), (z, z, z, z, h, h, h, h)))
    cells = [(i, j) for i in range(2) for j in range(8)]
    h1 = [ConstraintSet(frozenset([cell]), 0, 1) for cell in cells]
    h1.append(ConstraintSet(frozenset((0, j) for j in range(8)), 0, 3))
    h1.append(ConstraintSet(frozenset((1, j) for j in range(8)), 1, 4))
    h2 = [ConstraintSet(frozenset({(0, j), (1, j)}), 0, 1) for j in range(8)]
    return x, Bihierarchy(tuple(h1), tuple(h2))


class TestNonUnitStep:
    def test_quota_gap_above_one(self):
        x, hierarchy = _gap_case()
        lot = bihierarchy_decompose(x, hierarchy)
        assert lot.marginal == x
        assert all(quota_satisfied(part, hierarchy) for _, part in lot.support)
        # a weight in thirds shows the residual was rescaled by the step's denominator
        assert any(w.denominator % 3 == 0 for w, _ in lot.support)
        assert lottery_line(lot) == GAP_LOTTERY


def _pinned_inputs():
    rng = random.Random(404)
    for n in (6, 8, 10):
        x = random_doubly_stochastic(rng, n)
        yield x, bvn_constraints(x)
    for _ in range(12):
        x = random_substochastic(rng, rng.randint(2, 6), rng.randint(2, 9))
        yield x, bvn_constraints(x)
    for _ in range(8):
        inst = random_goods(rng, n_max=5, m_max=9)
        x = solve_mnw(inst).allocation
        yield x, prefix_constraints(inst, x)


def test_matches_pinned_lotteries():
    # lottery JSON recorded from the Fraction-residual engine this one replaced:
    # dense doubly stochastic, substochastic, and prefix-quota rounding of MNW
    for (x, hierarchy), expected in zip(
        _pinned_inputs(), PINNED_LOTTERIES.split("\n"), strict=True
    ):
        assert lottery_line(bihierarchy_decompose(x, hierarchy)) == expected


GAP_LOTTERY = '{"agents":2,"items":8,"support":[{"weight":"1/3","bundles":[[],[4]]},{"weight":"1/6","bundles":[[1,2,3],[5,6,7]]},{"weight":"1/6","bundles":[[0,2,3],[5,6,7]]},{"weight":"1/6","bundles":[[0,1,3],[5,6,7]]},{"weight":"1/6","bundles":[[0,1,2],[4]]}]}'

PINNED_LOTTERIES = """\
{"agents":6,"items":6,"support":[{"weight":"1/27","bundles":[[5],[3],[0],[4],[2],[1]]},{"weight":"1/18","bundles":[[4],[3],[0],[5],[2],[1]]},{"weight":"1/54","bundles":[[3],[4],[0],[5],[2],[1]]},{"weight":"1/54","bundles":[[3],[2],[5],[1],[4],[0]]},{"weight":"7/54","bundles":[[3],[2],[0],[5],[4],[1]]},{"weight":"1/18","bundles":[[3],[1],[0],[4],[2],[5]]},{"weight":"1/27","bundles":[[3],[0],[1],[4],[2],[5]]},{"weight":"1/9","bundles":[[2],[3],[5],[1],[4],[0]]},{"weight":"1/54","bundles":[[2],[3],[0],[1],[4],[5]]},{"weight":"1/27","bundles":[[2],[0],[1],[3],[4],[5]]},{"weight":"1/27","bundles":[[1],[3],[5],[2],[4],[0]]},{"weight":"5/54","bundles":[[1],[0],[4],[3],[2],[5]]},{"weight":"2/27","bundles":[[0],[3],[4],[2],[1],[5]]},{"weight":"1/9","bundles":[[0],[1],[4],[5],[2],[3]]},{"weight":"1/27","bundles":[[0],[1],[4],[3],[2],[5]]},{"weight":"5/54","bundles":[[0],[1],[4],[2],[5],[3]]},{"weight":"1/54","bundles":[[0],[1],[4],[2],[3],[5]]},{"weight":"1/54","bundles":[[0],[1],[2],[3],[4],[5]]}]}
{"agents":8,"items":8,"support":[{"weight":"1/40","bundles":[[7],[6],[5],[1],[3],[4],[0],[2]]},{"weight":"1/80","bundles":[[7],[6],[4],[1],[3],[0],[5],[2]]},{"weight":"1/20","bundles":[[7],[5],[4],[6],[1],[0],[2],[3]]},{"weight":"1/40","bundles":[[7],[3],[4],[5],[1],[0],[6],[2]]},{"weight":"1/40","bundles":[[7],[3],[4],[5],[0],[1],[6],[2]]},{"weight":"1/20","bundles":[[7],[3],[4],[0],[1],[2],[6],[5]]},{"weight":"1/40","bundles":[[7],[0],[3],[2],[5],[4],[6],[1]]},{"weight":"1/80","bundles":[[7],[0],[3],[2],[4],[6],[5],[1]]},{"weight":"1/20","bundles":[[7],[0],[2],[3],[4],[6],[5],[1]]},{"weight":"1/80","bundles":[[6],[5],[7],[1],[3],[4],[0],[2]]},{"weight":"1/80","bundles":[[6],[3],[7],[1],[0],[4],[5],[2]]},{"weight":"1/80","bundles":[[6],[3],[7],[0],[1],[4],[2],[5]]},{"weight":"1/40","bundles":[[6],[3],[4],[5],[0],[1],[7],[2]]},{"weight":"3/80","bundles":[[6],[3],[4],[1],[5],[0],[7],[2]]},{"weight":"1/16","bundles":[[5],[3],[4],[6],[1],[0],[7],[2]]},{"weight":"1/80","bundles":[[5],[2],[7],[0],[1],[4],[6],[3]]},{"weight":"1/16","bundles":[[5],[2],[4],[7],[1],[0],[6],[3]]},{"weight":"3/80","bundles":[[5],[1],[7],[6],[3],[2],[4],[0]]},{"weight":"3/80","bundles":[[5],[1],[4],[0],[7],[2],[6],[3]]},{"weight":"1/80","bundles":[[5],[1],[3],[0],[7],[4],[6],[2]]},{"weight":"1/40","bundles":[[5],[1],[3],[0],[6],[2],[7],[4]]},{"weight":"1/80","bundles":[[5],[1],[0],[6],[7],[2],[4],[3]]},{"weight":"3/40","bundles":[[5],[1],[0],[6],[3],[2],[7],[4]]},{"weight":"1/20","bundles":[[3],[6],[0],[4],[2],[7],[5],[1]]},{"weight":"3/80","bundles":[[3],[1],[7],[5],[6],[2],[4],[0]]},{"weight":"1/80","bundles":[[3],[1],[7],[5],[2],[4],[6],[0]]},{"weight":"1/40","bundles":[[3],[1],[7],[4],[6],[0],[5],[2]]},{"weight":"1/40","bundles":[[3],[1],[7],[2],[5],[4],[6],[0]]},{"weight":"1/80","bundles":[[3],[1],[0],[4],[2],[7],[5],[6]]},{"weight":"1/80","bundles":[[1],[7],[2],[3],[4],[6],[5],[0]]},{"weight":"3/80","bundles":[[1],[7],[2],[3],[4],[5],[6],[0]]},{"weight":"1/40","bundles":[[1],[2],[0],[4],[3],[7],[5],[6]]},{"weight":"1/20","bundles":[[1],[0],[3],[2],[4],[7],[5],[6]]}]}
{"agents":10,"items":10,"support":[{"weight":"1/21","bundles":[[9],[8],[7],[0],[6],[2],[1],[5],[3],[4]]},{"weight":"2/105","bundles":[[9],[8],[7],[0],[6],[2],[1],[3],[5],[4]]},{"weight":"2/105","bundles":[[9],[8],[5],[7],[6],[1],[2],[3],[4],[0]]},{"weight":"1/21","bundles":[[9],[7],[8],[5],[6],[3],[4],[2],[1],[0]]},{"weight":"1/105","bundles":[[9],[7],[8],[5],[6],[3],[4],[0],[2],[1]]},{"weight":"1/105","bundles":[[9],[7],[8],[1],[6],[3],[4],[5],[2],[0]]},{"weight":"1/105","bundles":[[8],[9],[7],[6],[0],[3],[4],[2],[1],[5]]},{"weight":"1/35","bundles":[[8],[9],[7],[1],[6],[3],[4],[5],[2],[0]]},{"weight":"1/105","bundles":[[8],[9],[7],[1],[6],[3],[4],[0],[2],[5]]},{"weight":"1/35","bundles":[[8],[9],[7],[1],[6],[0],[4],[2],[3],[5]]},{"weight":"2/105","bundles":[[8],[9],[7],[0],[6],[2],[4],[5],[3],[1]]},{"weight":"1/105","bundles":[[8],[9],[7],[0],[6],[2],[3],[5],[1],[4]]},{"weight":"1/105","bundles":[[8],[9],[6],[1],[0],[3],[4],[7],[5],[2]]},{"weight":"1/105","bundles":[[8],[9],[6],[1],[0],[3],[4],[7],[2],[5]]},{"weight":"1/105","bundles":[[7],[9],[8],[0],[6],[2],[3],[5],[1],[4]]},{"weight":"1/35","bundles":[[7],[9],[6],[0],[8],[2],[1],[3],[5],[4]]},{"weight":"1/105","bundles":[[7],[9],[6],[0],[8],[1],[3],[2],[4],[5]]},{"weight":"1/35","bundles":[[7],[9],[6],[0],[8],[1],[2],[3],[4],[5]]},{"weight":"1/21","bundles":[[7],[8],[6],[5],[0],[2],[1],[9],[3],[4]]},{"weight":"1/105","bundles":[[7],[8],[6],[0],[5],[3],[2],[9],[4],[1]]},{"weight":"1/35","bundles":[[7],[8],[4],[6],[5],[9],[2],[3],[1],[0]]},{"weight":"1/35","bundles":[[7],[8],[4],[6],[5],[1],[2],[9],[3],[0]]},{"weight":"1/105","bundles":[[7],[6],[8],[0],[5],[9],[2],[3],[1],[4]]},{"weight":"2/105","bundles":[[7],[6],[3],[8],[5],[9],[2],[4],[1],[0]]},{"weight":"4/105","bundles":[[7],[6],[3],[8],[5],[1],[2],[9],[4],[0]]},{"weight":"1/105","bundles":[[7],[6],[3],[8],[4],[9],[2],[5],[1],[0]]},{"weight":"2/105","bundles":[[7],[6],[3],[0],[8],[1],[2],[9],[4],[5]]},{"weight":"2/105","bundles":[[6],[7],[3],[8],[1],[9],[4],[5],[0],[2]]},{"weight":"1/105","bundles":[[6],[7],[2],[8],[1],[3],[4],[9],[0],[5]]},{"weight":"1/105","bundles":[[6],[5],[2],[8],[1],[9],[4],[7],[0],[3]]},{"weight":"2/105","bundles":[[6],[5],[2],[0],[9],[3],[4],[7],[1],[8]]},{"weight":"2/105","bundles":[[6],[5],[2],[0],[1],[9],[4],[7],[3],[8]]},{"weight":"2/105","bundles":[[5],[6],[2],[9],[1],[3],[4],[7],[0],[8]]},{"weight":"1/105","bundles":[[4],[5],[9],[6],[2],[3],[1],[7],[8],[0]]},{"weight":"1/35","bundles":[[4],[5],[6],[9],[2],[3],[0],[7],[8],[1]]},{"weight":"1/105","bundles":[[4],[5],[0],[9],[6],[2],[3],[7],[8],[1]]},{"weight":"1/105","bundles":[[4],[3],[7],[1],[2],[9],[0],[5],[8],[6]]},{"weight":"1/35","bundles":[[4],[3],[6],[1],[2],[9],[0],[5],[8],[7]]},{"weight":"1/35","bundles":[[3],[5],[9],[1],[2],[4],[0],[7],[8],[6]]},{"weight":"1/105","bundles":[[3],[5],[9],[1],[2],[4],[0],[6],[8],[7]]},{"weight":"2/105","bundles":[[3],[5],[0],[1],[2],[9],[4],[7],[8],[6]]},{"weight":"1/105","bundles":[[2],[3],[9],[1],[4],[7],[0],[5],[8],[6]]},{"weight":"1/105","bundles":[[2],[3],[9],[1],[4],[6],[0],[5],[8],[7]]},{"weight":"1/105","bundles":[[1],[2],[9],[5],[4],[3],[8],[6],[7],[0]]},{"weight":"2/105","bundles":[[1],[2],[9],[5],[4],[3],[8],[6],[0],[7]]},{"weight":"1/35","bundles":[[1],[2],[9],[5],[3],[4],[8],[6],[7],[0]]},{"weight":"1/105","bundles":[[1],[2],[0],[4],[3],[6],[8],[5],[7],[9]]},{"weight":"4/105","bundles":[[1],[0],[2],[4],[3],[6],[8],[5],[7],[9]]},{"weight":"8/105","bundles":[[1],[0],[2],[4],[3],[5],[8],[6],[7],[9]]}]}
{"agents":6,"items":8,"support":[{"weight":"1/20","bundles":[[7],[1],[2],[4],[6],[3]]},{"weight":"1/20","bundles":[[6],[7],[1],[5],[3],[4]]},{"weight":"1/20","bundles":[[4],[],[],[6],[1],[]]},{"weight":"1/20","bundles":[[4],[],[6],[1],[2],[]]},{"weight":"1/20","bundles":[[4],[6],[0],[3],[7],[2]]},{"weight":"1/20","bundles":[[4],[3],[7],[5],[6],[1]]},{"weight":"1/20","bundles":[[3],[6],[4],[7],[5],[1]]},{"weight":"1/20","bundles":[[3],[6],[4],[1],[2],[0]]},{"weight":"1/10","bundles":[[3],[4],[0],[6],[1],[]]},{"weight":"1/20","bundles":[[2],[],[],[1],[],[]]},{"weight":"1/20","bundles":[[2],[6],[1],[4],[3],[7]]},{"weight":"1/20","bundles":[[2],[1],[4],[3],[6],[7]]},{"weight":"1/20","bundles":[[2],[0],[4],[3],[6],[7]]},{"weight":"1/10","bundles":[[1],[],[],[0],[],[]]},{"weight":"1/5","bundles":[[0],[],[],[],[],[]]}]}
{"agents":6,"items":6,"support":[{"weight":"1/15","bundles":[[5],[],[3],[4],[2],[]]},{"weight":"1/15","bundles":[[5],[],[1],[2],[4],[3]]},{"weight":"1/15","bundles":[[5],[4],[1],[2],[3],[0]]},{"weight":"1/15","bundles":[[5],[4],[0],[1],[3],[2]]},{"weight":"1/15","bundles":[[4],[],[1],[2],[3],[5]]},{"weight":"1/15","bundles":[[3],[],[],[1],[],[]]},{"weight":"1/15","bundles":[[2],[],[5],[3],[],[]]},{"weight":"1/15","bundles":[[2],[],[3],[5],[4],[]]},{"weight":"2/15","bundles":[[2],[3],[],[4],[],[5]]},{"weight":"1/15","bundles":[[1],[],[4],[5],[3],[2]]},{"weight":"2/15","bundles":[[0],[],[],[],[],[]]},{"weight":"1/15","bundles":[[0],[4],[3],[5],[1],[2]]},{"weight":"1/15","bundles":[[0],[1],[2],[5],[4],[3]]}]}
{"agents":2,"items":5,"support":[{"weight":"1/3","bundles":[[],[]]},{"weight":"1/6","bundles":[[4],[3]]},{"weight":"1/12","bundles":[[2],[3]]},{"weight":"1/12","bundles":[[2],[1]]},{"weight":"1/12","bundles":[[1],[]]},{"weight":"1/12","bundles":[[1],[3]]},{"weight":"1/12","bundles":[[1],[0]]},{"weight":"1/12","bundles":[[0],[]]}]}
{"agents":3,"items":7,"support":[{"weight":"3/19","bundles":[[],[0],[]]},{"weight":"1/19","bundles":[[],[0],[1]]},{"weight":"1/19","bundles":[[6],[4],[5]]},{"weight":"1/19","bundles":[[6],[3],[4]]},{"weight":"1/19","bundles":[[5],[6],[4]]},{"weight":"1/19","bundles":[[5],[4],[6]]},{"weight":"1/19","bundles":[[3],[6],[5]]},{"weight":"2/19","bundles":[[3],[5],[6]]},{"weight":"1/19","bundles":[[1],[6],[4]]},{"weight":"1/19","bundles":[[1],[2],[4]]},{"weight":"2/19","bundles":[[1],[2],[3]]},{"weight":"1/19","bundles":[[0],[2],[3]]},{"weight":"3/19","bundles":[[0],[1],[2]]}]}
{"agents":6,"items":5,"support":[{"weight":"2/17","bundles":[[],[],[],[3],[4],[0]]},{"weight":"2/17","bundles":[[],[4],[2],[1],[3],[0]]},{"weight":"1/17","bundles":[[],[4],[1],[2],[0],[3]]},{"weight":"1/17","bundles":[[],[4],[0],[1],[3],[2]]},{"weight":"2/17","bundles":[[],[3],[0],[4],[1],[2]]},{"weight":"1/17","bundles":[[],[2],[],[4],[0],[3]]},{"weight":"1/17","bundles":[[],[0],[],[3],[4],[1]]},{"weight":"1/17","bundles":[[4],[],[],[0],[3],[]]},{"weight":"1/17","bundles":[[4],[1],[],[2],[0],[3]]},{"weight":"3/17","bundles":[[3],[0],[4],[],[],[]]},{"weight":"2/17","bundles":[[0],[3],[],[],[],[]]}]}
{"agents":3,"items":6,"support":[{"weight":"1/17","bundles":[[],[],[3]]},{"weight":"3/17","bundles":[[],[],[1]]},{"weight":"3/17","bundles":[[],[],[0]]},{"weight":"3/17","bundles":[[5],[0],[4]]},{"weight":"2/17","bundles":[[2],[4],[5]]},{"weight":"1/17","bundles":[[1],[0],[5]]},{"weight":"3/17","bundles":[[0],[],[3]]},{"weight":"1/17","bundles":[[0],[1],[5]]}]}
{"agents":3,"items":6,"support":[{"weight":"2/19","bundles":[[],[1],[]]},{"weight":"1/19","bundles":[[],[0],[]]},{"weight":"2/19","bundles":[[5],[4],[]]},{"weight":"1/19","bundles":[[5],[4],[0]]},{"weight":"1/19","bundles":[[4],[5],[1]]},{"weight":"1/19","bundles":[[3],[5],[4]]},{"weight":"1/19","bundles":[[3],[5],[1]]},{"weight":"1/19","bundles":[[3],[5],[0]]},{"weight":"1/19","bundles":[[3],[2],[]]},{"weight":"1/19","bundles":[[2],[4],[]]},{"weight":"3/19","bundles":[[2],[3],[]]},{"weight":"3/19","bundles":[[0],[2],[]]},{"weight":"1/19","bundles":[[0],[1],[]]}]}
{"agents":5,"items":3,"support":[{"weight":"1/13","bundles":[[],[],[],[0],[1]]},{"weight":"2/13","bundles":[[],[],[1],[],[0]]},{"weight":"1/13","bundles":[[],[],[1],[2],[0]]},{"weight":"1/13","bundles":[[],[],[0],[1],[]]},{"weight":"1/13","bundles":[[],[],[0],[1],[2]]},{"weight":"1/13","bundles":[[],[2],[],[1],[0]]},{"weight":"1/13","bundles":[[],[0],[],[],[]]},{"weight":"2/13","bundles":[[1],[],[0],[],[]]},{"weight":"3/13","bundles":[[0],[],[],[],[]]}]}
{"agents":2,"items":6,"support":[{"weight":"1/12","bundles":[[5],[2]]},{"weight":"1/12","bundles":[[4],[5]]},{"weight":"1/12","bundles":[[3],[2]]},{"weight":"1/6","bundles":[[2],[5]]},{"weight":"1/12","bundles":[[2],[4]]},{"weight":"1/12","bundles":[[1],[2]]},{"weight":"1/12","bundles":[[1],[0]]},{"weight":"1/4","bundles":[[0],[]]},{"weight":"1/12","bundles":[[0],[1]]}]}
{"agents":6,"items":7,"support":[{"weight":"1/23","bundles":[[6],[5],[0],[1],[2],[4]]},{"weight":"1/23","bundles":[[6],[2],[0],[1],[4],[5]]},{"weight":"1/23","bundles":[[5],[2],[6],[0],[1],[4]]},{"weight":"1/23","bundles":[[5],[2],[1],[4],[3],[6]]},{"weight":"1/23","bundles":[[5],[1],[4],[2],[3],[6]]},{"weight":"1/23","bundles":[[5],[0],[1],[4],[3],[2]]},{"weight":"1/23","bundles":[[4],[],[],[],[],[]]},{"weight":"2/23","bundles":[[4],[],[],[],[0],[]]},{"weight":"2/23","bundles":[[3],[4],[5],[6],[1],[2]]},{"weight":"1/23","bundles":[[3],[2],[4],[0],[1],[5]]},{"weight":"1/23","bundles":[[3],[0],[5],[1],[4],[2]]},{"weight":"1/23","bundles":[[2],[],[],[4],[0],[]]},{"weight":"1/23","bundles":[[2],[],[],[1],[4],[5]]},{"weight":"1/23","bundles":[[2],[1],[4],[5],[0],[3]]},{"weight":"1/23","bundles":[[2],[1],[4],[0],[5],[3]]},{"weight":"2/23","bundles":[[1],[],[],[],[],[]]},{"weight":"1/23","bundles":[[1],[],[],[2],[4],[]]},{"weight":"3/23","bundles":[[0],[],[],[],[],[]]}]}
{"agents":6,"items":2,"support":[{"weight":"1/12","bundles":[[],[],[],[],[1],[0]]},{"weight":"1/12","bundles":[[],[],[],[],[0],[1]]},{"weight":"1/12","bundles":[[],[],[],[1],[],[0]]},{"weight":"1/6","bundles":[[],[],[1],[],[],[0]]},{"weight":"1/12","bundles":[[],[],[1],[],[0],[]]},{"weight":"1/12","bundles":[[],[1],[],[],[0],[]]},{"weight":"1/12","bundles":[[],[1],[],[0],[],[]]},{"weight":"1/6","bundles":[[],[1],[0],[],[],[]]},{"weight":"1/12","bundles":[[],[0],[],[],[],[]]},{"weight":"1/12","bundles":[[0],[],[],[],[],[]]}]}
{"agents":4,"items":4,"support":[{"weight":"1/4","bundles":[[],[],[],[]]},{"weight":"1/12","bundles":[[],[],[1],[]]},{"weight":"1/6","bundles":[[],[3],[2],[1]]},{"weight":"1/12","bundles":[[],[3],[1],[]]},{"weight":"1/12","bundles":[[],[1],[3],[2]]},{"weight":"1/12","bundles":[[2],[],[3],[1]]},{"weight":"1/12","bundles":[[2],[1],[0],[3]]},{"weight":"1/12","bundles":[[1],[3],[2],[]]},{"weight":"1/12","bundles":[[1],[2],[0],[3]]}]}
{"agents":3,"items":8,"support":[{"weight":"1","bundles":[[1,2,3],[6,7],[0,4,5]]}]}
{"agents":3,"items":7,"support":[{"weight":"1/120","bundles":[[2,3],[1,4],[0,5,6]]},{"weight":"5/12","bundles":[[2,3],[0,1,4],[5,6]]},{"weight":"23/40","bundles":[[2,3,5],[1,4],[0,6]]}]}
{"agents":4,"items":4,"support":[{"weight":"17/180","bundles":[[2],[],[0,3],[1]]},{"weight":"121/135","bundles":[[2],[3],[0],[1]]},{"weight":"1/108","bundles":[[0,2],[],[3],[1]]}]}
{"agents":5,"items":2,"support":[{"weight":"1/10","bundles":[[],[],[],[0],[1]]},{"weight":"7/25","bundles":[[],[],[1],[],[0]]},{"weight":"17/100","bundles":[[],[],[1],[0],[]]},{"weight":"9/100","bundles":[[1],[],[],[0],[]]},{"weight":"9/25","bundles":[[1],[0],[],[],[]]}]}
{"agents":2,"items":4,"support":[{"weight":"127/144","bundles":[[0,1],[2,3]]},{"weight":"17/144","bundles":[[0,1,2],[3]]}]}
{"agents":5,"items":4,"support":[{"weight":"1/20","bundles":[[],[2],[3],[0],[1]]},{"weight":"6/25","bundles":[[1],[],[3],[2],[0]]},{"weight":"6/25","bundles":[[1],[2],[],[3],[0]]},{"weight":"6/25","bundles":[[1],[2],[3],[],[0]]},{"weight":"19/100","bundles":[[1],[2],[3],[0],[]]},{"weight":"1/25","bundles":[[1],[2],[0],[3],[]]}]}
{"agents":5,"items":4,"support":[{"weight":"53/175","bundles":[[],[1],[3],[0],[2]]},{"weight":"1/25","bundles":[[3],[1],[],[0],[2]]},{"weight":"9/35","bundles":[[1],[],[3],[0],[2]]},{"weight":"1/5","bundles":[[1],[0],[3],[],[2]]},{"weight":"1/5","bundles":[[1],[0],[3],[2],[]]}]}
{"agents":4,"items":6,"support":[{"weight":"29/280","bundles":[[5],[2],[0,4],[1,3]]},{"weight":"51/140","bundles":[[5],[2,3],[0,4],[1]]},{"weight":"9/140","bundles":[[0,5],[2],[3,4],[1]]},{"weight":"131/280","bundles":[[0,5],[2,3],[4],[1]]}]}"""
