"""Lottery decompositions: quota satisfaction, exact marginals, support bounds."""

from __future__ import annotations

import copy
import hashlib
import importlib
import json
import math
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
    allocation_to_json,
    lottery_to_json,
    ordinal_preferences,
)
from fairlot import decomp, mnw
from fairlot.decomp import _bvn_plan, _extract, _max_flow, _prefix_plan, bihierarchy_decompose, bvn_decompose
from fairlot.mnw import solve_mnw
from fairlot.rounding import gf_lottery
from fairlot.rps import FULL_DISTRIBUTION, POLY_SUPPORT, SAMPLE, RpsConfig, rps, rps_bads, rps_mixed

from conftest import eating_inputs, mnw_inputs, random_complete, random_goods, random_integral
from oracles import (
    Bihierarchy,
    ConstraintSet,
    _MaxFlow,
    _forest,
    bvn_constraints,
    extract_reference,
    general_bihierarchy_decompose,
    general_plan,
    lottery_marginal,
    mnw_live_reference,
    plan_cells,
    point_lottery,
    prefix_constraints,
    reduce_support,
)

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


def unit_substochastic(rng: random.Random, n: int, m: int) -> FractionalAllocation:
    """Random n x m substochastic matrix (n, m >= 3) with a zero row, a zero column
    and a cell at 1 alone in its row and column; the other cells are a
    ``random_substochastic`` block."""
    zero_row, unit_row = rng.sample(range(n), 2)
    zero_col, unit_col = rng.sample(range(m), 2)
    rows = [i for i in range(n) if i not in (zero_row, unit_row)]
    cols = [j for j in range(m) if j not in (zero_col, unit_col)]
    block = random_substochastic(rng, len(rows), len(cols)).matrix
    mat = [[F(0)] * m for _ in range(n)]
    mat[unit_row][unit_col] = F(1)
    for a, i in enumerate(rows):
        for b, j in enumerate(cols):
            mat[i][j] = block[a][b]
    return FractionalAllocation(tuple(map(tuple, mat)))


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


def scale_doubly_stochastic(rng: random.Random, size: int, count: int | None = None) -> FractionalAllocation:
    """The scale benchmark's matrix (``perfbench/workloads.py``): a mix of ``count``
    (by default ``size``) random permutation matrices with integer weights 1 to 10."""
    weights = [rng.randint(1, 10) for _ in range(count or size)]
    total = sum(weights)
    mat = [[F(0)] * size for _ in range(size)]
    for w in weights:
        perm = list(range(size))
        rng.shuffle(perm)
        for i, j in enumerate(perm):
            mat[i][j] += F(w, total)
    return FractionalAllocation(tuple(map(tuple, mat)))


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
        assert 1 not in runs  # a one-item prefix only restates its cell's [0, 1]
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
        lot = bihierarchy_decompose(shift4_x, shift4.prefs)
        assert lot.marginal == shift4_x
        assert all(quota_satisfied(part, hierarchy) for _, part in lot.support)

    def test_integral_input_single_point(self, shift4):
        x = FractionalAllocation.from_rows([["1", "1", "0", "0"], ["0", "0", "1", "1"]])
        lot = bihierarchy_decompose(x, shift4.prefs)
        assert len(lot) == 1
        assert lot.support[0][1].bundles == ((0, 1), (2, 3))

    def test_incomplete_input_rejected(self, shift4):
        x = FractionalAllocation.from_rows([["1/2", "0", "0", "0"], ["0", "0", "0", "0"]])
        with pytest.raises(InputError, match="^prefix constraints need a complete allocation$"):
            bihierarchy_decompose(x, shift4.prefs)

    @pytest.mark.parametrize(
        "prefs, text",
        [
            ([(0, 1, 2)], "^need one preference order per agent: got 1 for 2 agents$"),
            ([(0, 1, 2)] * 3, "^need one preference order per agent: got 3 for 2 agents$"),
            ([(0, 1, 2), (0, 1)], "^preference order of agent 1 is not a permutation of the 3 items$"),
            ([(0, 1, 2, 0), (0, 1, 2)], "^preference order of agent 0 is not a permutation of the 3 items$"),
            ([(0, 1, 2), (0, 1, 1)], "^preference order of agent 1 is not a permutation of the 3 items$"),
            ([(0, 1, 3), (0, 1, 2)], "^preference order of agent 0 is not a permutation of the 3 items$"),
            ([(0, 1, 2), (-1, 0, 1)], "^preference order of agent 1 is not a permutation of the 3 items$"),
        ],
    )
    def test_prefs_must_be_permutations(self, prefs, text):
        # checked before completeness, so an incomplete x shows the order's error
        for x in (_third_split(2, 3), FractionalAllocation(((F(0),) * 3,) * 2)):
            with pytest.raises(InputError, match=text):
                bihierarchy_decompose(x, prefs)

    def test_bvn_constraints_reproduce_bvn(self, monkeypatch):
        # bvn_decompose compiles rows and columns straight from the matrix; the
        # general path through bvn_constraints must give the same plan and bytes
        mismatches = [
            label
            for label, x in _bvn_cases(monkeypatch)
            if lottery_line(bvn_decompose(x)) != lottery_line(general_bihierarchy_decompose(x, bvn_constraints(x)))
            or _bvn_plan(*x.scaled, x.m) != general_plan(x, bvn_constraints(x))[2:]
        ]
        assert mismatches == []

    def test_bvn_row_above_one_matches_constraints(self):
        rng = random.Random(23)
        raised = 0
        for _ in range(60):
            n, m = rng.randint(1, 5), rng.randint(1, 6)
            x = FractionalAllocation(
                tuple(tuple(F(rng.randint(0, 2), rng.choice((2, 3, 4)) * n) for _ in range(m)) for _ in range(n))
            )
            over = [i for i, cs in enumerate(bvn_constraints(x).h1) if cs.upper > 1]
            if not over:
                assert bvn_decompose(x).marginal == x
                continue
            raised += 1
            with pytest.raises(InputError) as err:
                bvn_decompose(x)
            assert str(err.value) == f"row {over[0]} sums above 1; not doubly substochastic"
        assert raised > 10

    def test_quota_violation_rejected(self):
        x = FractionalAllocation.from_rows([["1/2", "1/2"]])
        bad = Bihierarchy(
            (ConstraintSet(frozenset({(0, 0), (0, 1)}), 2, 2),),
            (),
        )
        with pytest.raises(InputError):
            general_bihierarchy_decompose(x, bad)


def _third_split(n: int, m: int) -> FractionalAllocation:
    return FractionalAllocation(((F(1, n),) * m,) * n)


def _prefix_cases():
    """(label, instance, x, prefs) for 600 complete allocations with n 1-6 and
    m 1-9: 0/1, fractional and ``solve_mnw`` allocations under index, random and
    flipped orders, plus every n = 1 and m = 1 shape."""
    rng = random.Random(2525)
    for n in range(1, 7):
        yield f"{n}x1", Instance.from_rows([[1]] * n), _third_split(n, 1), [(0,)] * n
    for m in range(1, 10):
        inst = Instance.from_rows([[1] * m])
        yield f"1x{m}", inst, random_complete(rng, 1, m), [tuple(rng.sample(range(m), m))]
    for k in range(585):
        if k % 5 == 4:
            inst = random_goods(rng, n_max=6, m_max=9)
            x = solve_mnw(inst).allocation
        else:
            n, m = rng.randint(1, 6), rng.randint(1, 9)
            inst = Instance.from_rows([[rng.randint(0, 4) for _ in range(m)] for _ in range(n)])
            if k % 5 == 0:
                x = FractionalAllocation.from_rows(random_integral(rng, inst).matrix)
            else:
                x = random_complete(rng, n, m)
        if k % 3 == 0:
            prefs = [tuple(range(inst.m))] * inst.n
        elif k % 3 == 1:
            prefs = [tuple(rng.sample(range(inst.m), inst.m)) for _ in range(inst.n)]
        else:
            prefs = ordinal_preferences(tuple(tuple(-v for v in row) for row in inst.values))
        yield f"case {k}", inst, x, prefs


def test_prefix_plan_matches_general_path():
    # bihierarchy_decompose compiles the prefix quotas straight to a plan; the
    # general path through prefix_constraints and the forests must give the same
    # plan and bytes
    cases = list(_prefix_cases())
    assert len(cases) >= 600
    assert {(min(x.n, 2), min(x.m, 2)) for _, _, x, _ in cases} == {(1, 1), (1, 2), (2, 1), (2, 2)}
    mismatches = [
        label
        for label, inst, x, prefs in cases
        if lottery_line(bihierarchy_decompose(x, prefs))
        != lottery_line(general_bihierarchy_decompose(x, prefix_constraints(inst, x, prefs)))
        or _prefix_plan(*x.scaled, prefs, x.m) != general_plan(x, prefix_constraints(inst, x, prefs))[2:]
    ]
    assert mismatches == []


def _stage_plans(monkeypatch) -> list[tuple[int, list[list[int]], int]]:
    """The (den, r, m) of every stage matrix whose plan rps (full, poly and sample),
    rps_bads and rps_mixed compile on 100 inputs drawn like the eating benchmark's:
    the stage engine hands ``_bvn_plan`` the integer matrix ``r`` over ``den``."""
    rps_module = importlib.import_module("fairlot.rps")
    plan = rps_module._bvn_plan
    seen: list[tuple[int, list[list[int]], int]] = []

    def record(den, r, m):
        seen.append((den, [list(row) for row in r], m))
        return plan(den, r, m)

    rules = {"goods": rps_module.rps, "bads": rps_module.rps_bads, "mixed": rps_module.rps_mixed}
    with monkeypatch.context() as patch:
        patch.setattr(rps_module, "_bvn_plan", record)
        for k, (kind, inst) in enumerate(eating_inputs(random.Random(1111), 100)):
            modes = (RpsConfig(), RpsConfig(mode=POLY_SUPPORT), RpsConfig(mode=SAMPLE, seed=k))
            for cfg in modes if kind == "goods" else (RpsConfig(),):
                rules[kind](inst, cfg)
    return seen


def _bvn_cases(monkeypatch):
    stages = _stage_plans(monkeypatch)
    assert len(stages) > 500
    for k, (den, r, _) in enumerate(stages):
        yield f"stage {k}", FractionalAllocation(tuple(tuple(F(v, den) for v in row) for row in r))
    rng = random.Random(1717)
    for n in range(1, 8):
        for m in range(0, 10):
            for _ in range(3):
                x = random_substochastic(rng, n, m)
                # zero a row and a column now and then
                zero_row = rng.randrange(n) if rng.random() < 0.5 else None
                zero_col = rng.randrange(m) if m and rng.random() < 0.5 else None
                yield f"{n}x{m}", FractionalAllocation(
                    tuple(
                        tuple(F(0) if zero_row == i or zero_col == j else v for j, v in enumerate(row))
                        for i, row in enumerate(x.matrix)
                    )
                )
    yield "dense 20x20", random_doubly_stochastic(rng, 20)


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
    out = bihierarchy_decompose(x, inst.prefs)
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
        lot = general_bihierarchy_decompose(x, hierarchy)
        assert lot.marginal == x
        assert all(quota_satisfied(part, hierarchy) for _, part in lot.support)
        # a weight in thirds shows the residual was rescaled by the step's denominator
        assert any(w.denominator % 3 == 0 for w, _ in lot.support)
        assert lottery_line(lot) == GAP_LOTTERY


def _engine_inputs(monkeypatch):
    """(label, den, r, m, ends, sets) plans for the extraction engine: BvN plans of
    random substochastic matrices of every shape up to 5 x 6 (one row, one column
    and no column included), and of matrices up to 6 x 7 with a unit cell, a zero
    row and a zero column, prefix plans of random complete allocations, every RPS
    stage plan, the quota-gap input whose steps rescale, and BvN plans of dense
    doubly stochastic matrices up to 20 x 20."""
    rng = random.Random(3737)
    for n in range(1, 6):
        for m in range(0, 7):
            for _ in range(4):
                den, rows = random_substochastic(rng, n, m).scaled
                yield f"bvn {n}x{m}", den, rows, m, *_bvn_plan(den, rows, m)
    for n in range(3, 7):
        for m in range(3, 8):
            for _ in range(3):
                den, rows = unit_substochastic(rng, n, m).scaled
                yield f"unit {n}x{m}", den, rows, m, *_bvn_plan(den, rows, m)
    for k in range(200):
        n, m = rng.randint(1, 5), rng.randint(1, 7)
        den, rows = random_complete(rng, n, m).scaled
        prefs = [tuple(rng.sample(range(m), m)) for _ in range(n)]
        yield f"prefix {k}", den, rows, m, *_prefix_plan(den, rows, prefs, m)
    for k, (den, r, m) in enumerate(_stage_plans(monkeypatch)):
        yield f"stage {k}", den, r, m, *_bvn_plan(den, r, m)
    x, hierarchy = _gap_case()
    yield "gap", *_general_engine_input(x, hierarchy)
    # at size, where one extraction takes many augmenting paths: scale-shaped
    # mixes of n permutations, and mixes of n * n that leave no cell integral
    rng = random.Random(3939)
    for n, count, label in ((12, 12, "mix"), (12, 12, "mix"), (20, 20, "mix"), (8, 64, "dense"), (8, 64, "dense")):
        den, rows = scale_doubly_stochastic(rng, n, count).scaled
        assert label == "mix" or all(0 < q < den for row in rows for q in row)
        yield f"{label} {n}x{n}", den, rows, n, *_bvn_plan(den, rows, n)


def _general_engine_input(x: FractionalAllocation, hierarchy: Bihierarchy):
    den, r, ends, sets = general_plan(x, hierarchy)
    return den, r, x.m, ends, sets


def _rescales(den: int, parts) -> bool:
    # a step rescaled the residual iff some weight's denominator does not divide den
    return any(den % w.denominator for w, _ in parts)


def _settles_at_one(den: int, r, parts) -> bool:
    """Whether some cell fractional in ``r / den`` is 0 in one part and 1 in each of
    the two or more parts after it. Those parts carry all of the cell's remaining
    mass, so its residual equalled their weight: the cell was settled at 1 before
    at least one more circulation ran."""
    # a fractional cell is 0 in some part: count the parts after its last 0
    return any(
        0 < q < den and [part[i][j] for _, part in reversed(parts)].index(0) >= 2
        for i, row in enumerate(r)
        for j, q in enumerate(row)
    )


def _settles_a_set(den: int, m: int, ends, sets, parts) -> bool:
    """Whether some set strictly inside its quotas in the plan ``sets`` over ``den``
    counts the same bound, lower or upper, in each of the last two parts. Those
    parts carry all of the set's remaining mass, so its total reached that bound:
    the set was settled before at least one more circulation ran. (A lone part is
    the input itself, whose counts sit strictly inside.)"""
    return any(
        lo * den < sigma < hi * den
        and {sum(part[i][j] for i, j in cells) for _, part in parts[-2:]} in ({lo}, {hi})
        for (*_, sigma), (_, _, lo, hi, cells) in zip(sets, plan_cells(m, ends, sets))
    )


def test_extract_matches_reference(monkeypatch):
    # the engine reads each set's total and the part's count off the circulation,
    # and builds it over the still-fractional cells alone; the reference re-sums
    # every set over its cells and rescans every cell on every extraction
    cases = list(_engine_inputs(monkeypatch))
    assert {label.split()[0] for label, *_ in cases} == {"bvn", "unit", "prefix", "stage", "gap", "mix", "dense"}
    mismatches, mutated, rescaled, unit_input, settled, settled_sets = [], [], [], [], [], []
    for label, den, r, m, ends, sets in cases:
        args = [list(row) for row in r], ends, sets
        before = copy.deepcopy(args)
        fast = _extract(den, args[0], m, ends, sets)
        if args != before:
            mutated.append(label)
        slow = extract_reference(den, [list(row) for row in r], m, ends, plan_cells(m, ends, sets))
        if fast != slow:
            mismatches.append(label)
        if _rescales(den, fast):
            rescaled.append(label)
        if any(q == den for row in r for q in row):
            unit_input.append(label)
        if _settles_at_one(den, r, fast):
            settled.append(label)
        if _settles_a_set(den, m, ends, sets, fast):
            settled_sets.append(label)
    assert mismatches == []
    # the engine reads its r (a list of lists), ends and sets and changes none
    assert mutated == []
    assert "gap" in rescaled
    # both ways a cell enters the settled 0/1 base: at 1 in the input, and at 1
    # after an extraction
    assert any(label.startswith("unit") for label in unit_input)
    assert any(label.startswith("unit") for label in settled)
    # a set strictly inside its quotas reaches a bound and is settled mid-run,
    # under each of the library's plan compilers
    assert {label.split()[0] for label in settled_sets} >= {"bvn", "prefix", "stage"}


@pytest.mark.parametrize(
    "sets", [[(0, 2, 3, 2, 2)], [(0, 2, 3, 4, 2)]], ids=["lower above upper", "flow short of the lower quota"]
)
def test_extract_rejects_an_undecomposable_plan(sets):
    # hand-built plans no compiler emits, on one row of two halves under one set:
    # a set whose lower quota is above its upper one, and a set whose lower quota
    # of 3 its two cells cannot carry, so the circulation falls short
    with pytest.raises(InputError, match="^constraint families do not form a decomposable bihierarchy$"):
        _extract(2, [[1, 1]], 2, [(2, 1), (2, 1)], sets)


def _nested(rng: random.Random, block: list, depth: int) -> list[frozenset]:
    """``block`` and random disjoint pieces of a strict subset of it, nested up to
    ``depth`` levels."""
    sets = [frozenset(block)]
    if depth > 1 and len(block) > 1:
        inner = rng.sample(block, rng.randint(1, len(block) - 1))
        cut = rng.randint(1, len(inner))
        for piece in (inner[:cut], inner[cut:]):
            if piece:
                sets += _nested(rng, piece, depth - 1)
    return sets


def _levels(family: list[frozenset]) -> int:
    """How many levels the laminar ``family`` nests."""
    parent, _ = _forest(family)
    depth = [0] * len(family)
    for k in sorted(range(len(family)), key=lambda k: -len(family[k])):
        depth[k] = 1 + (depth[parent[k]] if parent[k] is not None else 0)
    return max(depth)


def _deep_family(rng: random.Random, blocks: list[list], depths: list[int], taken) -> list[frozenset]:
    """A random laminar family of disjoint ``blocks``, each nested up to its depth,
    with no set in ``taken``; redrawn until it nests three levels or more."""
    while True:
        family = [block for cells, depth in zip(blocks, depths) for block in _nested(rng, cells, depth)]
        family = [block for block in family if block not in taken]
        if _levels(family) >= 3:
            return family


def _deep_cases():
    """(x, its bihierarchy) for 150 substochastic matrices of 3 x 3 up to 5 x 5.
    H1 nests three disjoint random blocks of cells up to five levels deep. H2 holds
    every column, so that each part is an allocation, with random pieces nested
    inside it and two unions of columns above. A quota other than a column's may
    sit a unit outside the floor and ceiling of its set's total, so that some
    steps rescale."""
    rng = random.Random(4242)
    for _ in range(150):
        n, m = rng.randint(3, 5), rng.randint(3, 5)
        x = random_substochastic(rng, n, m)
        cells = rng.sample([(i, j) for i in range(n) for j in range(m)], n * m)
        a, b = sorted(rng.sample(range(n * m // 2, n * m), 2))
        h1 = _deep_family(rng, [cells[:a], cells[a:b], cells[b:]], [5, 3, 2], ())
        columns = [frozenset((i, j) for i in range(n)) for j in range(m)]
        order = rng.sample(columns, m)
        cut = rng.randint(1, m - 1)
        unions = [frozenset().union(*group) for group in (order[:cut], order[cut:]) if len(group) > 1]
        h2 = unions + _deep_family(rng, [list(col) for col in columns], [3] * m, set(h1) | set(unions))
        quotas = []
        for family in (h1, h2):
            sets = []
            for block in family:
                total = sum((x.matrix[i][j] for i, j in block), F(0))
                lower = max(0, math.floor(total) - rng.randint(0, 1))
                upper = math.ceil(total) + (0 if block in columns else rng.randint(0, 1))
                sets.append(ConstraintSet(block, lower, upper))
            quotas.append(tuple(sets))
        yield x, Bihierarchy(*quotas)


def test_deep_laminar_families():
    # BvN and prefix plans route no count through an inner set: here each family
    # nests three levels or more, so a set's count is carried up through its children
    cases = list(_deep_cases())
    assert min(_levels([cs.cells for cs in family]) for _, h in cases for family in (h.h1, h.h2)) >= 3
    rescaled = 0
    for x, hierarchy in cases:
        lot = general_bihierarchy_decompose(x, hierarchy)
        assert all(quota_satisfied(part, hierarchy) for _, part in lot.support)
        assert lot.marginal == x
        den, r, m, ends, sets = _general_engine_input(x, hierarchy)
        cell_sets = plan_cells(m, ends, sets)
        assert [frozenset(cells) for *_, cells in cell_sets] == [
            cs.cells for cs in hierarchy.all_sets() if len(cs.cells) > 1
        ]
        reference = extract_reference(den, r, m, ends, cell_sets)
        assert lot == Lottery(tuple((w, IntegralAllocation(part)) for w, part in reference))
        rescaled += _rescales(den, reference)
    assert rescaled >= 5


def _pinned_inputs():
    """(x, its quotas, the library's lottery of x under them)."""
    rng = random.Random(404)
    for n in (6, 8, 10):
        x = random_doubly_stochastic(rng, n)
        yield x, bvn_constraints(x), bvn_decompose(x)
    for _ in range(12):
        x = random_substochastic(rng, rng.randint(2, 6), rng.randint(2, 9))
        yield x, bvn_constraints(x), bvn_decompose(x)
    for _ in range(8):
        inst = random_goods(rng, n_max=5, m_max=9)
        x = solve_mnw(inst).allocation
        yield x, prefix_constraints(inst, x), bihierarchy_decompose(x, inst.prefs)


def test_matches_pinned_lotteries():
    # lottery JSON recorded from the Fraction-residual engine this one replaced:
    # dense doubly stochastic, substochastic, and prefix-quota rounding of MNW,
    # through the general path and through the library's own plans
    for (x, hierarchy, lot), expected in zip(
        _pinned_inputs(), PINNED_LOTTERIES.split("\n"), strict=True
    ):
        assert lottery_line(general_bihierarchy_decompose(x, hierarchy)) == expected
        assert lottery_line(lot) == expected


def _marginal_lotteries():
    rng = random.Random(1919)
    for kind, inst in eating_inputs(rng, 60):
        run = {"goods": rps, "bads": rps_bads, "mixed": rps_mixed}[kind]
        for mode in (FULL_DISTRIBUTION, POLY_SUPPORT, SAMPLE):
            out = run(inst, RpsConfig(mode=mode, seed=rng.randrange(100)))
            yield out if isinstance(out, Lottery) else point_lottery(out)
    for _ in range(20):
        yield bvn_decompose(random_substochastic(rng, rng.randint(1, 5), rng.randint(1, 6)))
    for n in (3, 6):
        yield bvn_decompose(random_doubly_stochastic(rng, n))
    for _ in range(15):
        yield gf_lottery(random_goods(rng, n_max=3, m_max=5))


def test_marginal_matches_fraction_sum():
    # marginal sums integer numerators; the oracle adds Fraction weights cell by cell
    for lot in _marginal_lotteries():
        expected = lottery_marginal(lot)
        assert lot.marginal == expected
        assert allocation_to_json(lot.marginal) == allocation_to_json(expected)


# The builders before one-cell sets were dropped, kept as the oracle: one [0, 1] set
# per cell, duplicates folded by intersecting quotas, each family sorted by
# (size, sorted cells).
def _oracle_merge(primary, secondary):
    acc1: dict = {}
    for cells, lo, hi in primary:
        cur = acc1.get(cells)
        acc1[cells] = (max(lo, cur[0]), min(hi, cur[1])) if cur else (lo, hi)
    acc2: dict = {}
    for cells, lo, hi in secondary:
        if cells in acc1:
            lo0, hi0 = acc1[cells]
            acc1[cells] = (max(lo, lo0), min(hi, hi0))
            continue
        cur = acc2.get(cells)
        acc2[cells] = (max(lo, cur[0]), min(hi, cur[1])) if cur else (lo, hi)
    key = lambda kv: (len(kv[0]), sorted(kv[0]))
    return Bihierarchy(
        tuple(ConstraintSet(c, lo, hi) for c, (lo, hi) in sorted(acc1.items(), key=key)),
        tuple(ConstraintSet(c, lo, hi) for c, (lo, hi) in sorted(acc2.items(), key=key)),
    )


def _oracle_bvn_constraints(x: FractionalAllocation) -> Bihierarchy:
    n, m = x.n, x.m
    h2 = []
    den, rows = x.scaled
    for j, col_sum in enumerate(F(sum(col), den) for col in zip(*rows)):
        h2.append((frozenset((i, j) for i in range(n)), math.floor(col_sum), math.ceil(col_sum)))
    h1 = []
    for i in range(n):
        row_sum = sum(x.matrix[i], F(0))
        h1.append((frozenset((i, j) for j in range(m)), math.floor(row_sum), math.ceil(row_sum)))
        for j in range(m):
            h1.append((frozenset([(i, j)]), 0, 1))
    return _oracle_merge(h1, h2)


def _oracle_prefix_constraints(x: FractionalAllocation, order) -> Bihierarchy:
    n, m = x.n, x.m
    h1 = []
    for i in range(n):
        run = F(0)
        prefix = []
        for j in order[i]:
            run += x.matrix[i][j]
            prefix.append((i, j))
            h1.append((frozenset(prefix), math.floor(run), math.ceil(run)))
        for j in range(m):
            h1.append((frozenset([(i, j)]), 0, 1))
    h2 = [(frozenset((i, j) for i in range(n)), 1, 1) for j in range(m)]
    return _oracle_merge(h1, h2)


def _random_instance(rng: random.Random, sign: int) -> Instance:
    n, m = rng.randint(1, 4), rng.randint(1, 6)
    return Instance.from_rows([[sign * rng.randint(1, 9) for _ in range(m)] for _ in range(n)])


def _random_marginal(rng: random.Random, inst: Instance) -> FractionalAllocation:
    parts = [random_integral(rng, inst) for _ in range(3)]
    return Lottery(((F(1, 2), parts[0]), (F(1, 3), parts[1]), (F(1, 6), parts[2]))).marginal


def _builder_cases():
    rng = random.Random(1213)
    for n, m in [(1, 1), (1, 4), (4, 1)] + [(rng.randint(1, 5), rng.randint(1, 6)) for _ in range(40)]:
        x = random_substochastic(rng, n, m)
        yield x, bvn_constraints(x), _oracle_bvn_constraints(x)
    for _ in range(15):
        inst = random_goods(rng, n_max=4, m_max=6)
        x = solve_mnw(inst).allocation
        yield x, prefix_constraints(inst, x), _oracle_prefix_constraints(x, inst.prefs)
    for _ in range(30):
        inst = _random_instance(rng, 1)
        x = _random_marginal(rng, inst)
        yield x, prefix_constraints(inst, x), _oracle_prefix_constraints(x, inst.prefs)
    for _ in range(30):
        inst = _random_instance(rng, -1)
        flipped = ordinal_preferences(tuple(tuple(-v for v in row) for row in inst.values))
        x = _random_marginal(rng, inst)
        yield x, prefix_constraints(inst, x, prefs=flipped), _oracle_prefix_constraints(x, flipped)


def test_builders_match_oracle_without_one_cell_sets():
    shapes = set()
    for x, hierarchy, oracle in _builder_cases():
        shapes.add((min(x.n, 2), min(x.m, 2)))
        trimmed = Bihierarchy(
            tuple(cs for cs in oracle.h1 if len(cs.cells) > 1),
            tuple(cs for cs in oracle.h2 if len(cs.cells) > 1),
        )
        assert hierarchy == trimmed  # same sets, same quotas, same order
        assert all(len(cs.cells) > 1 for cs in hierarchy.all_sets())
        assert lottery_line(general_bihierarchy_decompose(x, hierarchy)) == lottery_line(
            general_bihierarchy_decompose(x, oracle)
        )
    assert shapes == {(1, 1), (1, 2), (2, 1), (2, 2)}


# Edmonds-Karp with each search run to the end, kept as the oracle for the early
# stop in decomp._max_flow: it labels the sink from the first processed node with
# a residual arc into it.
def _oracle_solve(adj: list[list[int]], to: list[int], cap: list[int], s: int, t: int) -> int:
    total = 0
    while True:
        parent_edge = [-1] * len(adj)
        parent_edge[s] = -2
        queue = [s]
        qi = 0
        while qi < len(queue) and parent_edge[t] == -1:
            u = queue[qi]
            qi += 1
            for eid in adj[u]:
                v = to[eid]
                if cap[eid] > 0 and parent_edge[v] == -1:
                    parent_edge[v] = eid
                    queue.append(v)
        if parent_edge[t] == -1:
            return total
        bottleneck = None
        v = t
        while v != s:
            eid = parent_edge[v]
            bottleneck = cap[eid] if bottleneck is None else min(bottleneck, cap[eid])
            v = to[eid ^ 1]
        v = t
        while v != s:
            eid = parent_edge[v]
            cap[eid] -= bottleneck
            cap[eid ^ 1] += bottleneck
            v = to[eid ^ 1]
        total += bottleneck


def _random_network(rng: random.Random) -> tuple[int, list[tuple[int, int, int]], int, int]:
    """Arcs over 2-9 nodes drawn from a few node pairs, so parallel arcs are common;
    self-loops, arcs into the source, out of the sink and source-to-sink arcs all
    occur, and about one capacity in five is zero."""
    nodes = rng.randint(2, 9)
    s, t = rng.sample(range(nodes), 2)
    pairs = [(rng.randrange(nodes), rng.randrange(nodes)) for _ in range(rng.randint(1, 3 * nodes))]
    pairs += [(s, t)] * rng.randint(0, 2) + [(t, rng.randrange(nodes)), (rng.randrange(nodes), s)]
    arcs = [
        (*rng.choice(pairs), 0 if rng.random() < 0.2 else rng.randint(1, 6))
        for _ in range(rng.randint(0, 4 * nodes))
    ]
    return nodes, arcs, s, t


def _network(adj: list[list[int]], to: list[int], cap: list[int], s: int, t: int):
    # every edge is added with its reverse, of capacity 0, right after it
    return len(adj), [(to[e + 1], to[e], cap[e]) for e in range(0, len(to), 2)], s, t


def _recorded_networks() -> dict[str, list]:
    """The networks that the decomposition solves, and the Edmonds-Karp networks
    of every MNW price round, which ``mnw._live`` solves in its own form."""
    recorded: dict[str, list] = {"decomp": [], "spend": []}
    search, solve, live = decomp._max_flow, _MaxFlow.solve, mnw._live

    def record_decomp(adj, to, cap, s, t):
        recorded["decomp"].append(_network(adj, to, cap, s, t))
        return search(adj, to, cap, s, t)

    def record_spend(flow, s, t):
        recorded["spend"].append(_network(flow.adj, flow.to, flow.cap, s, t))
        return solve(flow, s, t)

    def live_and_reference(*market):
        mnw_live_reference(*market)
        return live(*market)

    rng = random.Random(1313)
    decomp._max_flow, _MaxFlow.solve, mnw._live = record_decomp, record_spend, live_and_reference
    try:
        for n in (3, 5, 8, 12):
            bvn_decompose(random_doubly_stochastic(rng, n))
        for _ in range(10):
            bvn_decompose(random_substochastic(rng, rng.randint(1, 5), rng.randint(1, 6)))
        for _ in range(60):
            inst = random_goods(rng, n_max=4, m_max=6)
            bihierarchy_decompose(solve_mnw(inst).allocation, inst.prefs)
    finally:
        decomp._max_flow, _MaxFlow.solve, mnw._live = search, solve, live
    return recorded


def _solved(search, nodes: int, arcs: list[tuple[int, int, int]], s: int, t: int):
    flow = _MaxFlow(nodes)
    for u, v, c in arcs:
        flow.add(u, v, c)
    return search(flow.adj, flow.to, flow.cap, s, t), flow.cap


def test_max_flow_matches_full_search_oracle():
    rng = random.Random(2013)
    general = [_random_network(rng) for _ in range(5000)]
    recorded = _recorded_networks()
    assert len(recorded["decomp"]) > 150 and len(recorded["spend"]) > 50
    nets = general + recorded["decomp"] + recorded["spend"]
    mismatches = [net for net in nets if _solved(_max_flow, *net) != _solved(_oracle_solve, *net)]
    assert mismatches == []
    # the general draw really holds the awkward cases
    assert any(any(u == t for u, _, _ in arcs) for _, arcs, _, t in general)
    assert any(any(u == v for u, v, _ in arcs) for _, arcs, _, _ in general)
    assert any(sum((u, v) == (s, t) for u, v, _ in arcs) > 1 for _, arcs, s, t in general)


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


def test_pinned_digests_at_size():
    # sha256 recorded before the max-flow search stopped at the first node next to
    # the sink: a change of augmenting-path order moves these at once
    rng = random.Random(1212)
    lot = bvn_decompose(random_doubly_stochastic(rng, 12))
    assert _digest(lottery_to_json(lot)) == BVN_12_DIGEST
    rng = random.Random(510)
    sol = solve_mnw(Instance.from_rows([[rng.randint(1, 20) for _ in range(10)] for _ in range(5)]))
    assert _digest([allocation_to_json(sol.allocation), [str(p) for p in sol.prices]]) == MNW_5X10_DIGEST
    # the scale benchmark's 30x30, recorded while bvn_decompose still went through
    # bvn_constraints: an engine that skips settled cells must keep these bytes
    lot = bvn_decompose(scale_doubly_stochastic(random.Random(3030), 30))
    assert _digest(lottery_to_json(lot)) == BVN_30_DIGEST


def test_mnw_outputs_match_pinned_digest():
    # sha256 over 304 solve_mnw outputs (allocation, prices, utilities, log Nash
    # welfare), recorded while the price rounds still ran on Fractions
    out = []
    for inst in mnw_inputs(random.Random(1919), 304):
        sol = solve_mnw(inst)
        prices, utilities = [str(p) for p in sol.prices], [str(u) for u in sol.utilities]
        out.append([allocation_to_json(sol.allocation), prices, utilities, repr(sol.log_nash_welfare)])
    assert _digest(out) == MNW_SEEDED_DIGEST


BVN_12_DIGEST = "6845f8f1b0018c36546a426193a4bd67deb8242c110959a7ca449eefe3213509"
BVN_30_DIGEST = "ce65fc85bd85403eace1d5c4e8a68bcc32d18b3c0067c31a8f0dcb04beb8ada5"
MNW_5X10_DIGEST = "4608e17734894bbad786f951b2e1cd0e6844bd10d0b4b6756594da5f915f095f"
MNW_SEEDED_DIGEST = "b338976e304af15d9abecf508f126efe1bd54ef689992ed75956e4c44cff57d9"


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
