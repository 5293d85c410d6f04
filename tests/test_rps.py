"""The recursive serial rule and randomized round-robin."""

from __future__ import annotations

import inspect
import random
import sys
from fractions import Fraction

import pytest

from fairlot.core import (
    Instance,
    IntegralAllocation,
    KindMismatchError,
    Lottery,
    SizeLimitError,
)
from fairlot.properties import check_envy
from fairlot.rps import (
    FULL_DISTRIBUTION,
    POLY_SUPPORT,
    SAMPLE,
    RpsConfig,
    _StageEngine,
    _run_engine,
    randomized_round_robin,
    rps,
    rps_bads,
    rps_mixed,
)

from conftest import SWAP4_SUPPORT

F = Fraction

# full-mode support is 30 here, above the 3*7+1 cap, so poly mode must trim
TRIM_ROWS = [[2, 6, 5, 6, 3, 0, 0], [3, 6, 3, 1, 6, 5, 2], [1, 1, 4, 6, 2, 0, 1]]
# its poly-mode lottery (weight, bundles), in canonical order; the trim's vertex
# depends on the row order and pivot rule, so this pins both
TRIM_POLY_SUPPORT = (
    (F(1, 12), ((2, 5, 6), (1, 4), (0, 3))),
    (F(1, 9), ((2, 4), (1, 5, 6), (0, 3))),
    (F(1, 18), ((2, 4, 6), (1, 5), (0, 3))),
    (F(1, 18), ((1, 2), (4, 5), (0, 3, 6))),
    (F(7, 36), ((1, 2), (4, 5, 6), (0, 3))),
    (F(1, 36), ((0, 3), (1, 4), (2, 5, 6))),
    (F(1, 36), ((0, 3), (1, 4, 5), (2, 6))),
    (F(1, 6), ((0, 3, 6), (1, 5), (2, 4))),
    (F(1, 36), ((0, 3, 5), (1, 4), (2, 6))),
    (F(1, 4), ((0, 1), (4, 5), (2, 3, 6))),
)


class TestGoods:
    def test_four_item_uniform_support(self, swap4):
        lot = rps(swap4)
        assert isinstance(lot, Lottery)
        assert len(lot) == 4
        assert all(w == F(1, 4) for w, _ in lot.support)
        assert tuple(part.matrix for _, part in lot.support) == SWAP4_SUPPORT

    def test_poly_equals_full_when_support_is_small(self, swap4):
        assert rps(swap4, RpsConfig(mode=POLY_SUPPORT)) == rps(swap4)

    def test_poly_trims_to_cap_with_identical_marginal(self):
        inst = Instance.from_rows(TRIM_ROWS)
        full = rps(inst)
        poly = rps(inst, RpsConfig(mode=POLY_SUPPORT))
        cap = inst.n * inst.m + 1
        assert len(full) > cap
        assert len(poly) <= cap
        assert poly.marginal == full.marginal
        full_keys = {part.matrix for _, part in full.support}
        assert {part.matrix for _, part in poly.support} <= full_keys
        assert tuple((w, part.bundles) for w, part in poly.support) == TRIM_POLY_SUPPORT

    def test_sample_deterministic_and_in_support(self, swap4):
        first = rps(swap4, RpsConfig(mode=SAMPLE, seed=5))
        again = rps(swap4, RpsConfig(mode=SAMPLE, seed=5))
        assert isinstance(first, IntegralAllocation)
        assert first == again
        assert first.matrix in {part.matrix for _, part in rps(swap4).support}

    def test_sample_seeds_spread(self, swap4):
        draws = {
            rps(swap4, RpsConfig(mode=SAMPLE, seed=s)).matrix for s in range(12)
        }
        assert len(draws) >= 2

    def test_single_agent(self):
        inst = Instance.from_rows([[3, 1]])
        lot = rps(inst)
        assert len(lot) == 1
        assert lot.support[0] == (F(1), IntegralAllocation.from_bundles(1, 2, [(0, 1)]))

    def test_stage_assignment_beats_remaining_items(self, swap4):
        # each stage hands every agent an item she weakly prefers to all leftovers
        engine = _StageEngine(swap4.prefs, swap4.m, 50_000)
        for seed in range(8):
            _, trace = engine.sample_walk(random.Random(seed))
            for cells, rest in trace:
                for i, j in cells:
                    assert all(swap4.values[i][j] >= swap4.values[i][r] for r in rest)

    def test_stage_count_does_not_grow_the_stack(self):
        # one agent takes one item per stage, so 300 items make 300 stages; the
        # stack allowed here is 200 frames deeper than this test's own
        m = 300
        inst = Instance.from_rows([list(range(m, 0, -1))])
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack(0)) + 200)
        try:
            lot = rps(inst)
        finally:
            sys.setrecursionlimit(limit)
        assert lot == Lottery.single(IntegralAllocation.from_bundles(1, m, [tuple(range(m))]))

    def test_kind_routing(self, bads3):
        with pytest.raises(KindMismatchError):
            rps(bads3)

    def test_support_cap_enforced(self):
        inst = Instance.from_rows(TRIM_ROWS)
        with pytest.raises(SizeLimitError):
            rps(inst, RpsConfig(max_support=8))


class TestBads:
    def test_unpadded_run_fails_ef1_with_weight_half(self, bads3):
        # without dummies the two lopsided leaves fail EF1 (their holder of the
        # two worst bads cannot drop enough) but pass EF2; they carry 1/4 each
        lot = _run_engine(bads3.prefs, bads3.m, RpsConfig())
        failing = [
            (w, part)
            for w, part in lot.support
            if not check_envy(bads3, part, "ef1").holds
        ]
        assert sum((w for w, _ in failing), F(0)) == F(1, 2)
        assert all(check_envy(bads3, part, "efk", k=2).holds for _, part in failing)
        assert {part.bundles for _, part in failing} == {
            ((0,), (1, 2)),
            ((1, 2), (0,)),
        }

    def test_padded_run_is_ef1_throughout(self, bads3):
        lot = rps_bads(bads3)
        assert isinstance(lot, Lottery)
        assert all(check_envy(bads3, part, "ef1").holds for _, part in lot.support)
        table = {part.bundles: w for w, part in lot.support}
        assert table == {
            ((0, 1), (2,)): F(1, 4),
            ((0, 2), (1,)): F(1, 4),
            ((1,), (0, 2)): F(1, 4),
            ((2,), (0, 1)): F(1, 4),
        }

    def test_divisible_item_count_skips_padding(self):
        inst = Instance.from_rows([[-1, -2], [-2, -1]])
        lot = rps_bads(inst)
        assert len(lot) == 1
        assert lot.support[0][1].bundles == ((0,), (1,))

    def test_dummy_columns_stripped(self, bads3):
        lot = rps_bads(bads3)
        assert all(part.m == bads3.m for _, part in lot.support)
        sample = rps_bads(bads3, RpsConfig(mode=SAMPLE, seed=3))
        assert sample.m == bads3.m

    def test_kind_routing(self, swap4):
        with pytest.raises(KindMismatchError):
            rps_bads(swap4)

    def test_random_bads_all_parts_ef1(self):
        rng = random.Random(88)
        for _ in range(20):
            n = rng.randint(2, 3)
            m = rng.randint(2, 5)
            inst = Instance.from_rows(
                [[-rng.randint(1, 9) for _ in range(m)] for _ in range(n)]
            )
            lot = rps_bads(inst)
            assert all(check_envy(inst, part, "ef1").holds for _, part in lot.support)


class TestMixed:
    def test_disjoint_tops_single_branch(self, mixed4):
        lot = rps_mixed(mixed4)
        assert len(lot) == 1
        assert lot.support[0][1].bundles == ((0, 2), (1, 3))
        assert check_envy(mixed4, lot.support[0][1], "wef1").holds

    def test_contested_mixed_parts_are_weakly_fair(self):
        inst = Instance.from_rows([[2, -1], [2, -1]])
        lot = rps_mixed(inst)
        assert len(lot) == 2
        assert all(check_envy(inst, part, "wef1").holds for _, part in lot.support)

    def test_goods_only_reduction(self, swap4):
        assert rps_mixed(swap4) == rps(swap4)

    def test_bads_only_reduction(self, bads3):
        assert rps_mixed(bads3) == rps_bads(bads3)

    def test_random_mixed_all_parts_weakly_fair(self):
        rng = random.Random(33)
        for _ in range(20):
            n = rng.randint(2, 3)
            m = rng.randint(2, 5)
            values = [
                [rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(m)] for _ in range(n)
            ]
            inst = Instance.from_rows(values)
            lot = rps_mixed(inst)
            if isinstance(lot, Lottery):
                assert all(
                    check_envy(inst, part, "wef1").holds for _, part in lot.support
                )


class TestRoundRobin:
    def test_three_agent_cycle_lottery(self, cycle3):
        lot = randomized_round_robin(cycle3)
        table = {part.bundles: w for w, part in lot.support}
        assert table == {
            ((0,), (1,), (2,)): F(1, 2),
            ((2,), (1,), (0,)): F(1, 3),
            ((1,), (2,), (0,)): F(1, 6),
        }

    def test_three_agent_cycle_marginal_values(self, cycle3):
        # proportional in expectation but agent 1 envies agent 2's marginal
        lot = randomized_round_robin(cycle3)
        x = lot.marginal
        own = cycle3.utility(0, x.row(0))
        others = cycle3.utility(0, x.row(1))
        assert own == F(11, 12)
        assert others == F(14, 15)
        assert own >= cycle3.total_value(0) / 3
        assert own < others

    def test_every_part_is_ef1(self, cycle3):
        lot = randomized_round_robin(cycle3)
        assert all(check_envy(cycle3, part, "ef1").holds for _, part in lot.support)

    def test_sample_mode_deterministic(self, cycle3):
        a = randomized_round_robin(cycle3, mode="sample", seed=11)
        b = randomized_round_robin(cycle3, mode="sample", seed=11)
        assert a == b
        assert a.bundles in {part.bundles for _, part in randomized_round_robin(cycle3).support}

    def test_exact_mode_size_cap(self):
        inst = Instance.from_rows([[1] * 2 for _ in range(9)])
        with pytest.raises(SizeLimitError):
            randomized_round_robin(inst)

    def test_kind_routing(self, bads3):
        with pytest.raises(KindMismatchError):
            randomized_round_robin(bads3)
