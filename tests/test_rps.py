"""The recursive serial rule and randomized round-robin."""

from __future__ import annotations

import hashlib
import importlib
import inspect
import json
import random
import sys
from fractions import Fraction

import pytest

from fairlot.core import (
    FractionalAllocation,
    Instance,
    IntegralAllocation,
    KindMismatchError,
    Lottery,
    SizeLimitError,
    allocation_to_json,
    lottery_to_json,
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

from conftest import SWAP4_SUPPORT, eating_inputs
from oracles import point_lottery, round_robin_reference, rps_reference, stage_expand

F = Fraction
# the package attribute fairlot.rps is the rps function, not this module
RPS_MODULE = importlib.import_module("fairlot.rps")

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

# 57 branches before the last of four stages: poly mode trims a frontier whose
# branches still have items left
EARLY_TRIM_ROWS = [
    [9, 4, 8, 9, 8, 5, 7, 3, 6, 1, 6, 1, 8],
    [5, 2, 8, 6, 10, 3, 3, 3, 3, 3, 5, 0, 6],
    [4, 4, 0, 0, 8, 6, 4, 10, 8, 6, 9, 4, 9],
    [10, 2, 7, 7, 7, 4, 6, 0, 1, 7, 9, 5, 2],
]

# poly mode trims before the last stage here too, and this trim needs the subgame
# marginals: weighing the branches by their assigned cells alone keeps a lottery
# whose marginal is not the rule's
SUBGAME_TRIM_ROWS = [
    [10, 6, 11, 15, 19, 8, 6, 11, 9, 10, 6, 1, 15, 15, 6, 7, 16],
    [3, 6, 12, 16, 18, 15, 14, 9, 14, 10, 8, 10, 14, 14, 6, 11, 12],
    [6, 4, 8, 17, 11, 6, 12, 9, 11, 7, 11, 1, 18, 9, 8, 2, 15],
    [3, 5, 10, 15, 18, 13, 6, 12, 5, 3, 12, 2, 15, 15, 9, 6, 16],
    [4, 10, 9, 14, 13, 6, 5, 3, 12, 4, 8, 10, 15, 7, 8, 2, 10],
]


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

    def test_poly_trims_before_the_last_stage(self, monkeypatch):
        # the early trim weighs branches by the exact marginals of their subgames
        frontiers = []
        original = _StageEngine._trim

        def recording(engine, branches):
            frontiers.append(branches)
            return original(engine, branches)

        monkeypatch.setattr(_StageEngine, "_trim", recording)
        for rows in (EARLY_TRIM_ROWS, SUBGAME_TRIM_ROWS):
            inst = Instance.from_rows(rows)
            frontiers.clear()
            poly = rps(inst, RpsConfig(mode=POLY_SUPPORT))
            assert any(rest for branches in frontiers for _, rest in branches)
            full = rps(inst)
            assert len(full) > inst.n * inst.m + 1
            assert len(poly) <= inst.n * inst.m + 1
            assert poly.marginal == full.marginal
            assert all(check_envy(inst, part, "sd_ef1").holds for _, part in poly.support)

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
        # each stage hands every agent an item they weakly prefer to all leftovers,
        # on every branch
        engine = _StageEngine(swap4.prefs, swap4.m)
        masks, branches = [frozenset(range(swap4.m))], 0
        while masks:
            for _, cells, rest in engine.expand(masks.pop()):
                branches += 1
                for i, j in cells:
                    assert all(swap4.values[i][j] >= swap4.values[i][r] for r in rest)
                if rest:
                    masks.append(rest)
        assert branches > 4

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
        assert lot == point_lottery(IntegralAllocation.from_bundles(1, m, [tuple(range(m))]))

    def test_kind_routing(self, bads3):
        with pytest.raises(KindMismatchError):
            rps(bads3)

    def test_support_cap_enforced(self, monkeypatch):
        inst = Instance.from_rows(TRIM_ROWS)
        monkeypatch.setattr(RPS_MODULE, "MAX_SUPPORT", 8)
        with pytest.raises(SizeLimitError):
            rps(inst)


class TestBads:
    def test_unpadded_run_fails_ef1_with_weight_half(self, bads3):
        # without dummies the two lopsided leaves fail EF1 (their holder of the
        # two worst bads cannot drop enough) but pass EF2; they carry 1/4 each
        lot = _run_engine(bads3.prefs, bads3.m, RpsConfig(), bads3.m)
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
        assert own >= cycle3.proportional_share(0)
        assert own < others

    def test_every_part_is_ef1(self, cycle3):
        lot = randomized_round_robin(cycle3)
        assert all(check_envy(cycle3, part, "ef1").holds for _, part in lot.support)

    def test_sample_mode_deterministic(self, cycle3):
        a = randomized_round_robin(cycle3, mode="sample", seed=11)
        b = randomized_round_robin(cycle3, mode="sample", seed=11)
        assert a == b
        assert a.bundles in {part.bundles for _, part in randomized_round_robin(cycle3).support}

    def test_picks_match_max_reference_on_ties(self):
        # values in {0, 1, 2}: most picks break a tie, by the lowest item index
        rng = random.Random(67)
        for _ in range(150):
            n, m = rng.randint(1, 4), rng.randint(1, 7)
            rows = [[rng.randint(0, 2) for _ in range(m)] for _ in range(n)]
            for j in range(m):
                if all(row[j] == 0 for row in rows):
                    rows[rng.randrange(n)][j] = rng.randint(1, 2)
            inst = Instance.from_rows(rows)
            assert randomized_round_robin(inst) == round_robin_reference(inst)
            seed = rng.randrange(1000)
            sampled = randomized_round_robin(inst, mode="sample", seed=seed)
            assert sampled == round_robin_reference(inst, mode="sample", seed=seed)

    def test_exact_mode_size_cap(self):
        inst = Instance.from_rows([[1] * 2 for _ in range(9)])
        with pytest.raises(SizeLimitError):
            randomized_round_robin(inst)

    def test_kind_routing(self, bads3):
        with pytest.raises(KindMismatchError):
            randomized_round_robin(bads3)


def _pinned_cases():
    rng = random.Random(606)
    yield "trim", rps, TRIM_ROWS
    for kind, rule, agents, items, draw in (
        ("goods", rps, (3, 4), (5, 8), lambda: rng.randint(1, 9)),
        ("bads", rps_bads, (2, 3), (3, 7), lambda: -rng.randint(0, 9)),
        ("mixed", rps_mixed, (2, 3), (3, 6), lambda: rng.choice([-3, -2, -1, 1, 2, 3])),
    ):
        for k in range(6):
            n, m = rng.randint(*agents), rng.randint(*items)
            yield f"{kind}{k}", rule, [[draw() for _ in range(m)] for _ in range(n)]


def _compact(result: Lottery | IntegralAllocation) -> str:
    obj = lottery_to_json(result) if isinstance(result, Lottery) else allocation_to_json(result)
    return json.dumps(obj, separators=(",", ":"))


def _digest(result: Lottery | IntegralAllocation) -> str:
    return hashlib.sha256(_compact(result).encode()).hexdigest()[:16]


def test_matches_pinned_lotteries():
    # sha256 prefixes of the compact lottery JSON, recorded by running the
    # full-width stage engine this one replaced; the poly runs of "trim" and
    # "goods0" trim their support
    got = []
    for label, rule, rows in _pinned_cases():
        inst = Instance.from_rows(rows)
        for mode in (FULL_DISTRIBUTION, POLY_SUPPORT, SAMPLE):
            got.append(f"{label} {mode} {_digest(rule(inst, RpsConfig(mode=mode, seed=7)))}")
    assert got == PINNED_DIGESTS.splitlines()


PINNED_DIGESTS = """\
trim full_distribution 1fb554db21b8b835
trim poly_support fc740fe2d8871e79
trim sample d547d077d6b1df76
goods0 full_distribution c8b9c2f3d4517bae
goods0 poly_support 84642c4572d181a5
goods0 sample b1d030a9c9073418
goods1 full_distribution ef426254865634c5
goods1 poly_support ef426254865634c5
goods1 sample e65ee0cac9684da3
goods2 full_distribution 7a2f6d6210b00d39
goods2 poly_support 7a2f6d6210b00d39
goods2 sample 2d852eb020194837
goods3 full_distribution 45188e80b8178869
goods3 poly_support 45188e80b8178869
goods3 sample 2231c10f73bd0207
goods4 full_distribution bb9645e2f6c109b3
goods4 poly_support bb9645e2f6c109b3
goods4 sample a5071a9b1fda8475
goods5 full_distribution a6f532efb9c7aea8
goods5 poly_support a6f532efb9c7aea8
goods5 sample 9ff72e39f61bbb5c
bads0 full_distribution 0dc94714ebfaa83a
bads0 poly_support 0dc94714ebfaa83a
bads0 sample e51780fd087f67f0
bads1 full_distribution 929b58af9e0acc41
bads1 poly_support 929b58af9e0acc41
bads1 sample d3c5f6c5b6026bf5
bads2 full_distribution 55c4299dc6560f70
bads2 poly_support 55c4299dc6560f70
bads2 sample 47d31dab9ca8f0fa
bads3 full_distribution 15912dc88393e7c8
bads3 poly_support 15912dc88393e7c8
bads3 sample dc6aacf2b49e2cdc
bads4 full_distribution fdaa7dca55fe5c02
bads4 poly_support fdaa7dca55fe5c02
bads4 sample 3eaf186f5e319cfc
bads5 full_distribution 10b4a73cc990f8c0
bads5 poly_support 10b4a73cc990f8c0
bads5 sample 30235dc4bba7986b
mixed0 full_distribution 1aac0ea36bdb8de1
mixed0 poly_support 1aac0ea36bdb8de1
mixed0 sample b3d0ea9af3f5d34e
mixed1 full_distribution c4bedaec4abdb207
mixed1 poly_support c4bedaec4abdb207
mixed1 sample 39fb495d14e2a934
mixed2 full_distribution b50fa024c1de9c2e
mixed2 poly_support b50fa024c1de9c2e
mixed2 sample cab0021062a7b17e
mixed3 full_distribution 06e549ffa7670a95
mixed3 poly_support 06e549ffa7670a95
mixed3 sample c2b9d27686802515
mixed4 full_distribution b79654572b13b83a
mixed4 poly_support b79654572b13b83a
mixed4 sample 484967952b922c6c
mixed5 full_distribution 464cbb7d39a0937b
mixed5 poly_support 464cbb7d39a0937b
mixed5 sample f19bb5997f362370
"""


RULES = {"goods": rps, "bads": rps_bads, "mixed": rps_mixed}


def test_eating_style_outputs_match_pinned_digest():
    # one sha256 over the compact JSON of 120 inputs drawn like the eating
    # benchmark's, each through its rule in all three modes; recorded with the
    # Fraction stage engine (Fraction eating events, a FractionalAllocation and
    # a Lottery per stage)
    digest = hashlib.sha256()
    for k, (kind, inst) in enumerate(eating_inputs(random.Random(1806), 120)):
        for mode in (FULL_DISTRIBUTION, POLY_SUPPORT, SAMPLE):
            result = RULES[kind](inst, RpsConfig(mode=mode, seed=k))
            digest.update(f"{k} {kind} {mode} {_compact(result)}\n".encode())
    assert digest.hexdigest() == EATING_STYLE_DIGEST


EATING_STYLE_DIGEST = "5272a04dd8f07251c7850994f0b5f77a35885606a1070c211783bdea1823dcaf"


def test_stage_matrices_have_no_zero_column(monkeypatch):
    # every stage is decomposed on its eaten columns only; the stage engine
    # hands the plan compiler the integer matrix r over den
    stages = []
    original = RPS_MODULE._bvn_plan

    def recording(den: int, r: list[list[int]], m: int):
        stages.append(FractionalAllocation(tuple(tuple(F(v, den) for v in row) for row in r)))
        return original(den, r, m)

    monkeypatch.setattr(RPS_MODULE, "_bvn_plan", recording)
    for _, rule, rows in _pinned_cases():
        inst = Instance.from_rows(rows)
        for mode in (FULL_DISTRIBUTION, POLY_SUPPORT, SAMPLE):
            rule(inst, RpsConfig(mode=mode, seed=7))
    assert len(stages) > 50
    for x in stages:
        assert all(map(sum, zip(*x.scaled[1])))


def _stage_cases():
    """Eating-style inputs plus edge shapes, each with its rule."""
    for kind, inst in eating_inputs(random.Random(2121), 100):
        yield RULES[kind], inst
    for rows in (
        [[1, 1, 1], [1, 1, 1]],  # ties everywhere
        [[2, 2, 1, 1], [2, 2, 1, 1], [1, 1, 1, 1]],
        [[0, 0, 0], [1, 2, 3]],  # a zero row
        [[0, 0, 0, 0], [4, 3, 2, 1], [0, 0, 0, 0]],
        [[3, 1, 2]],  # n = 1
        [[1], [2]],  # m = 1
        [[], []],  # m = 0
    ):
        yield rps, Instance.from_rows(rows)
    yield rps_bads, Instance.from_rows([[-1, -1, -2], [-1, -1, -2]])
    yield rps_mixed, Instance.from_rows([[0, 0, 0], [0, 0, 0]])
    rng = random.Random(5510)
    for _ in range(2):
        yield rps, Instance.from_rows([[rng.randint(0, 10) for _ in range(10)] for _ in range(5)])


def test_stage_engine_matches_fraction_stage_path(monkeypatch):
    # every mask any mode reaches, expanded in integers and on the Fraction path
    # (Fraction eating events, a FractionalAllocation, a bvn_decompose Lottery)
    checked: dict[tuple, bool] = {}
    original = _StageEngine.expand

    def checking(engine: _StageEngine, mask: frozenset[int]):
        result = original(engine, mask)
        key = (engine.prefs, mask)
        if key not in checked:
            checked[key] = result == stage_expand(engine.prefs, mask)
        return result

    monkeypatch.setattr(_StageEngine, "expand", checking)
    for rule, inst in _stage_cases():
        for mode in (FULL_DISTRIBUTION, POLY_SUPPORT, SAMPLE):
            rule(inst, RpsConfig(mode=mode, seed=inst.m))
    assert len(checked) > 250
    assert [key for key, same in checked.items() if not same] == []


def test_engine_marginal_spans_every_stage():
    # a subgame's marginal folds in the marginals of the subgames after it; the
    # trims elsewhere run one stage before the end, where no later subgame is left
    rng = random.Random(4242)
    for _ in range(60):
        n = rng.choice((2, 3))
        m = rng.randint(2 * n + 1, 3 * n + 2)
        inst = Instance.from_rows([[rng.randint(1, 9) for _ in range(m)] for _ in range(n)])
        engine = _StageEngine(inst.prefs, m)
        assert engine.stages() >= 3
        assert engine.marginal(frozenset(range(m))) == rps(inst).marginal.matrix


def test_stage_loop_matches_pre_change_engine():
    # every mode against the engine before sample mode joined the stage loop:
    # frontiers keyed by matrix alone, a separate sample walk, and padding cut
    # from the built result; 520 eating-style inputs plus the edge shapes
    cases = [(RULES[kind], inst) for kind, inst in eating_inputs(random.Random(3131), 520)]
    cases += list(_stage_cases())[100:]
    for k, (rule, inst) in enumerate(cases):
        for mode, seed in ((FULL_DISTRIBUTION, 0), (POLY_SUPPORT, 0), (SAMPLE, k), (SAMPLE, 2**40 + 3)):
            got = rule(inst, RpsConfig(mode=mode, seed=seed))
            want = rps_reference(inst, rule is not rps, mode, seed)
            assert _compact(got) == _compact(want), (k, mode, seed)


def test_only_full_mode_checks_the_support_cap(monkeypatch):
    inst = Instance.from_rows(TRIM_ROWS)
    monkeypatch.setattr(RPS_MODULE, "MAX_SUPPORT", 8)
    assert len(rps(inst, RpsConfig(mode=POLY_SUPPORT))) == len(TRIM_POLY_SUPPORT)
    assert isinstance(rps(inst, RpsConfig(mode=SAMPLE)), IntegralAllocation)
    with pytest.raises(SizeLimitError, match="support grew to 10 allocations; use poly_support mode"):
        rps(inst)
