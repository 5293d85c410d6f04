"""Rounding fractional allocations into lotteries with per-part guarantees."""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction

import pytest

from fairlot.core import (
    FractionalAllocation,
    InputError,
    Instance,
    IntegralAllocation,
    KindMismatchError,
    lottery_to_json,
)
from fairlot.mnw import ceei_verify, solve_mnw
from fairlot.properties import check_envy, check_gf, check_share
from fairlot.rounding import (
    check_adjusted_envy_chain,
    check_utility_guarantee,
    gf_lottery,
    implement_with_utility_guarantee,
    prop1_ef11_lottery_bads,
    prop1_lottery,
)
from fairlot.rps import rps

from conftest import random_goods

F = Fraction


def _chain_violation(inst: Instance, x: FractionalAllocation, part: IntegralAllocation) -> dict | None:
    """The first leg of the adjusted envy chain that fails, by trying every item.

    For each agent h in order: if h holds less than v_h(X_h), some item she does
    not hold but partly held in X must lift her strictly above it (else
    ``own_deficit``); then, for each rival i, v_h(A_i) must fall weakly under
    v_h(X_h) when i holds at most v_i(X_i), and otherwise strictly under it after
    removing one item j of A_i with X_ij < 1 whose removal also puts i strictly
    under v_i(X_i) (else ``reduced_rival``).
    """
    n, m = inst.n, inst.m
    fractional = [sum((inst.values[i][j] * x.matrix[i][j] for j in range(m)), F(0)) for i in range(n)]
    held = [sum((inst.values[i][j] for j in range(m) if part.matrix[i][j]), F(0)) for i in range(n)]
    for h in range(n):
        lifts = [
            j for j in range(m)
            if not part.matrix[h][j] and x.matrix[h][j] > 0 and held[h] + inst.values[h][j] > fractional[h]
        ]
        if held[h] < fractional[h] and not lifts:
            return {"agent": h, "case": "own_deficit"}
        for i in range(n):
            if i == h:
                continue
            rival_view = sum((inst.values[h][j] for j in range(m) if part.matrix[i][j]), F(0))
            if held[i] <= fractional[i]:
                ok = rival_view <= fractional[h]
            else:
                ok = any(
                    part.matrix[i][j]
                    and x.matrix[i][j] < 1
                    and held[i] - inst.values[i][j] < fractional[i]
                    and rival_view - inst.values[h][j] < fractional[h]
                    for j in range(m)
                )
            if not ok:
                return {"agent": h, "rival": i, "case": "reduced_rival"}
    return None


def assert_every_part(instance, lot, x, chain=False):
    assert lot.marginal == x
    for _, part in lot.support:
        assert check_utility_guarantee(instance, x, part).holds
        assert check_share(instance, part, "prop1_goods", strict=True).holds
        if chain:
            assert check_adjusted_envy_chain(instance, x, part).holds


class TestImplement:
    def test_two_agent_split(self, tilt2):
        x = FractionalAllocation.from_rows([["1", "5/12"], ["0", "7/12"]])
        lot = implement_with_utility_guarantee(tilt2, x)
        assert [(w, part.bundles) for w, part in lot.support] == [
            (F(7, 12), ((0,), (1,))),
            (F(5, 12), ((0, 1), ())),
        ]

    def test_four_item_contested(self, shift4, shift4_x):
        lot = implement_with_utility_guarantee(shift4, shift4_x)
        assert_every_part(shift4, lot, shift4_x)

    def test_reference_certificate_is_one_valid_answer(self, shift4, shift4_x):
        # an independently stated three-part certificate; the implementation may
        # return a different mix over the same quota polytope
        weights, parts = zip(*[
            (F(2, 5), IntegralAllocation.from_bundles(2, 4, [(0, 2), (1, 3)])),
            (F(1, 5), IntegralAllocation.from_bundles(2, 4, [(0, 3), (1, 2)])),
            (F(2, 5), IntegralAllocation.from_bundles(2, 4, [(1, 3), (0, 2)])),
        ])
        assert sum(weights, F(0)) == 1
        mixed = [
            sum((w * part.matrix[i][j] for w, part in zip(weights, parts)), F(0))
            for i in range(2)
            for j in range(4)
        ]
        assert mixed == [v for row in shift4_x.matrix for v in row]
        for part in parts:
            assert check_utility_guarantee(shift4, shift4_x, part).holds
            assert check_share(shift4, part, "prop1_goods", strict=True).holds

    def test_integral_input_is_returned_whole(self, tilt2):
        x = FractionalAllocation.from_rows([["1", "0"], ["0", "1"]])
        lot = implement_with_utility_guarantee(tilt2, x)
        assert len(lot) == 1 and lot.support[0][0] == 1


class TestCheckUtilityGuarantee:
    def test_lopsided_part_flagged(self):
        inst = Instance.from_rows([[1, 1], [1, 1]])
        x = FractionalAllocation.from_rows([["1/2", "1/2"], ["1/2", "1/2"]])
        part = IntegralAllocation.from_bundles(2, 2, [(0, 1), ()])
        verdict = check_utility_guarantee(inst, x, part)
        # the hog can only drop to exactly 1, never strictly below; reported first
        assert not verdict.holds
        assert verdict.witness["agent"] == 0
        assert verdict.witness["case"] == "surplus"
        assert verdict.witness == {
            "agent": 0,
            "case": "surplus",
            "value": "2",
            "target": "1",
        }

    def test_surplus_must_drop_strictly_below(self):
        inst = Instance.from_rows([[1, 3], [1, 3]])
        x = FractionalAllocation.from_rows([["1", "2/3"], ["0", "1/3"]])
        # agent 0 holds both items: 4 > 3; dropping the fully held item lands on
        # 3 = want exactly, but the partial item gives 1 < 3, strictly below
        part = IntegralAllocation.from_bundles(2, 2, [(0, 1), ()])
        assert check_utility_guarantee(inst, x, part).holds

    def test_exact_match_needs_no_adjustment(self, tilt2):
        x = FractionalAllocation.from_rows([["1", "0"], ["0", "1"]])
        part = IntegralAllocation.from_bundles(2, 2, [(0,), (1,)])
        assert check_utility_guarantee(tilt2, x, part).holds

    def test_bads_adjustments_swap(self):
        inst = Instance.from_rows([[-1, -1], [-1, -1]])
        x = FractionalAllocation.from_rows([["1/2", "1/2"], ["1/2", "1/2"]])
        hog = IntegralAllocation.from_bundles(2, 2, [(0, 1), ()])
        verdict = check_utility_guarantee(inst, x, hog)
        # the overloaded agent recovers by dropping one bad: -2 + 1 = -1 = want,
        # not strictly above, so the bound fails; the free rider must fall
        # strictly below -1 by picking up one bad, 0 - 1 = -1, also not strict
        assert not verdict.holds
        fair = IntegralAllocation.from_bundles(2, 2, [(0,), (1,)])
        assert check_utility_guarantee(inst, x, fair).holds

    def test_mixed_kind_rejected(self, mixed4):
        x = FractionalAllocation.from_rows(
            [["1", "1", "1", "1"], ["0", "0", "0", "0"]]
        )
        part = IntegralAllocation.from_bundles(2, 4, [(0, 1, 2, 3), ()])
        with pytest.raises(KindMismatchError):
            check_utility_guarantee(mixed4, x, part)


@pytest.mark.parametrize("check", [check_utility_guarantee, check_adjusted_envy_chain])
@pytest.mark.parametrize("bundles", [(2, 3, [(0, 2), (1,)]), (3, 2, [(0,), (1,), ()])])
def test_part_shape_mismatch_rejected(tilt2, check, bundles):
    # x fits the 2x2 instance; the part has an extra item or an extra agent
    x = FractionalAllocation.from_rows([["1", "1/4"], ["0", "3/4"]])
    part = IntegralAllocation.from_bundles(*bundles)
    with pytest.raises(InputError, match="part shape does not match allocation"):
        check(tilt2, x, part)


class TestGfLottery:
    def test_two_agent_support(self, tilt2):
        lot = gf_lottery(tilt2)
        table = {part.bundles: w for w, part in lot.support}
        assert table == {((0,), (1,)): F(3, 4), ((0, 1), ()): F(1, 4)}

    def test_marginal_is_group_fair(self, tilt2):
        lot = gf_lottery(tilt2)
        assert check_gf(tilt2, lot.marginal, restrict="full").holds

    def test_parts_carry_all_guarantees(self, tilt2):
        lot = gf_lottery(tilt2)
        x = solve_mnw(tilt2).allocation
        assert_every_part(tilt2, lot, x, chain=True)
        for _, part in lot.support:
            assert check_envy(tilt2, part, "ef11_goods").holds

    def test_null_agent_can_break_group_fairness(self):
        # group fairness needs every agent to value some item: with the null
        # agent 2 in S = {0, 2}, the pool of T = {0} scales by |S|/|T| = 2
        inst = Instance.from_rows([[3, 1, 0], [1, 2, 2], [0, 0, 0]])
        verdict = check_gf(inst, gf_lottery(inst).marginal)
        assert not verdict.holds
        witness = verdict.witness
        assert (witness["S"], witness["T"], witness["delta"]) == ([0, 2], [0], ["3", "0"])

    def test_chain_weakens_at_integral_optimum(self):
        inst = Instance.from_rows([[2, 1], [1, 2]])
        lot = gf_lottery(inst)
        assert len(lot) == 1
        part = lot.support[0][1]
        x = solve_mnw(inst).allocation
        assert check_adjusted_envy_chain(inst, x, part).holds

    def test_chain_weakens_at_symmetric_halves(self):
        inst = Instance.from_rows([[1, 1], [1, 1]])
        x = FractionalAllocation.from_rows([["1/2", "1/2"], ["1/2", "1/2"]])
        assert ceei_verify(inst, x).holds
        lot = implement_with_utility_guarantee(inst, x)
        for _, part in lot.support:
            assert check_adjusted_envy_chain(inst, x, part).holds

    def test_chain_own_deficit(self):
        # agent 0 holds nothing, and either half-held item lifts her only to 1
        inst = Instance.from_rows([[1, 1], [1, 1]])
        x = FractionalAllocation.from_rows([["1/2", "1/2"], ["1/2", "1/2"]])
        part = IntegralAllocation.from_bundles(2, 2, [(), (0, 1)])
        verdict = check_adjusted_envy_chain(inst, x, part)
        assert verdict.witness == {"agent": 0, "case": "own_deficit"} == _chain_violation(inst, x, part)

    def test_chain_reduced_rival(self):
        # agent 1 sits at her fractional utility, so her bundle is not reduced, and
        # agent 0 values it at 3, above her own fractional utility of 1
        inst = Instance.from_rows([[1, 3], [1, 1]])
        x = FractionalAllocation.from_rows([["1", "0"], ["0", "1"]])
        part = x.to_integral()
        verdict = check_adjusted_envy_chain(inst, x, part)
        witness = {"agent": 0, "rival": 1, "case": "reduced_rival"}
        assert verdict.witness == witness == _chain_violation(inst, x, part)

    def test_chain_failures_match_enumeration(self):
        rng = random.Random(919)
        cases = {"own_deficit": 0, "reduced_rival": 0}
        for _ in range(300):
            inst = random_goods(rng, n_max=3, m_max=5)
            shares = [[rng.randint(0, 2) for _ in range(inst.m)] for _ in range(inst.n)]
            for j in range(inst.m):
                shares[rng.randrange(inst.n)][j] += 1
            totals = [sum(row[j] for row in shares) for j in range(inst.m)]
            x = FractionalAllocation(tuple(tuple(F(row[j], totals[j]) for j in range(inst.m)) for row in shares))
            owners = [rng.randrange(inst.n) for _ in range(inst.m)]
            part = IntegralAllocation(tuple(tuple(int(o == i) for o in owners) for i in range(inst.n)))
            witness = _chain_violation(inst, x, part)
            verdict = check_adjusted_envy_chain(inst, x, part)
            assert verdict.holds == (witness is None)
            assert verdict.witness == witness
            if witness is not None:
                cases[witness["case"]] += 1
        assert min(cases.values()) > 10


class TestProp1Lottery:
    def test_non_proportional_input_rejected(self, tilt2):
        x = FractionalAllocation.from_rows([["1", "0"], ["0", "1"]])
        with pytest.raises(InputError, match="not proportional: agent 0"):
            prop1_lottery(tilt2, x)

    def test_equal_split_parts(self):
        inst = Instance.from_rows([[5, 3, 1], [2, 2, 2]])
        x = FractionalAllocation.from_rows([["1/2"] * 3, ["1/2"] * 3])
        lot = prop1_lottery(inst, x)
        assert_every_part(inst, lot, x)

    def test_random_envy_free_marginals(self):
        rng = random.Random(2024)
        for _ in range(15):
            inst = random_goods(rng, n_max=3, m_max=5)
            x = rps(inst).marginal
            lot = prop1_lottery(inst, x)
            assert lot.marginal == x
            for _, part in lot.support:
                assert check_share(inst, part, "prop1_goods", strict=True).holds

    def test_kind_routing(self, bads3):
        x = FractionalAllocation.from_rows([["1/2"] * 3, ["1/2"] * 3])
        with pytest.raises(KindMismatchError):
            prop1_lottery(bads3, x)


class TestBadsLottery:
    def test_integral_equilibrium_passes_through(self):
        inst = Instance.from_rows([[-1, -2], [-2, -1]])
        x = FractionalAllocation.from_rows([["1", "0"], ["0", "1"]])
        assert ceei_verify(inst, x).holds
        lot = prop1_ef11_lottery_bads(inst, x)
        assert len(lot) == 1
        assert lot.support[0][1].bundles == ((0,), (1,))

    def test_shared_middle_bad(self):
        inst = Instance.from_rows([[-1, -2, -3], [-3, -2, -1]])
        x = FractionalAllocation.from_rows(
            [["1", "1/2", "0"], ["0", "1/2", "1"]]
        )
        assert ceei_verify(inst, x).holds
        lot = prop1_ef11_lottery_bads(inst, x)
        assert lot.marginal == x
        for _, part in lot.support:
            assert check_utility_guarantee(inst, x, part).holds
            assert check_share(inst, part, "prop1_bads").holds
            assert check_envy(inst, part, "ef11_bads").holds

    def test_symmetric_halves(self):
        inst = Instance.from_rows([[-1, -1], [-1, -1]])
        x = FractionalAllocation.from_rows([["1/2", "1/2"], ["1/2", "1/2"]])
        lot = prop1_ef11_lottery_bads(inst, x)
        assert lot.marginal == x
        assert {part.bundles for _, part in lot.support} == {
            ((0,), (1,)),
            ((1,), (0,)),
        }
        for _, part in lot.support:
            assert check_envy(inst, part, "ef").holds

    def test_kind_routing(self, swap4):
        x = FractionalAllocation.from_rows([["1/2"] * 4, ["1/2"] * 4])
        with pytest.raises(KindMismatchError):
            prop1_ef11_lottery_bads(swap4, x)


def _rounding_inputs(rng: random.Random, count: int):
    """``count`` (rule, instance, complete allocation) triples with n 1-6 and
    m 0-9 (bads m 1-9), cycling through: goods under a 0/1 allocation, a
    fractional one (weights 0-3 per column) and one parsed from decimal tenths;
    goods under their ``solve_mnw`` allocation; bads under fractional and
    decimal allocations. Values are drawn from few levels, so ties are common."""
    for k in range(count):
        case = k % 6
        n, m = rng.randint(1, 6), rng.randint(0 if case < 4 else 1, 9)
        sign = -1 if case >= 4 else 1
        rows = [[sign * rng.randint(0, 4) for _ in range(m)] for _ in range(n)]
        for j in range(m):
            if all(row[j] == 0 for row in rows):
                rows[rng.randrange(n)][j] = sign * rng.randint(1, 4)
        inst = Instance.from_rows(rows)
        if case == 3:
            yield implement_with_utility_guarantee, inst, solve_mnw(inst).allocation
            continue
        columns = []
        for _ in range(m):
            if case == 0:
                owner = rng.randrange(n)
                columns.append([F(i == owner) for i in range(n)])
            elif case in (1, 4):
                weights = [rng.randint(0, 3) for _ in range(n)]
                weights[rng.randrange(n)] += 1
                columns.append([F(w, sum(weights)) for w in weights])
            else:
                cuts = sorted(rng.randint(0, 10) for _ in range(n - 1))
                tenths = [b - a for a, b in zip([0, *cuts], [*cuts, 10])]
                columns.append([F(f"{t // 10}.{t % 10}") for t in tenths])
        matrix = tuple(tuple(col[i] for col in columns) for i in range(n))
        rule = prop1_ef11_lottery_bads if sign < 0 else implement_with_utility_guarantee
        yield rule, inst, FractionalAllocation(matrix)


def test_rounding_outputs_match_pinned_digest():
    # sha256 over 360 rounding lotteries (goods and bads), recorded while the prefix
    # quotas still went through the general bihierarchy front end
    out = [lottery_to_json(rule(inst, x)) for rule, inst, x in _rounding_inputs(random.Random(2424), 360)]
    digest = hashlib.sha256(json.dumps(out, sort_keys=True, separators=(",", ":")).encode()).hexdigest()
    assert digest == ROUNDING_SEEDED_DIGEST


ROUNDING_SEEDED_DIGEST = "9d93cb83d4951d190e7c2c3de0867b02bd546ba085e905f62c44073c11f7bff3"
