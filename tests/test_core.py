"""Core types: rationals, instances, allocations, lotteries, JSON round-trips."""

from __future__ import annotations

import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from fairlot.core import (
    FractionalAllocation,
    InputError,
    Instance,
    IntegralAllocation,
    Lottery,
    allocation_from_json,
    allocation_to_json,
    instance_from_json,
    instance_to_json,
    lottery_from_json,
    lottery_to_json,
    ordinal_preferences,
    parse_rational,
    sd_dominates,
)

from conftest import random_goods, random_integral


class TestRationals:
    def test_parse_int(self):
        assert parse_rational(3) == Fraction(3)

    def test_parse_ratio_string(self):
        assert parse_rational("7/12") == Fraction(7, 12)

    def test_parse_decimal_string_exact(self):
        # 0.6 must become 3/5, not a float round-trip
        assert parse_rational("0.6") == Fraction(3, 5)
        assert parse_rational("0.1") == Fraction(1, 10)

    def test_parse_negative(self):
        assert parse_rational("-5/3") == Fraction(-5, 3)

    def test_parse_garbage(self):
        with pytest.raises(InputError):
            parse_rational("one half")

    def test_decimal_exponent_bounded(self):
        # the bound is the digit limit Python puts on int literals
        limit = sys.get_int_max_str_digits()
        assert parse_rational(f"1e{limit}") == 10**limit
        assert parse_rational(f"1e-{limit}") == Fraction(1, 10**limit)
        for text in (f"1e{limit + 1}", f"-2.5E-{limit + 1}", "1e3000000"):
            with pytest.raises(InputError, match="exponent"):
                parse_rational(text)

    def test_format_round_trip(self):
        for q in (Fraction(0), Fraction(7, 12), Fraction(-3, 4), Fraction(5)):
            assert parse_rational(str(q)) == q


class TestInstance:
    def test_kinds(self, swap4, bads3, mixed4):
        assert swap4.kind == "goods"
        assert bads3.kind == "bads"
        assert mixed4.kind == "mixed"

    def test_goods_rejects_worthless_item(self):
        inst = Instance.from_rows([[1, 0], [2, 0]])
        with pytest.raises(InputError):
            inst.kind

    def test_bads_allows_zero_column(self):
        assert Instance.from_rows([[-1, 0], [-2, 0]]).kind == "bads"

    def test_ragged_rows_rejected(self):
        with pytest.raises(InputError):
            Instance.from_rows([[1, 2], [1]])

    def test_prefs_value_order_with_index_ties(self):
        inst = Instance.from_rows([[5, 9, 9, 1]])
        assert inst.prefs[0] == (1, 2, 0, 3)

    def test_prefs_bads_least_negative_first(self, bads3):
        # value-descending puts the mildest bad first
        assert bads3.prefs[0] == (0, 1, 2)

    def test_utility_and_share(self, tilt2):
        assert tilt2.utility(0, (Fraction(1), Fraction(1, 4))) == Fraction(3, 2)
        assert tilt2.bundle_value(1, (1,)) == 3
        assert tilt2.proportional_share(0) == Fraction(3, 2)
        assert tilt2.proportional_share(1) == 2

    def test_ordinal_preferences_standalone(self):
        assert ordinal_preferences([[Fraction(0), Fraction(-1)]]) == ((0, 1),)


class TestSdDominates:
    def test_reflexive(self, swap4):
        row = (Fraction(1, 2), Fraction(1, 2), Fraction(0), Fraction(0))
        assert sd_dominates(swap4.prefs, 0, row, row)

    def test_strict_prefix_gap(self, swap4):
        better = (Fraction(1), Fraction(0), Fraction(0), Fraction(0))
        worse = (Fraction(0), Fraction(1), Fraction(0), Fraction(0))
        assert sd_dominates(swap4.prefs, 0, better, worse)
        assert not sd_dominates(swap4.prefs, 0, worse, better)

    def test_incomparable_pair(self):
        prefs = ((0, 1, 2),)
        p = (Fraction(1), Fraction(0), Fraction(1))
        q = (Fraction(0), Fraction(2), Fraction(0))
        assert not sd_dominates(prefs, 0, p, q)
        assert not sd_dominates(prefs, 0, q, p)


class TestAllocations:
    def test_fractional_validation(self):
        with pytest.raises(InputError):
            FractionalAllocation.from_rows([["3/2"]])
        with pytest.raises(InputError):
            # column over-assigned
            FractionalAllocation.from_rows([["2/3"], ["2/3"]])

    def test_complete_and_integral_flags(self):
        x = FractionalAllocation.from_rows([["1/2", "0"], ["1/2", "1"]])
        assert x.complete and not x.is_integral
        y = FractionalAllocation.from_rows([["1", "0"], ["0", "0"]])
        assert y.is_integral and not y.complete

    def test_to_integral_round_trip(self):
        a = IntegralAllocation.from_bundles(2, 3, [(0, 2), (1,)])
        assert a.to_fractional().to_integral() == a
        assert a.bundles == ((0, 2), (1,))
        assert a.complete

    def test_from_bundles_rejects_double_assignment(self):
        with pytest.raises(InputError):
            IntegralAllocation.from_bundles(2, 2, [(0,), (0,)])


class TestLottery:
    def test_merges_duplicates_and_sorts(self):
        a = IntegralAllocation.from_bundles(2, 2, [(0,), (1,)])
        b = IntegralAllocation.from_bundles(2, 2, [(1,), (0,)])
        lot = Lottery(
            (
                (Fraction(1, 4), b),
                (Fraction(1, 2), a),
                (Fraction(1, 4), b),
            )
        )
        assert len(lot) == 2
        assert [w for w, _ in lot.support] == [Fraction(1, 2), Fraction(1, 2)]
        assert lot.support[0][1].matrix < lot.support[1][1].matrix

    def test_keeps_the_allocation_it_was_given(self):
        a = IntegralAllocation.from_bundles(2, 2, [(0,), (1,)])
        assert Lottery(((Fraction(1), a),)).support[0][1] is a

    def test_weights_must_sum_to_one(self):
        a = IntegralAllocation.from_bundles(1, 1, [(0,)])
        with pytest.raises(InputError):
            Lottery(((Fraction(1, 2), a),))

    def test_weights_must_be_positive(self):
        a = IntegralAllocation.from_bundles(1, 1, [(0,)])
        b = IntegralAllocation.from_bundles(1, 1, [()])
        with pytest.raises(InputError):
            Lottery(((Fraction(3, 2), a), (Fraction(-1, 2), b)))

    def test_marginal_and_expected_utility_linearity(self, swap4):
        rng = random.Random(5)
        parts = [random_integral(rng, swap4) for _ in range(3)]
        lot = Lottery(
            (
                (Fraction(1, 2), parts[0]),
                (Fraction(1, 3), parts[1]),
                (Fraction(1, 6), parts[2]),
            )
        )
        for i in range(swap4.n):
            direct = sum(
                (w * swap4.bundle_value(i, a.bundles[i]) for w, a in lot.support),
                Fraction(0),
            )
            assert lot.expected_utility(swap4, i) == direct


class TestJson:
    def test_instance_round_trip_exact(self):
        inst = Instance.from_rows([["0.6", 2], ["7/3", 0]])
        again = instance_from_json(instance_to_json(inst))
        assert again == inst
        assert again.values[0][0] == Fraction(3, 5)

    def test_allocation_round_trip(self):
        x = FractionalAllocation.from_rows([["1/3", "1"], ["2/3", "0"]])
        assert allocation_from_json(allocation_to_json(x)) == x

    def test_integral_allocation_serializes_as_matrix(self):
        a = IntegralAllocation.from_bundles(2, 2, [(1,), (0,)])
        obj = allocation_to_json(a)
        assert obj["matrix"][0] == ["0", "1"]

    def test_lottery_round_trip(self, swap4):
        rng = random.Random(11)
        parts = [random_integral(rng, swap4) for _ in range(2)]
        lot = Lottery(((Fraction(2, 5), parts[0]), (Fraction(3, 5), parts[1])))
        again = lottery_from_json(lottery_to_json(lot), n=swap4.n, m=swap4.m)
        assert again == lot

    def test_lottery_keeps_a_never_assigned_last_item(self):
        lot = Lottery.single(IntegralAllocation.from_bundles(2, 3, [(0,), (1,)]))
        obj = lottery_to_json(lot)
        assert (obj["agents"], obj["items"]) == (2, 3)
        assert lottery_from_json(obj) == lot
        # files without the shape fields still load, sized from the bundles
        del obj["agents"], obj["items"]
        assert lottery_from_json(obj).m == 2
        assert lottery_from_json(obj, n=2, m=3) == lot

    def test_lottery_shape_must_match_caller(self):
        obj = lottery_to_json(Lottery.single(IntegralAllocation.from_bundles(2, 3, [(0,), (1,)])))
        for n, m in ((3, 3), (2, 2)):
            with pytest.raises(InputError):
                lottery_from_json(obj, n=n, m=m)
        for bad in (-1, True, "3"):
            with pytest.raises(InputError):
                lottery_from_json({**obj, "items": bad})

    def test_lottery_bundles_must_be_lists(self):
        for bundles in ([5, 6], [[0], 1], [[0], None]):
            with pytest.raises(InputError):
                lottery_from_json({"support": [{"weight": "1", "bundles": bundles}]})

    def test_instance_counts_reject_booleans(self):
        # bool is an int subclass: true would otherwise read as one agent or item
        for agents, items, values in ((True, 2, [[1, 2]]), (1, True, [[5]])):
            with pytest.raises(InputError):
                instance_from_json({"agents": agents, "items": items, "values": values})

    def test_missing_field_reported(self):
        with pytest.raises(InputError):
            instance_from_json({"agents": 1, "items": 1})


@given(st.integers(min_value=0, max_value=10_000))
def test_random_instance_marginal_consistency(seed):
    # lottery marginal row i carries agent i's expected bundle, exactly
    rng = random.Random(seed)
    inst = random_goods(rng, n_max=3, m_max=5)
    parts = [random_integral(rng, inst) for _ in range(3)]
    lot = Lottery(
        (
            (Fraction(1, 2), parts[0]),
            (Fraction(1, 4), parts[1]),
            (Fraction(1, 4), parts[2]),
        )
    )
    marginal = lot.marginal
    assert marginal.complete
    for i in range(inst.n):
        assert lot.expected_utility(inst, i) == inst.utility(i, marginal.row(i))
