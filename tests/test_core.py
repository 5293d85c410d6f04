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
    _Frozen,
    _loads,
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
from fairlot.decomp import Bihierarchy, ConstraintSet
from fairlot.eating import EatingState
from fairlot.lp import LpSolution
from fairlot.mnw import MnwSolution
from fairlot.properties import AuditReport, PropertyVerdict
from fairlot.rps import RpsConfig

from conftest import random_goods, random_integral
from oracles import expected_utility, point_lottery, to_fractional


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

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_float_is_input_error(self, value):
        with pytest.raises(InputError):
            parse_rational(value)

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
        assert to_fractional(a).to_integral() == a
        assert a.bundles == ((0, 2), (1,))
        assert a.complete

    def test_from_bundles_rejects_double_assignment(self):
        # the base's column check rejects an item in two bundles
        with pytest.raises(InputError, match=r"^column 0 allocates more than the whole item \(2\)$"):
            IntegralAllocation.from_bundles(2, 2, [(0,), (0,)])

    def test_integral_is_the_zero_one_case_of_fractional(self):
        a = IntegralAllocation(((1, 0, 0), (0, 1, 0)))
        assert isinstance(a, FractionalAllocation) and a.row(1) == (0, 1, 0)
        assert a.is_integral and not a.complete and a.to_integral() == a
        # column sums start at int 0, so integral parts stay in int arithmetic
        assert a.column_sums == (1, 1, 0) and all(type(s) is int for s in a.column_sums)
        # equality stays per class: the same cells as a fractional allocation differ
        assert a != to_fractional(a)
        # the 0/1 rule runs before the base's range and shape checks
        with pytest.raises(InputError, match=r"^integral allocation cell 2 not 0/1$"):
            IntegralAllocation(((2,), (0, 0)))
        with pytest.raises(InputError, match="allocation rows have inconsistent lengths"):
            IntegralAllocation(((1,), (0, 0)))
        with pytest.raises(InputError, match="allocation needs at least one agent row"):
            IntegralAllocation(())

    def test_from_bundles_rejects_boolean_index(self):
        # bool is an int subclass: true would otherwise read as item 1
        for bundles in ([[True], [0]], [[0], [False]]):
            with pytest.raises(InputError, match="item index"):
                IntegralAllocation.from_bundles(2, 2, bundles)

    def test_column_sums_kept_from_validation(self):
        x = FractionalAllocation.from_rows([["1/2", "0", "1/3"], ["1/2", "0", "1/3"]])
        assert x.column_sums == (Fraction(1), Fraction(0), Fraction(2, 3))
        assert [x.column_sum(j) for j in range(3)] == list(x.column_sums)
        assert not x.complete
        # equal matrices stay equal values; the sums are not a field
        assert "column_sums" not in repr(x)
        assert x == FractionalAllocation(x.matrix) and hash(x) == hash((x.matrix,))


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
            assert expected_utility(lot, swap4, i) == direct


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
        lot = point_lottery(IntegralAllocation.from_bundles(2, 3, [(0,), (1,)]))
        obj = lottery_to_json(lot)
        assert (obj["agents"], obj["items"]) == (2, 3)
        assert lottery_from_json(obj) == lot
        # files without the shape fields still load, sized from the bundles
        del obj["agents"], obj["items"]
        assert lottery_from_json(obj).m == 2
        assert lottery_from_json(obj, n=2, m=3) == lot

    def test_lottery_shape_must_match_caller(self):
        obj = lottery_to_json(point_lottery(IntegralAllocation.from_bundles(2, 3, [(0,), (1,)])))
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

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_constants_are_input_errors(self, literal):
        # json.loads accepts these constants; the loaders must not
        texts = (
            ('{"agents": 1, "items": 2, "values": [[1, %s]]}', instance_from_json),
            ('{"matrix": [["1/2", %s]]}', allocation_from_json),
            ('{"support": [{"weight": %s, "bundles": [[0]]}]}', lottery_from_json),
        )
        for text, loader in texts:
            with pytest.raises(InputError, match=literal):
                loader(_loads(text % literal))

    def test_missing_field_reported(self):
        with pytest.raises(InputError):
            instance_from_json({"agents": 1, "items": 1})


_H = Fraction(1, 2)

# (build, field names in order, repr) for every value type of the library
VALUE_TYPES = [
    (
        lambda: Instance(values=((Fraction(1), Fraction(2)), (Fraction(3), Fraction(0)))),
        ("values",),
        "Instance(values=((Fraction(1, 1), Fraction(2, 1)), (Fraction(3, 1), Fraction(0, 1))))",
    ),
    (
        lambda: FractionalAllocation(matrix=((_H, Fraction(1)), (_H, Fraction(0)))),
        ("matrix",),
        "FractionalAllocation(matrix=((Fraction(1, 2), Fraction(1, 1)), (Fraction(1, 2), Fraction(0, 1))))",
    ),
    (
        lambda: IntegralAllocation(matrix=((1, 0), (0, 1))),
        ("matrix",),
        "IntegralAllocation(matrix=((1, 0), (0, 1)))",
    ),
    (
        lambda: Lottery(
            support=[(_H, IntegralAllocation(((1, 0), (0, 1)))), (_H, IntegralAllocation(((0, 1), (1, 0))))]
        ),
        ("support",),
        "Lottery(support=((Fraction(1, 2), IntegralAllocation(matrix=((0, 1), (1, 0)))), "
        "(Fraction(1, 2), IntegralAllocation(matrix=((1, 0), (0, 1))))))",
    ),
    (
        lambda: ConstraintSet(cells=[(0, 1)], lower=0, upper=1),
        ("cells", "lower", "upper"),
        "ConstraintSet(cells=frozenset({(0, 1)}), lower=0, upper=1)",
    ),
    (
        lambda: Bihierarchy(h1=[ConstraintSet(frozenset({(0, 0)}), 0, 1)], h2=[]),
        ("h1", "h2"),
        "Bihierarchy(h1=(ConstraintSet(cells=frozenset({(0, 0)}), lower=0, upper=1),), h2=())",
    ),
    (
        lambda: EatingState(prefs=((0, 1),), remaining=(_H, Fraction(1)), eaten=((_H, Fraction(0)),), clock=_H),
        ("prefs", "remaining", "eaten", "clock"),
        "EatingState(prefs=((0, 1),), remaining=(Fraction(1, 2), Fraction(1, 1)), "
        "eaten=((Fraction(1, 2), Fraction(0, 1)),), clock=Fraction(1, 2))",
    ),
    (
        lambda: LpSolution(status="optimal", values=(Fraction(1), _H), objective_value=Fraction(3, 2)),
        ("status", "values", "objective_value"),
        "LpSolution(status='optimal', values=(Fraction(1, 1), Fraction(1, 2)), objective_value=Fraction(3, 2))",
    ),
    (
        lambda: MnwSolution(
            allocation=FractionalAllocation(((Fraction(1),),)),
            utilities=(Fraction(2),),
            prices=(Fraction(1),),
            log_nash_welfare=0.5,
        ),
        ("allocation", "utilities", "prices", "log_nash_welfare"),
        "MnwSolution(allocation=FractionalAllocation(matrix=((Fraction(1, 1),),)), "
        "utilities=(Fraction(2, 1),), prices=(Fraction(1, 1),), log_nash_welfare=0.5)",
    ),
    (
        RpsConfig,
        ("mode", "seed"),
        "RpsConfig(mode='full_distribution', seed=0)",
    ),
    (
        lambda: PropertyVerdict("ef", True),
        ("property", "holds", "witness"),
        "PropertyVerdict(property='ef', holds=True, witness=None)",
    ),
    (
        lambda: PropertyVerdict("ef", False, {"i": 0}),
        ("property", "holds", "witness"),
        "PropertyVerdict(property='ef', holds=False, witness={'i': 0})",
    ),
    (
        lambda: AuditReport(
            ex_ante={"ef": PropertyVerdict("ef", True)}, ex_post={"ef1": (PropertyVerdict("ef1", True),)}
        ),
        ("ex_ante", "ex_post"),
        "AuditReport(ex_ante={'ef': PropertyVerdict(property='ef', holds=True, witness=None)}, "
        "ex_post={'ef1': (PropertyVerdict(property='ef1', holds=True, witness=None),)})",
    ),
]


@pytest.mark.parametrize(
    "build, fields, text", VALUE_TYPES, ids=[text.split("(")[0] + str(k) for k, (_, _, text) in enumerate(VALUE_TYPES)]
)
def test_value_type_is_a_frozen_record(build, fields, text):
    a, b = build(), build()
    cls = type(a)
    values = tuple(getattr(a, name) for name in fields)
    assert repr(a) == text
    # positional and keyword construction agree, field by field in declaration order
    assert a is not b and a == b and not a != b
    assert cls(*values) == a == cls(**dict(zip(fields, values)))
    # equality is per class: not a tuple of the fields, not another value type
    assert a.__eq__(values) is NotImplemented and a != values
    assert all(a != other() for other, _, _ in VALUE_TYPES if type(other()) is not cls)
    if any(isinstance(v, dict) for v in values):
        with pytest.raises(TypeError, match="unhashable type: 'dict'"):
            hash(a)
    else:
        assert hash(a) == hash(b) == hash(values)
    for name in (fields[0], "extra"):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(a, name, None)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(a, name)
    assert tuple(getattr(a, name) for name in fields) == values
    # the fields are the class annotations, base first along the MRO, in order;
    # derived caches are not fields
    declaring = reversed(cls.__mro__[: cls.__mro__.index(_Frozen)])
    assert cls._fields == fields == tuple(name for k in declaring for name in k.__annotations__)
    assert "column_sums" not in fields
    # Python binds the arguments, so misuse raises the TypeErrors of a written signature
    init = rf"^{cls.__qualname__}\.__init__\(\) "
    with pytest.raises(TypeError, match=init + "got an unexpected keyword argument 'extra'"):
        cls(*values, extra=None)
    required = len(fields) - len(cls.__init__.__defaults__ or ())
    if required:
        with pytest.raises(TypeError, match=init + "missing 1 required positional argument"):
            cls(*values[: required - 1])
    with pytest.raises(TypeError, match=init + "takes .* positional arguments but"):
        cls(*values, None)
    with pytest.raises(TypeError, match=init + f"got multiple values for argument '{fields[0]}'"):
        cls(*values, **{fields[0]: values[0]})


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
        assert expected_utility(lot, inst, i) == inst.utility(i, marginal.row(i))


def test_property_verdict_lives_in_core_under_every_old_name():
    import fairlot
    from fairlot import core, mnw, properties, rounding

    assert fairlot.PropertyVerdict is core.PropertyVerdict is properties.PropertyVerdict
    assert mnw.PropertyVerdict is rounding.PropertyVerdict is core.PropertyVerdict
    assert rounding.check_share is properties.check_share
    with pytest.raises(AttributeError):
        rounding.no_such_name
