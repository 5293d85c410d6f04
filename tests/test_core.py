"""Core types: rationals, instances, allocations, lotteries, JSON round-trips."""

from __future__ import annotations

import hashlib
import importlib
import json
import math
import random
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from fairlot import core
from fairlot.core import (
    ZERO,
    FairlotError,
    FractionalAllocation,
    InputError,
    Instance,
    IntegralAllocation,
    Lottery,
    SizeLimitError,
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
from fairlot.decomp import bihierarchy_decompose, bvn_decompose
from fairlot.eating import EatingState
from fairlot.lp import LpSolution
from fairlot.mnw import MnwSolution, ceei_verify
from fairlot.properties import AuditReport, PropertyVerdict, check_efficiency, check_envy, check_gf, check_share
from fairlot.rounding import (
    check_adjusted_envy_chain,
    check_utility_guarantee,
    gf_lottery,
    implement_with_utility_guarantee,
    prop1_ef11_lottery_bads,
)
from fairlot.rps import FULL_DISTRIBUTION, POLY_SUPPORT, SAMPLE, RpsConfig, randomized_round_robin, rps, rps_bads, rps_mixed

from conftest import (
    EXACT_VALUES,
    eating_inputs,
    mnw_inputs,
    random_complete,
    random_goods,
    random_integral,
    utility_inputs,
)
from oracles import (
    Bihierarchy,
    ConstraintSet,
    allocation_check_reference,
    bundle_value_reference,
    ceei_verify_reference,
    expected_utility,
    lottery_check_reference,
    lottery_marginal,
    ordinal_preferences_reference,
    point_lottery,
    proportional_share_reference,
    to_fractional,
    utility_reference,
)


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
        # the 0/1 rule proves den = 1: the integer form is the matrix itself, not a copy
        assert a.scaled == (1, a.matrix) and a.scaled[1] is a.matrix
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

    def test_integer_form_kept_from_validation(self):
        x = FractionalAllocation.from_rows([["1/2", "0", "1/3"], ["1/2", "0", "1/3"]])
        assert x.scaled == (6, ((3, 0, 2), (3, 0, 2)))
        assert all(type(r) is int for row in x.scaled[1] for r in row)
        assert not x.complete and not x.is_integral
        # equal matrices stay equal values; the integer form is not a field
        assert "scaled" not in repr(x)
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

    def test_lottery_entry_needs_a_bundle_per_agent(self):
        # the agent count comes from the "agents" field, else from the first entry
        for obj in (
            {"agents": 2, "items": 2, "support": [{"weight": "1", "bundles": [[0]]}]},
            {"support": [{"weight": "1/2", "bundles": [[0], [1]]}, {"weight": "1/2", "bundles": [[0, 1]]}]},
        ):
            with pytest.raises(InputError, match="^expected 2 bundles, got 1$"):
                lottery_from_json(obj)

    @pytest.mark.parametrize(
        "obj",
        [
            {"support": [{"weight": "1", "bundles": [[10**8]]}]},
            {"items": 10**8, "support": [{"weight": "1", "bundles": [[0]]}]},
        ],
        ids=["index", "items"],
    )
    def test_oversized_lottery_is_refused_before_any_matrix(self, obj):
        # a file of about 60 bytes, sized by its largest index or by its item count
        start = time.perf_counter()
        with pytest.raises(SizeLimitError, match="cells exceed the cap of"):
            lottery_from_json(obj)
        assert time.perf_counter() - start < 0.5

    def test_lottery_cell_cap_counts_support_agents_and_items(self, monkeypatch):
        obj = {"agents": 2, "items": 3, "support": [{"weight": "1/2", "bundles": b} for b in ([[0], [1]], [[1], [0]])]}
        monkeypatch.setattr(core, "LOTTERY_CELL_LIMIT", 12)
        assert len(lottery_from_json(obj)) == 2
        monkeypatch.setattr(core, "LOTTERY_CELL_LIMIT", 11)
        with pytest.raises(SizeLimitError, match="lottery: 2 x 2 x 3 cells exceed the cap of 11"):
            lottery_from_json(obj)

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
    assert "scaled" not in fields
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


def _outcome(check, *args, **kwargs) -> object:
    try:
        return check(*args, **kwargs).to_json()
    except FairlotError as exc:
        return [type(exc).__name__, str(exc)]


def _utility_verdicts(rng: random.Random, inst: Instance, x: FractionalAllocation) -> list:
    """Every verdict built on utilities, bundle values and shares for one input:
    on x itself, then on each part of its rounding and on two perturbed parts."""
    out = [
        _outcome(check_share, inst, x, "prop"),
        _outcome(check_envy, inst, x, "ef"),
        *(_outcome(ceei_verify, inst, x, slack) for slack in (0, Fraction(1, 10))),
    ]
    if inst.n <= 3:
        out.append(_outcome(check_gf, inst, x))
    kind = inst.kind
    parts = []
    if kind == "goods":
        parts = [a for _, a in implement_with_utility_guarantee(inst, x).support]
    elif kind == "bads":
        parts = [a for _, a in prop1_ef11_lottery_bads(inst, x).support]
    moved = [list(b) for b in (parts[0] if parts else random_integral(rng, inst)).bundles]
    giver = rng.choice([i for i in range(inst.n) if moved[i]])
    moved[(giver + 1) % inst.n].append(moved[giver].pop())
    parts += [random_integral(rng, inst), IntegralAllocation.from_bundles(inst.n, inst.m, moved)]
    side = "bads" if kind == "bads" else "goods"
    for part in parts:
        out += [
            _outcome(check_share, inst, part, "prop"),
            _outcome(check_share, inst, part, f"prop1_{side}"),
            _outcome(check_share, inst, part, f"prop1_{side}", strict=True),
            _outcome(check_envy, inst, part, "ef"),
            _outcome(check_utility_guarantee, inst, x, part),
            _outcome(check_adjusted_envy_chain, inst, x, part),
        ]
    return out


def test_utility_verdicts_match_pinned_digest():
    # sha256 over the verdicts (or error type and message) of 320 inputs, recorded
    # while utilities and bundle values still summed Fractions term by term
    rng = random.Random(2323)
    out = [_utility_verdicts(rng, inst, x) for inst, x in utility_inputs(rng, 320)]
    flat = [v for verdicts in out for v in verdicts]
    # the corpus holds passing and failing verdicts of each checker, and errors
    for name in ("prop", "prop1_goods", "prop1_bads", "ef", "ceei_goods", "ceei_bads", "gf",
                 "utility_guarantee", "adjusted_envy_chain"):
        holds = {v["holds"] for v in flat if isinstance(v, dict) and v["property"] == name}
        assert holds == {True, False}, name
    assert any(isinstance(v, list) and v[0] == "ZeroUtilityError" for v in flat)
    text = json.dumps(out, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == UTILITY_VERDICTS_DIGEST


def _error(call, *args) -> tuple[type, str]:
    with pytest.raises(FairlotError) as info:
        call(*args)
    return type(info.value), str(info.value)


def test_integer_utilities_match_fraction_sums():
    # the integer rows against the Fraction sums they replaced, on solve_mnw rows,
    # random allocation rows, exact Fraction rows and 0/1 int rows
    rng = random.Random(2324)
    pairs = mnw_rows = 0
    for k, (inst, x) in enumerate(utility_inputs(rng, 160)):
        for i in range(inst.n):
            assert inst.proportional_share(i) == proportional_share_reference(inst, i)
            assert type(inst.proportional_share(i)) is Fraction
        for _ in range(4):
            i = rng.randrange(inst.n)
            ints = tuple(rng.randint(0, 1) for _ in range(inst.m))
            exact = tuple(Fraction(rng.choice(EXACT_VALUES)) for _ in range(inst.m))
            for bundle in (x.row(i), ints, exact):
                got, want = inst.utility(i, bundle), utility_reference(inst, i, bundle)
                assert got == want and type(got) is Fraction
                pairs += 1
            mnw_rows += k % 5 < 2
            items = [j for j in range(inst.m) if ints[j]]
            got, want = inst.bundle_value(i, items), bundle_value_reference(inst, i, items)
            assert got == want and type(got) is Fraction
            short = ints[:-1] if rng.random() < 0.5 else ints + (1,)
            assert _error(inst.utility, i, short) == _error(utility_reference, inst, i, short)
        for slack in (0, Fraction(1, 10)):
            assert _outcome(ceei_verify, inst, x, slack) == _outcome(ceei_verify_reference, inst, x, slack)
    assert pairs >= 1500 and mnw_rows >= 250


def test_float_values_and_cells_are_input_errors():
    # a float would make every sum inexact: 0.1 + 0.2 is not 3/10
    with pytest.raises(InputError, match="not an int or a Fraction"):
        Instance(((0.1, 0.2), (0.3, 0.4)))
    for matrix in (((0.1, 0.7), (0.9, 0.3)), ((1.0, 0), (0, 1)), ((Fraction(1, 2), 0), (0.5, 1)), ((float("nan"),),)):
        with pytest.raises(InputError, match="not an int or a Fraction"):
            FractionalAllocation(matrix)
    with pytest.raises(InputError, match="not an int or a Fraction"):
        IntegralAllocation(((1.0, 0), (0, 1)))
    with pytest.raises(InputError, match="not an int or a Fraction"):
        Instance(((1, "2"),))
    a, b = IntegralAllocation(((1, 0), (0, 1))), IntegralAllocation(((0, 1), (1, 0)))
    with pytest.raises(InputError, match="lottery weight 0.5 is not an int or a Fraction"):
        Lottery(((0.5, a), (0.5, b)))
    # ints and Fractions still mix freely, and the loaders parse decimals exactly
    inst = Instance(((1, Fraction(1, 2)), (0, 3)))
    assert inst.utility(0, (Fraction(1, 3), 1)) == Fraction(5, 6)
    assert Instance.from_rows([["0.1", "0.2"]]).utility(0, (1, 1)) == Fraction(3, 10)


HALVES = FractionalAllocation.from_rows([["1/2", "1/2"], ["1/2", "1/2"]])
TILT2 = Instance.from_rows([[1, 2], [1, 3]])


@pytest.mark.parametrize(
    "call, args, message",
    [
        (HALVES.to_integral, (), "allocation has fractional cells"),
        (PropertyVerdict, ("x", False), "failing verdict requires a witness"),
        (sd_dominates, (((0, 1),), 0, (1, 0), (1,)), "bundle length does not match item count"),
        (RpsConfig, ("x",), "unknown mode: x"),
        (randomized_round_robin, (TILT2, "x"), "unknown mode: x"),
        (check_efficiency, (TILT2, HALVES, "x"), "unknown efficiency notion: x"),
    ],
    ids=["to-integral", "verdict-witness", "sd-length", "rps-mode", "round-robin-mode", "efficiency-notion"],
)
def test_library_input_errors(call, args, message):
    assert _error(call, *args) == (InputError, message)


# cells that break the contract, each alone or beside others
HOSTILE_CELLS = (
    0.5, 1.0, 0.0, float("nan"), float("inf"), -0.25, 1.5,
    Fraction(-1, 3), -1, Fraction(4, 3), 2, True, False, Fraction(1), Fraction(0),
)
# one fragment of each error message the two allocation classes raise
CONTRACT_ERRORS = ("not 0/1", "needs at least one", "inconsistent lengths", "outside", "not an int", "allocates more")


def _contract_matrices(rng: random.Random, count: int):
    """Seeded matrices for both allocation classes: 0/1 and fractional ones with
    exact cells, then hostile cells, an overflowing column, a ragged row, rows
    with no cells or no rows at all."""
    for k in range(count):
        n, m = rng.randint(1, 4), rng.randint(0, 5)
        rows = [[0] * m for _ in range(n)]
        for j in range(m):
            if k % 3 == 0:  # 0/1, one holder or none, now and then two
                for holder in rng.sample(range(n + 1), 2 if rng.random() < 0.1 else 1):
                    if holder < n:
                        rows[holder][j] = rng.choice((1, 1, True, Fraction(1)))
            else:
                weights = [rng.choice((0, 0, 1, 2, 3)) for _ in range(n)]
                total = sum(weights) + rng.choice((0, 0, 1, 5))
                for i, w in enumerate(weights):
                    rows[i][j] = Fraction(w, total) if total else 0
        if m and rng.random() < 0.45:
            for _ in range(rng.choice((1, 1, 2))):
                rows[rng.randrange(n)][rng.randrange(m)] = rng.choice(HOSTILE_CELLS)
        if m and n > 1 and rng.random() < 0.2:  # overflow: a column's cells all raised to 2/3
            j = rng.randrange(m)
            for row in rows:
                row[j] = Fraction(2, 3)
        if rng.random() < 0.12:  # ragged: one row loses or gains a cell
            row = rows[rng.randrange(n)]
            if row and rng.random() < 0.5:
                row.pop()
            else:
                row.append(0)
        if rng.random() < 0.03:
            rows = []
        yield tuple(tuple(row) for row in rows)


def _raised(call, *args) -> tuple[type, str] | None:
    try:
        call(*args)
    except Exception as exc:  # the exception type is part of the contract
        return type(exc), str(exc)
    return None


def test_integer_contract_matches_fraction_check():
    # the verdict, the exception type and the message of the integer check against
    # the Fraction check it replaced, for both classes; a valid matrix's integer
    # form is its cells over the lcm of their denominators
    rng = random.Random(27)
    seen: dict[tuple[str, str], int] = {}
    for matrix in _contract_matrices(rng, 1200):
        for cls in (FractionalAllocation, IntegralAllocation):
            want = _raised(allocation_check_reference, matrix, cls is IntegralAllocation)
            assert _raised(cls, matrix) == want, (cls.__name__, matrix)
            kind = "valid" if want is None else next(k for k in CONTRACT_ERRORS if k in want[1])
            seen[cls.__name__, kind] = seen.get((cls.__name__, kind), 0) + 1
            if want is not None:
                continue
            x = cls(matrix)
            den, rows = x.scaled
            assert den == math.lcm(*[Fraction(v).denominator for row in matrix for v in row])
            assert all(type(r) is int for row in rows for r in row)
            assert [[Fraction(r, den) for r in row] for row in rows] == [list(row) for row in matrix]
            assert x.complete is all(sum(col, 0) == 1 for col in zip(*matrix))
            assert x.is_integral is all(v in (0, 1) for row in matrix for v in row)
    # every error of each class (no cell of an integral one gets past its 0/1 rule
    # to the bounds), and valid matrices of both, show up often
    assert len(seen) == 12 and min(seen.values()) >= 15, seen


UTILITY_VERDICTS_DIGEST = "5788c58043986ca2c8f32279befc8a911d7f26f7dc22b9b2f3a5b23c64543498"


def _order_instances(rng: random.Random, count: int):
    """Seeded instances for the order cross-check, cycling through: small ints
    of both signs (ties, zero rows, mixed items), exact values of both signs
    (``EXACT_VALUES``, so each agent's row has its own denominators), nonpositive
    exact values with zero rows (bads), and one row repeated at per-agent
    Fraction scales (ties inside a row and across agents)."""
    for k in range(count):
        case = k % 4
        n, m = rng.randint(1, 4), rng.randint(0, 7)
        if case == 0:
            rows = [[rng.randint(-2, 2) for _ in range(m)] for _ in range(n)]
        elif case == 1:
            rows = [[rng.choice((-1, 1)) * Fraction(rng.choice(EXACT_VALUES)) for _ in range(m)] for _ in range(n)]
        elif case == 2:
            rows = [[-Fraction(rng.choice(EXACT_VALUES)) for _ in range(m)] for _ in range(n)]
        else:
            base = [Fraction(rng.choice((0, 1, 1, 2, "1/3"))) * rng.choice((1, 1, -1)) for _ in range(m)]
            rows = [[v * Fraction(rng.randint(1, 5), rng.randint(1, 7)) for v in base] for _ in range(n)]
        if m and rng.random() < 0.25:
            rows[rng.randrange(n)] = [0] * m
        yield Instance.from_rows(rows)


def test_integer_orders_match_fraction_reference(monkeypatch):
    # Instance.prefs, the padded orders of rps_mixed/rps_bads and the flipped orders
    # of bads rounding sort the int rows of Instance.scaled; each must equal the
    # Fraction-keyed sort of the values it replaced. The engine and the
    # decomposition are stubbed to hand back the orders they were given.
    monkeypatch.setattr(importlib.import_module("fairlot.rps"), "_run_engine", lambda prefs, m, cfg, width: (prefs, m, width))
    monkeypatch.setattr(importlib.import_module("fairlot.rounding"), "bihierarchy_decompose", lambda x, prefs: prefs)
    rng = random.Random(3030)
    seen = dict.fromkeys(("ties", "zero_row", "negative", "denominators", "flipped"), 0)
    for inst in _order_instances(rng, 600):
        assert inst.prefs == ordinal_preferences_reference(inst.values)
        pad = (-inst.m) % inst.n
        padded = ordinal_preferences_reference([row + (ZERO,) * pad for row in inst.values])
        assert rps_mixed(inst) == (padded, inst.m + pad, inst.m)
        flat = [v for row in inst.values for v in row]
        if any(v < 0 for v in flat) and not any(v > 0 for v in flat):
            x = FractionalAllocation(tuple((0,) * inst.m for _ in range(inst.n)))
            flipped = ordinal_preferences_reference([[-v for v in row] for row in inst.values])
            assert prop1_ef11_lottery_bads(inst, x) == flipped
            seen["flipped"] += 1
        seen["ties"] += any(len(set(row)) < len(row) for row in inst.values)
        seen["zero_row"] += any(not any(row) for row in inst.values) and inst.m > 0
        seen["negative"] += any(v < 0 for v in flat)
        seen["denominators"] += any(len({v.denominator for v in row}) > 1 for row in inst.values)
    assert min(seen.values()) >= 100, seen


def _lottery_supports(rng: random.Random, count: int):
    """Seeded supports for the Lottery check: weights that sum to one, over
    allocations drawn from a small pool so that matrices repeat; then a weight set
    to zero or below, all weights scaled off one, int weights, an allocation of
    another shape, or no entry at all."""
    for k in range(count):
        n, m = rng.randint(1, 3), rng.randint(0, 3)
        pool = [IntegralAllocation(tuple(tuple(int(o == i) for o in owners) for i in range(n)))
                for owners in ([rng.randrange(-1, n) for _ in range(m)] for _ in range(3))]
        raw = [rng.randint(1, 6) for _ in range(rng.randint(1, 5))]
        weights: list = [Fraction(r, sum(raw)) for r in raw]
        case = k % 6
        if case == 1:
            weights[rng.randrange(len(weights))] = rng.choice((0, ZERO, Fraction(-1, 3), -2))
        elif case == 2:
            weights = [w * Fraction(rng.choice((1, 2, 3)), rng.choice((2, 3, 5))) for w in weights]
        elif case == 3 and len(weights) == 1:
            weights = [1]
        elif case == 3:
            weights = [rng.choice((1, 2)) for _ in weights]
        support = [(w, rng.choice(pool)) for w in weights]
        if case == 4 and rng.random() < 0.5:
            support.insert(rng.randrange(len(support) + 1), (weights[0], IntegralAllocation(((1,) * (m + 1),))))
        if case == 5 and rng.random() < 0.2:
            support = []
        yield tuple(support)


def test_lottery_check_matches_fraction_sum():
    # the verdict, the exception type and the message of the int sum against the
    # Fraction sum it replaced; a valid support stores the same merged Fraction
    # weights over the same allocations, in the same order, and its marginal,
    # summed per distinct row, is the Fraction sum of every part's cells, with
    # the scaled form the checked constructor stores
    seen: dict[str, int] = {}
    for support in _lottery_supports(random.Random(3031), 1200):
        want = _raised(lottery_check_reference, support)
        assert _raised(Lottery, support) == want, support
        kind = "valid" if want is None else next(k for k in ("positive", "sum to", "shapes", "nonempty") if k in want[1])
        seen[kind] = seen.get(kind, 0) + 1
        if want is None:
            lottery = Lottery(support)
            got = lottery.support
            assert got == lottery_check_reference(support)
            assert all(type(w) is Fraction for w, _ in got)
            seen["merged"] = seen.get("merged", 0) + (len(got) < len(support))
            marginal = lottery.marginal
            assert marginal == lottery_marginal(lottery), support
            assert marginal.scaled == FractionalAllocation(marginal.matrix).scaled, support
            # an agent's equal rows held as distinct objects, as the JSON loader holds them
            agents = [[alloc.matrix[i] for _, alloc in got] for i in range(lottery.n)]
            shared = any(len(set(map(id, rows))) > len(set(rows)) for rows in agents)
            seen["equal rows"] = seen.get("equal rows", 0) + shared
    assert len(seen) == 7 and min(seen.values()) >= 40, seen


def _assert_checked_part(part):
    # a part built from the producer's int rows is the part the public check builds
    checked = IntegralAllocation(part.matrix)
    assert type(part) is IntegralAllocation and part == checked and part.scaled == checked.scaled
    assert all(type(x) is int for row in part.matrix for x in row)


def _assert_checked_lottery(lottery):
    for w, part in lottery.support:
        assert type(w) is Fraction, w
        _assert_checked_part(part)
    marginal = lottery.marginal
    checked = FractionalAllocation(tuple(tuple(Fraction(x) for x in row) for row in marginal.matrix))
    assert type(marginal) is FractionalAllocation and marginal == checked and marginal.scaled == checked.scaled
    assert marginal == lottery_marginal(lottery)
    # whether the weights' lcm had to be divided down to the cells' lcm
    return marginal.scaled[0] != math.lcm(*[w.denominator for w, _ in lottery.support])


def test_library_parts_and_marginals_match_the_checked_constructors():
    # every part and marginal the library builds from its own ints, unchecked,
    # equals the public constructor's result on the same cells, scaled form
    # included, and every lottery weight is a Fraction
    rng = random.Random(3838)
    lotteries, parts = [], []
    for kind, inst in eating_inputs(rng, 120):
        run = {"goods": rps, "bads": rps_bads, "mixed": rps_mixed}[kind]
        for mode in (FULL_DISTRIBUTION, POLY_SUPPORT, SAMPLE):
            out = run(inst, RpsConfig(mode, seed=rng.randrange(100)))
            (parts if isinstance(out, IntegralAllocation) else lotteries).append(out)
        if kind == "goods":
            lotteries.append(randomized_round_robin(inst, "exact"))
            parts.append(randomized_round_robin(inst, "sample", seed=rng.randrange(100)))
    for _ in range(80):
        # a complete allocation over its largest row sum, so every row sum is at most 1
        x = random_complete(rng, rng.randint(1, 5), rng.randint(1, 6))
        top = max(1, *map(sum, x.matrix))
        lotteries.append(bvn_decompose(FractionalAllocation(tuple(tuple(v / top for v in row) for row in x.matrix))))
    for inst, x in utility_inputs(rng, 80):
        lotteries.append(bihierarchy_decompose(x, inst.prefs))
    for inst in mnw_inputs(rng, 24):
        lotteries.append(gf_lottery(inst))
    for part in parts:
        _assert_checked_part(part)
    reduced = sum(_assert_checked_lottery(lottery) for lottery in lotteries)
    assert len(parts) >= 150 and reduced >= 20, (len(parts), reduced)
