"""Fairness checkers against hand oracles, implications, and witness re-checks."""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import time
from fractions import Fraction

import pytest

from fairlot import cli, lp, properties
from fairlot.core import (
    FairlotError,
    FractionalAllocation,
    InputError,
    Instance,
    IntegralAllocation,
    KindMismatchError,
    PropertyVerdict,
    SizeLimitError,
    sd_dominates,
)
from fairlot.mnw import mnw_v, solve_mnw
from fairlot.properties import (
    AuditReport,
    audit_lottery,
    check_efficiency,
    check_envy,
    check_gf,
    check_share,
    enumerate_integral_allocations,
)
from fairlot.rounding import gf_lottery
from fairlot.rps import rps, rps_bads, rps_mixed

from conftest import (
    EXACT_VALUES,
    eating_inputs,
    mnw_inputs,
    random_bads,
    random_complete,
    random_goods,
    random_integral,
    random_positive_goods,
    utility_inputs,
)
from oracles import (
    check_envy_reference,
    check_share_reference,
    enumerate_ef1_allocations,
    fractional_row,
    fpo_lp_reference,
    integral_nash_argmax,
    point_lottery,
    priced_at_one_reference,
    to_fractional,
)


def _enumerated_wef1(inst: Instance, a: IntegralAllocation) -> tuple[int, int] | None:
    """The first (envious, envied) pair that no removal of one own item and one
    of the other's items (either may be none) clears, by trying every pair."""
    for i in range(inst.n):
        for h in range(inst.n):
            if h == i:
                continue
            own = inst.bundle_value(i, a.bundles[i])
            other = inst.bundle_value(i, a.bundles[h])
            if not any(
                own - (inst.values[i][o_i] if o_i is not None else 0)
                >= other - (inst.values[i][o_h] if o_h is not None else 0)
                for o_i in (None, *a.bundles[i])
                for o_h in (None, *a.bundles[h])
            ):
                return i, h
    return None


def _enumerated_sd_ef1(inst: Instance, a: IntegralAllocation) -> tuple[int, int] | None:
    """The first pair where removing no single item of the envied bundle makes the
    envious agent's bundle stochastically dominate it, by trying every item."""
    for i in range(inst.n):
        for h in range(inst.n):
            if h == i or not a.bundles[h]:
                continue
            reductions = [[0 if k == j else x for k, x in enumerate(a.matrix[h])] for j in a.bundles[h]]
            if not any(sd_dominates(inst.prefs, i, a.matrix[i], q) for q in reductions):
                return i, h
    return None


def _enumerated_ef11_goods(inst: Instance, a: IntegralAllocation) -> dict | None:
    """The first (envious, envied) pair that no good added from outside the
    envious bundle together with one good removed from the envied bundle clears,
    by trying every item pair, with the best value of each side."""
    for i in range(inst.n):
        row = inst.values[i]
        own = sum((row[j] for j in a.bundles[i]), Fraction(0))
        added = [row[j] for j in range(inst.m) if j not in a.bundles[i]] or [Fraction(0)]
        for h in range(inst.n):
            if h == i or not a.bundles[h]:
                continue
            other = sum((row[j] for j in a.bundles[h]), Fraction(0))
            removed = [row[j] for j in a.bundles[h]]
            if not any(own + g >= other - d for g in added for d in removed):
                return {
                    "envious": i,
                    "envied": h,
                    "own_plus_best": str(own + max(added)),
                    "other_minus_best": str(other - max(removed)),
                }
    return None

def _envy_inputs(rng: random.Random, count: int):
    """Seeded (instance, allocation) pairs for the envy cross-check. Goods, bads and
    mixed values come from small ranges, so ties, zero rows and items nobody values
    are common; n runs 1 to 4 and m 0 to 7. A third of the instances have int
    values; a third have agent i's values in steps of 1/3, 1/4, 1/7 or 1/10 by i,
    and a third draw from ``EXACT_VALUES``, so each agent's row has its own scale.
    Allocations are integral, 0/1 fractional, or fractional in quarters; integral
    ones leave items unassigned and lean toward agent 0, so some bundles are empty
    and some lopsided."""
    ranges = ((0, 4), (-4, 0), (-3, 3))
    for t in range(count):
        n = 1 if t % 10 == 0 else rng.randint(2, 4)
        m = rng.randint(0, 7)
        lo, hi = ranges[t % 3]
        flavor = t // 9 % 3
        if flavor == 0:
            rows = [[rng.randint(lo, hi) for _ in range(m)] for _ in range(n)]
        elif flavor == 1:
            rows = [[Fraction(rng.randint(lo * d, hi * d), d) for _ in range(m)] for d in (3, 4, 7, 10)[:n]]
        else:
            signs = [sign for sign, bound in ((-1, lo), (1, hi)) if bound]
            rows = [[rng.choice(signs) * Fraction(rng.choice(EXACT_VALUES)) for _ in range(m)] for _ in range(n)]
        inst = Instance.from_rows(rows)
        pool = [*range(-1, n), *[0] * (t % 4 * 2)]  # -1 leaves an item unassigned
        owners = [rng.choice(pool) for _ in range(m)]
        matrix = [[int(o == i) for o in owners] for i in range(n)]
        style = t // 3 % 3
        if style == 0:
            yield inst, IntegralAllocation(tuple(map(tuple, matrix)))
        elif style == 1:
            yield inst, FractionalAllocation.from_rows(matrix)
        else:
            columns = []
            for _ in range(m):
                left, column = 4, []
                for _ in range(n):
                    quarters = rng.randint(0, left)
                    left -= quarters
                    column.append(Fraction(quarters, 4))
                columns.append(column)
            yield inst, FractionalAllocation(tuple(tuple(c[i] for c in columns) for i in range(n)))


F = Fraction


class TestShares:
    def test_prop_witness(self):
        inst = Instance.from_rows([[3, 1], [1, 3]])
        good = IntegralAllocation.from_bundles(2, 2, [(0,), (1,)])
        bad = IntegralAllocation.from_bundles(2, 2, [(1,), (0,)])
        assert check_share(inst, good, "prop").holds
        verdict = check_share(inst, bad, "prop")
        assert not verdict.holds
        assert verdict.witness == {"agent": 0, "value": "1", "share": "2"}

    def test_prop1_weak_vs_strict(self):
        inst = Instance.from_rows([[1, 1], [1, 1]])
        part = IntegralAllocation.from_bundles(2, 2, [(0, 1), ()])
        # the empty bundle recovers exactly the share of 1, never more
        assert check_share(inst, part, "prop1_goods").holds
        assert not check_share(inst, part, "prop1_goods", strict=True).holds

    def test_prop1_bads_drops_own_item(self, bads3):
        heavy = IntegralAllocation.from_bundles(2, 3, [(0, 1, 2), ()])
        # share is -3; dropping the worst bad brings -6 up to -3 exactly
        assert check_share(bads3, heavy, "prop1_bads").holds
        assert not check_share(bads3, heavy, "prop1_bads", strict=True).holds

    def test_prop1_kind_routing(self, bads3, swap4):
        part = IntegralAllocation.from_bundles(2, 3, [(0,), (1, 2)])
        with pytest.raises(KindMismatchError):
            check_share(bads3, part, "prop1_goods")
        four = IntegralAllocation.from_bundles(2, 4, [(0, 1), (2, 3)])
        with pytest.raises(KindMismatchError):
            check_share(swap4, four, "prop1_bads")

    def test_unknown_notion(self, swap4):
        part = IntegralAllocation.from_bundles(2, 4, [(0, 1), (2, 3)])
        with pytest.raises(InputError):
            check_share(swap4, part, "mms")


def test_share_checker_on_integer_rows_matches_fraction_reference():
    # prop1_goods and prop1_bads compare ints on the rows of Instance.scaled; for
    # them and prop, strict and weak, the verdict and witness, or the error type
    # and message, must be those of the Fraction body, on int rows and rows with
    # per-agent denominators, empty bundles and unassigned items among them
    rng = random.Random(3434)
    cases = [*_envy_inputs(rng, 1800), *utility_inputs(rng, 100)]
    cases.append((Instance.from_rows([[1, 2]]), IntegralAllocation.from_bundles(1, 3, [(0,)])))

    def outcome(check, inst, x, notion, strict):
        try:
            return check(inst, x, notion, strict).to_json()
        except Exception as exc:
            return type(exc), str(exc)

    failing: dict[tuple, int] = {}
    empty = 0
    for inst, x in cases:
        scaled = any(scale > 1 for scale, _ in inst.scaled)
        empty += x.is_integral and not all(any(row) for row in x.matrix)
        for notion in (*properties.SHARE_NOTIONS, "mms"):
            for strict in (False, True):
                got = outcome(check_share, inst, x, notion, strict)
                assert got == outcome(check_share_reference, inst, x, notion, strict), (inst, x, notion, strict)
                if isinstance(got, dict) and not got["holds"]:
                    key = notion, strict, scaled
                    failing[key] = failing.get(key, 0) + 1
                    # a prop1 failure always has an item to add or drop
                    assert notion == "prop" or "best_item" in got["witness"]
    # every notion fails, strict and weak, on int rows and on scaled rows
    keys = [(notion, strict, scaled) for notion in properties.SHARE_NOTIONS for strict in (False, True) for scaled in (False, True)]
    assert min(failing.get(key, 0) for key in keys) > 10, failing
    assert empty > 100


class TestEnvy:
    def test_ef_witness_fields(self):
        inst = Instance.from_rows([[1, 2], [1, 2]])
        part = IntegralAllocation.from_bundles(2, 2, [(1,), (0,)])
        assert check_envy(inst, part, "ef").holds is False
        verdict = check_envy(inst, part, "ef")
        assert verdict.witness == {"envious": 1, "envied": 0, "own": "1", "other": "2"}

    def test_ef1_goods_drops_rival_item(self):
        inst = Instance.from_rows([[1, 1], [1, 1]])
        hog = IntegralAllocation.from_bundles(2, 2, [(0, 1), ()])
        assert not check_envy(inst, hog, "ef1").holds
        assert check_envy(inst, hog, "ef11_goods").holds

    def test_ef1_vs_ef2_on_bads(self, bads3):
        part = IntegralAllocation.from_bundles(2, 3, [(0,), (1, 2)])
        assert not check_envy(bads3, part, "ef1").holds
        assert check_envy(bads3, part, "efk", k=2).holds

    def test_efk_requires_positive_k(self, swap4):
        part = IntegralAllocation.from_bundles(2, 4, [(0, 1), (2, 3)])
        with pytest.raises(InputError):
            check_envy(swap4, part, "efk")
        with pytest.raises(InputError):
            check_envy(swap4, part, "efk", k=0)

    def test_sd_ef1_failure(self):
        inst = Instance.from_rows([[2, 1], [1, 2]])
        hog = IntegralAllocation.from_bundles(2, 2, [(), (0, 1)])
        verdict = check_envy(inst, hog, "sd_ef1")
        assert not verdict.holds
        assert verdict.witness == {"envious": 0, "envied": 1}

    def test_sd_ef_on_bads_runs_the_mirror_test(self):
        # agent 1 holds only its least-bad item; agent 0's two bads may weigh more
        # than agent 1's one, so agent 0 is the envious one
        inst = Instance.from_rows([[-1, -2, -3], [-3, -2, -1]])
        split = IntegralAllocation.from_bundles(2, 3, [(0, 1), (2,)])
        assert check_envy(inst, split, "sd_ef").witness == {"envious": 0, "envied": 1}
        # each agent holds only its own least-bad item, and nobody the middle one
        assert check_envy(inst, IntegralAllocation.from_bundles(2, 3, [(0,), (2,)]), "sd_ef").holds

    def test_sd_ef_refuses_mixed_values(self):
        # each agent holds exactly the items it values positively, but the goods
        # test read every value as a good and failed it
        inst = Instance.from_rows([[1, 1, -1], [-1, -1, 1]])
        split = IntegralAllocation.from_bundles(2, 3, [(0, 1), (2,)])
        with pytest.raises(KindMismatchError, match="sd_ef is defined for goods or bads instances"):
            check_envy(inst, split, "sd_ef")

    def test_integral_and_fractional_forms_agree(self):
        # integral rows compare in int arithmetic; the verdict and witness must be
        # those of the same allocation written with Fraction cells
        rng = random.Random(71)
        failing = {"sd_ef": 0, "sd_ef1": 0}
        for _ in range(150):
            inst = random_goods(rng, n_max=4, m_max=7)
            owners = [rng.randrange(-1, inst.n) for _ in range(inst.m)]
            a = IntegralAllocation(tuple(tuple(int(o == i) for o in owners) for i in range(inst.n)))
            for notion in failing:
                verdict = check_envy(inst, a, notion)
                assert check_envy(inst, to_fractional(a), notion) == verdict
                failing[notion] += not verdict.holds
        assert all(failing.values())

    def test_wef1_double_sided_removal(self):
        inst = Instance.from_rows([[2, -1], [2, -1]])
        part = IntegralAllocation.from_bundles(2, 2, [(0,), (1,)])
        assert check_envy(inst, part, "wef1").holds
        wide = Instance.from_rows([[2, 2, -1], [2, 2, -1]])
        lopsided = IntegralAllocation.from_bundles(2, 3, [(0, 1), (2,)])
        assert not check_envy(wide, lopsided, "wef1").holds

    def test_closed_forms_match_enumeration(self):
        # wef1 and sd_ef1 take the single best removal; the enumerations they
        # replaced try every removal, and must give the same verdicts and witnesses
        rng = random.Random(1212)
        failing = {"wef1": 0, "sd_ef1": 0}
        for trial in range(600):
            n, m = rng.randint(2, 4), rng.randint(1, 7)
            low = 0 if trial % 2 else -3  # odd trials: goods with ties; even: mixed items
            values = [[rng.randint(low, 3) for _ in range(m)] for _ in range(n)]
            values[0] = [v if v else 1 for v in values[0]]  # every item has a positive valuer
            inst = Instance.from_rows(values)
            owners = [rng.randrange(-1, n) for _ in range(m)]  # -1 leaves an item unassigned
            a = IntegralAllocation(tuple(tuple(int(o == i) for o in owners) for i in range(n)))
            notions = ("wef1", "sd_ef1") if inst.kind == "goods" else ("wef1",)
            for notion in notions:
                oracle = _enumerated_wef1 if notion == "wef1" else _enumerated_sd_ef1
                pair = oracle(inst, a)
                verdict = check_envy(inst, a, notion)
                assert verdict.holds == (pair is None)
                if pair is not None:
                    assert verdict.witness == {"envious": pair[0], "envied": pair[1]}
                    failing[notion] += 1
        assert min(failing.values()) > 50

    def test_pair_loop_matches_pre_change_checker(self):
        # every notion, efk at k = None, 0, 1, 2 and 3, and an unknown name, on the
        # one pair loop and on the separate loops it replaced: the same verdict and
        # witness, or the same error type and message
        calls = [(notion, None) for notion in (*properties.ENVY_NOTIONS, "envy")]
        calls += [("efk", k) for k in (0, 1, 2, 3)]

        def outcome(check, inst, alloc, notion, k):
            try:
                return check(inst, alloc, notion, k).to_json()
            except Exception as exc:
                return type(exc), str(exc)

        # failures by whether some agent's scale exceeds 1, where a witness value
        # is an int sum over that scale, as in "own_plus_best": "7/6"
        failing = {scaled: dict.fromkeys(calls, 0) for scaled in (False, True)}
        for inst, alloc in _envy_inputs(random.Random(2101), 1800):
            scaled = any(scale > 1 for scale, _ in inst.scaled)
            for notion, k in calls:
                got = outcome(check_envy, inst, alloc, notion, k)
                assert got == outcome(check_envy_reference, inst, alloc, notion, k), (inst, alloc, notion, k)
                failing[scaled][notion, k] += isinstance(got, dict) and not got["holds"]
        mismatched = (Instance.from_rows([[1, 2]]), IntegralAllocation.from_bundles(1, 3, [(0,)]))
        assert outcome(check_envy, *mismatched, "ef", None) == outcome(check_envy_reference, *mismatched, "ef", None)
        # every notion fails several times on int rows and on scaled rows, efk at each k >= 1 too
        for counts in failing.values():
            assert min(counts[notion, None] for notion in properties.ENVY_NOTIONS if notion != "efk") > 10, counts
            assert min(counts["efk", k] for k in (1, 2, 3)) > 10, counts

    def test_ef11_goods_failures_match_enumeration(self):
        rng = random.Random(1111)
        failing = 0
        for _ in range(300):
            inst = random_goods(rng, n_max=4, m_max=6)
            owners = [rng.randrange(-1, inst.n) for _ in range(inst.m)]  # -1: unassigned
            a = IntegralAllocation(tuple(tuple(int(o == i) for o in owners) for i in range(inst.n)))
            witness = _enumerated_ef11_goods(inst, a)
            verdict = check_envy(inst, a, "ef11_goods")
            assert verdict.holds == (witness is None)
            assert verdict.witness == witness
            failing += witness is not None
        assert failing > 10
        inst = Instance.from_rows([[1, 1, 1], [1, 1, 1]])
        hog = IntegralAllocation.from_bundles(2, 3, [(), (0, 1, 2)])
        witness = {"envious": 0, "envied": 1, "own_plus_best": "1", "other_minus_best": "2"}
        assert check_envy(inst, hog, "ef11_goods").witness == witness == _enumerated_ef11_goods(inst, hog)

    def test_ef11_bads_oracle(self):
        inst = Instance.from_rows([[-1, -1], [-1, -1]])
        hog = IntegralAllocation.from_bundles(2, 2, [(0, 1), ()])
        # dropping a bad reaches -1 and the empty rival plus one bad is -1 too
        assert check_envy(inst, hog, "ef11_bads").holds
        wide = Instance.from_rows([[-1, -1, -1], [-1, -1, -1]])
        worse = IntegralAllocation.from_bundles(2, 3, [(0, 1, 2), ()])
        assert not check_envy(wide, worse, "ef11_bads").holds

    def test_kind_guards(self, bads3, swap4, mixed4):
        bads_part = IntegralAllocation.from_bundles(2, 3, [(0,), (1, 2)])
        with pytest.raises(KindMismatchError):
            check_envy(bads3, bads_part, "sd_ef1")
        with pytest.raises(KindMismatchError):
            check_envy(bads3, bads_part, "ef11_goods")
        goods_part = IntegralAllocation.from_bundles(2, 4, [(0, 1), (2, 3)])
        with pytest.raises(KindMismatchError):
            check_envy(swap4, goods_part, "ef11_bads")
        mixed_part = IntegralAllocation.from_bundles(2, 4, [(0, 2), (1, 3)])
        with pytest.raises(KindMismatchError):
            check_envy(mixed4, mixed_part, "ef1")

    def test_fractional_input_to_integral_notion(self, swap4):
        x = FractionalAllocation.from_rows([["1/2"] * 4, ["1/2"] * 4])
        with pytest.raises(InputError):
            check_envy(swap4, x, "ef1")


def test_sd_ef_on_integer_rows_matches_fraction_reference():
    # sd_ef compares the int rows of x.scaled; the verdict and witness, or the error
    # type and message, must be those of the Fraction definition on x.matrix, over
    # goods, bads and mixed values with per-agent denominators, under MNW and random
    # complete allocations, eating lotteries' marginals and parts, and the envy inputs
    rng = random.Random(3032)
    cases = [*utility_inputs(rng, 300), *_envy_inputs(rng, 300)]
    rules = {"goods": rps, "bads": rps_bads, "mixed": rps_mixed}
    for kind, inst in eating_inputs(rng, 150):
        lot = rules[kind](inst)
        cases += [(inst, lot.marginal), *[(inst, part) for _, part in lot.support][:3]]

    def outcome(inst, x, check):
        try:
            return check(inst, x, "sd_ef").to_json()
        except Exception as exc:
            return type(exc), str(exc)

    seen: dict[tuple, int] = {}
    for inst, x in cases:
        got = outcome(inst, x, check_envy)
        assert got == outcome(inst, x, check_envy_reference), (inst, x)
        flat = [v for row in inst.values for v in row]
        sign = "bads" if any(v < 0 for v in flat) else "goods"
        result = "error" if isinstance(got, tuple) else got["holds"]
        key = (sign, result, x.scaled[0] > 1)
        seen[key] = seen.get(key, 0) + 1
    # goods and bads each pass and fail on fractional and integral rows; mixed errs
    verdicts = [(sign, holds, frac) for sign in ("goods", "bads") for holds in (True, False) for frac in (True, False)]
    assert min(seen.get(key, 0) for key in verdicts) >= 15, seen
    assert seen.get(("bads", "error", True), 0) + seen.get(("bads", "error", False), 0) >= 50, seen


class TestEfficiency:
    def test_po_integral_dominator(self):
        inst = Instance.from_rows([[1, 2], [2, 1]])
        mismatched = IntegralAllocation.from_bundles(2, 2, [(0,), (1,)])
        verdict = check_efficiency(inst, mismatched, "po_integral")
        assert not verdict.holds
        assert verdict.witness == {"dominator_bundles": [[1], [0]]}
        assert check_efficiency(
            inst, IntegralAllocation.from_bundles(2, 2, [(1,), (0,)]), "po_integral"
        ).holds

    def test_fpo_dominator_reaches_higher_total(self):
        inst = Instance.from_rows([[1, 2], [2, 1]])
        mismatched = IntegralAllocation.from_bundles(2, 2, [(0,), (1,)])
        verdict = check_efficiency(inst, mismatched, "fpo")
        assert not verdict.holds
        dom = FractionalAllocation.from_rows(verdict.witness["dominator"])
        for i in range(2):
            assert inst.utility(i, dom.row(i)) >= inst.utility(
                i, fractional_row(mismatched, i)
            )
        total_dom = sum(inst.utility(i, dom.row(i)) for i in range(2))
        total_cur = sum(inst.utility(i, fractional_row(mismatched, i)) for i in range(2))
        assert total_dom > total_cur

    @pytest.mark.parametrize(
        "rows, x, dominator",
        [
            # agent 0 holds half of item 0, worth -1 to it and 1 to agent 1, and hands that half over
            ([[-1, 2], [1, 1]], [["1/2", "1"], ["1/2", "0"]], [["0", "1"], ["1", "0"]]),
            # the cycle 1 -> 0 -> 1 of product 2 * 2: agent 1 gives d of good 1 to agent 0, which
            # pays it back exactly with 2d of good 0; d = 1/2 is all of agent 0's good 0
            ([[1, 2], [2, 1]], [["1", "0"], ["0", "1"]], [["0", "1/2"], ["1", "1/2"]]),
            # the same with bads, which move against the arcs: agent 0 hands d of bad 1 to
            # agent 1, which hands back 2d of bad 0; d = 1/2 is all of agent 1's bad 0
            ([[-1, -2], [-2, -1]], [["0", "1"], ["1", "0"]], [["1", "1/2"], ["0", "1/2"]]),
            # no 2-cycle exceeds 1, but 2 -> 0 -> 1 -> 2 has product 1/2 * 3/2 * 2: agent 2 gives
            # d of good 2 to agent 0, agent 0 gives d/2 of good 0 to agent 1, and agent 1 takes
            # 3d/2 of bad 1 from agent 2; d = 2/3 is all of agent 2's bad 1, and agent 2 gains 2/3
            (
                [[2, -1, 1], [3, -1, -1], [-1, -2, 2]],
                [["1", "0", "0"], ["0", "0", "0"], ["0", "1", "1"]],
                [["2/3", "0", "2/3"], ["1/3", "1", "0"], ["0", "0", "1/3"]],
            ),
        ],
        ids=["sign", "goods-2-cycle", "bads-2-cycle", "mixed-3-cycle"],
    )
    def test_fpo_dominator_by_hand(self, rows, x, dominator):
        inst, alloc = Instance.from_rows(rows), FractionalAllocation.from_rows(x)
        assert check_efficiency(inst, alloc, "fpo") == PropertyVerdict("fpo", False, {"dominator": dominator})
        _recheck_dominator(inst, alloc, dominator)

    def test_po_does_not_imply_fpo(self, shift4):
        # integral optimum can still be dominated by a fractional reshuffle
        for alloc in enumerate_integral_allocations(shift4):
            po = check_efficiency(shift4, alloc, "po_integral")
            fpo = check_efficiency(shift4, alloc, "fpo")
            if po.holds and not fpo.holds:
                break
        else:
            pytest.fail("expected an integral-optimal, fractionally dominated case")

    def test_fpo_needs_complete_allocation(self, tilt2):
        x = FractionalAllocation.from_rows([["1/2", "0"], ["0", "1"]])
        with pytest.raises(InputError):
            check_efficiency(tilt2, x, "fpo")

    def test_enumeration_cap(self):
        inst = Instance.from_rows([[1] * 5 for _ in range(30)])
        with pytest.raises(SizeLimitError):
            list(enumerate_integral_allocations(inst))
        # po keeps the cap before its certificate, even on an fPO allocation
        everything = IntegralAllocation.from_bundles(30, 5, [tuple(range(5))] + [()] * 29)
        assert check_efficiency(inst, everything, "fpo").holds
        with pytest.raises(SizeLimitError, match=r"^30\^5 allocations exceed the enumeration cap$"):
            check_efficiency(inst, everything, "po_integral")

    def test_efficiency_on_a_column_nobody_values(self):
        # Instance.kind rejects this instance; fpo and po still answer on it
        inst = Instance.from_rows([[0, 1], [0, 2]])
        a = IntegralAllocation.from_bundles(2, 2, [(0,), (1,)])
        with pytest.raises(InputError):
            inst.kind
        assert check_efficiency(inst, a, "fpo") == PropertyVerdict("fpo", True)
        assert check_efficiency(inst, a, "po_integral") == PropertyVerdict("po_integral", True)

    def test_fpo_certificate_matches_lp(self):
        # zero values, zero columns and ties; integral parts and fractional ones with zero cells
        rng = random.Random(16)
        counts = {True: 0, False: 0}
        for k in range(500):
            inst = _random_nonnegative(rng, n_max=4, m_max=5)
            x = random_integral(rng, inst) if k % 2 else _random_fractional(rng, inst)
            verdict = check_efficiency(inst, x, "fpo")
            assert verdict.holds is fpo_lp_reference(inst, x).holds
            if not verdict.holds:
                _recheck_dominator(inst, x, verdict.witness["dominator"])
            counts[verdict.holds] += 1
        assert min(counts.values()) >= 150, counts

    def test_fpo_certificate_matches_lp_on_acceptance_07_parts(self):
        # the instances of test_acceptance_07, every part of each gf_lottery
        rng = random.Random(7)
        parts = 0
        for _ in range(100):
            inst = random_positive_goods(rng, n_max=4, m_max=7, vmax=10)
            for _, part in gf_lottery(inst).support:
                assert check_efficiency(inst, part, "fpo") == fpo_lp_reference(inst, part)
                parts += 1
        assert parts > 200

    def test_fpo_certificate_matches_lp_on_bads_and_mixed(self):
        # zero values and fractions; weighted-argmax allocations (fPO by construction),
        # random ones and rps parts; every failing witness re-checked from the definition
        rng = random.Random(25)
        counts = {True: 0, False: 0}
        instances = set()
        for inst, x in _efficiency_inputs(rng, 1500):
            if not x.complete or not any(v < 0 for row in inst.values for v in row):
                continue
            verdict = check_efficiency(inst, x, "fpo")
            assert verdict.holds is fpo_lp_reference(inst, x).holds
            if not verdict.holds:
                _recheck_dominator(inst, x, verdict.witness["dominator"])
            counts[verdict.holds] += 1
            instances.add(inst)
        assert len(instances) >= 500 and min(counts.values()) >= 150, (len(instances), counts)

    def test_fpo_trades_around_cycles_of_three_or_four_agents(self):
        # the sweep above fails almost only by sign or by 2-cycles; here each failure
        # of a cycle-built input must trade among three or more agents, so a walk
        # that went round a cycle the wrong way would fail the re-check
        rng = random.Random(2627)
        wide = holds = 0
        for inst, x in _trade_cycle_inputs(rng, 240):
            verdict = check_efficiency(inst, x, "fpo")
            assert verdict.holds is fpo_lp_reference(inst, x).holds
            if verdict.holds:
                holds += 1
                continue
            dominator = verdict.witness["dominator"]
            _recheck_dominator(inst, x, dominator)
            moved = [i for i in range(inst.n) if [Fraction(c) for c in dominator[i]] != list(x.matrix[i])]
            wide += len(moved) >= 3
        assert wide >= 30 and holds >= 10, (wide, holds)

    def test_po_certificate_matches_enumeration(self):
        # every allocation of small goods, bads, mixed and unvalued-column instances, plus
        # each allocation with its last item left out, which the certificate never decides
        rng = random.Random(17)
        counts = {True: 0, False: 0}
        for k in range(50):
            if k % 5 == 0:
                inst = random_bads(rng, n_max=3, m_max=4)
            elif k % 5 == 1:
                inst = _efficiency_instance(rng, "mixed", n_max=3, m_max=4)
            else:
                inst = _random_nonnegative(rng, n_max=3, m_max=4)
            rivals = list(enumerate_integral_allocations(inst))
            for a in rivals:
                partial = IntegralAllocation.from_bundles(
                    inst.n, inst.m, [[j for j in b if j != inst.m - 1] for b in a.bundles]
                )
                for alloc in (a, partial):
                    verdict = check_efficiency(inst, alloc, "po_integral")
                    assert verdict == _po_by_enumeration(inst, alloc, rivals)
                    counts[verdict.holds] += 1
        assert min(counts.values()) >= 300, counts

    def test_po_of_a_2x20_fpo_allocation_is_certified(self):
        rng = random.Random(20)
        inst = Instance.from_rows([[rng.randint(1, 10) for _ in range(20)] for _ in range(2)])
        # each item to an agent who values it most maximises the plain sum, so it is fPO
        bundles = [[j for j in range(20) if inst.values[i][j] >= inst.values[1 - i][j]] for i in range(2)]
        bundles[1] = [j for j in bundles[1] if j not in bundles[0]]
        a = IntegralAllocation.from_bundles(2, 20, bundles)
        start = time.perf_counter()
        assert check_efficiency(inst, a, "po_integral") == PropertyVerdict("po_integral", True)
        # enumerating its 2^20 rivals took 69 s on a 2-core host (CPython 3.11)
        assert time.perf_counter() - start < 1.0


def _random_nonnegative(rng: random.Random, n_max: int, m_max: int) -> Instance:
    """Values >= 0 with many zeros and ties; a column may be unvalued."""
    n, m = rng.randint(1, n_max), rng.randint(1, m_max)
    return Instance.from_rows([[rng.choice((0, 0, 1, 2, 2, 3, 5)) for _ in range(m)] for _ in range(n)])


def _recheck_dominator(inst: Instance, x: FractionalAllocation, dominator: list[list[str]]) -> None:
    """An fpo witness checked from the definition in Fractions alone: the dominator is a
    complete allocation, no agent is worse off than under x, and some agent is better off."""
    y = [[Fraction(cell) for cell in row] for row in dominator]
    assert all(0 <= cell <= 1 for row in y for cell in row)
    assert all(sum(column) == 1 for column in zip(*y))

    def utility(i: int, row) -> Fraction:
        return sum((v * cell for v, cell in zip(inst.values[i], row)), Fraction(0))

    before = [utility(i, x.matrix[i]) for i in range(inst.n)]
    after = [utility(i, y[i]) for i in range(inst.n)]
    assert all(a >= b for a, b in zip(after, before))
    assert any(a > b for a, b in zip(after, before))


def _random_fractional(rng: random.Random, inst: Instance) -> FractionalAllocation:
    """A complete fractional allocation with many zero cells."""
    columns = []
    for _ in range(inst.m):
        weights = [rng.choice((0, 0, 1, 2, 3)) for _ in range(inst.n)]
        if not any(weights):
            weights[rng.randrange(inst.n)] = 1
        columns.append([Fraction(w, sum(weights)) for w in weights])
    return FractionalAllocation(tuple(tuple(col[i] for col in columns) for i in range(inst.n)))


def _po_by_enumeration(inst: Instance, a: IntegralAllocation, rivals: list[IntegralAllocation]) -> PropertyVerdict:
    """The po_integral verdict from the rivals alone: the first that dominates is the witness."""
    current = [inst.bundle_value(i, a.bundles[i]) for i in range(inst.n)]
    for rival in rivals:
        values = [inst.bundle_value(i, rival.bundles[i]) for i in range(inst.n)]
        if all(v >= c for v, c in zip(values, current)) and values != current:
            return PropertyVerdict("po_integral", False, {"dominator_bundles": [list(b) for b in rival.bundles]})
    return PropertyVerdict("po_integral", True)


def _lp_sweep(instance, x):
    """Both GF verdicts from the plain LP sweep: _gf_pair on each (S, T) pair in
    check_gf's order; gf_for_less keeps the first failure with |S| <= |T|."""
    agents = range(instance.n)
    current = [instance.utility(i, x.row(i)) for i in agents]
    coalitions = [c for size in range(1, instance.n + 1) for c in itertools.combinations(agents, size)]
    found = {}
    for s_tuple, t_tuple in itertools.product(coalitions, repeat=2):
        labels = [
            label
            for label in ("gf", "gf_for_less")
            if label not in found and (label == "gf" or len(s_tuple) <= len(t_tuple))
        ]
        if not labels:
            continue
        verdict = properties._gf_pair(instance, x, current, s_tuple, t_tuple, "gf")
        if verdict is not None:
            for label in labels:
                found[label] = {**verdict.to_json(), "property": label}
    return {label: found.get(label, {"property": label, "holds": True}) for label in ("gf", "gf_for_less")}


class TestGroupFairness:
    def test_witness_recheck(self, weak3):
        x = mnw_v(weak3)
        verdict = check_gf(weak3, x, restrict="full")
        assert not verdict.holds
        w = verdict.witness
        scale = F(len(w["S"]), len(w["T"]))
        pool = [
            sum((x.matrix[i][j] for i in w["T"]), F(0)) for j in range(weak3.m)
        ]
        y = [[F(v) for v in row] for row in w["Y"]]
        for j in range(weak3.m):
            assert sum(y[a][j] for a in range(len(w["S"]))) == pool[j]
        improvements = []
        for a, i in enumerate(w["S"]):
            new = scale * weak3.utility(i, y[a])
            old = weak3.utility(i, x.row(i))
            assert new >= old
            improvements.append(new - old)
            assert new - old == F(w["delta"][a])
        assert sum(improvements, F(0)) > 0

    def test_for_less_passes_where_full_fails(self, weak3):
        x = mnw_v(weak3)
        assert check_gf(weak3, x, restrict="s_le_t").holds

    def test_seven_agents_hit_the_limit_before_any_lp(self, monkeypatch):
        # the cap comes before the price certificate (which this identity
        # allocation would pass) and before the (2^n - 1)^2 LP sweep
        def no_lp(*args):
            raise AssertionError("check_gf solved an LP before checking its agent limit")

        monkeypatch.setattr(lp, "solve", no_lp)
        inst = Instance.from_rows([[1] * 7 for _ in range(7)])
        x = FractionalAllocation.from_rows([[int(i == j) for j in range(7)] for i in range(7)])
        for restrict in ("full", "s_le_t"):
            with pytest.raises(SizeLimitError):
                check_gf(inst, x, restrict=restrict)

    def test_mnw_allocations_are_certified_without_lp(self, monkeypatch):
        def no_lp(*args):
            raise AssertionError("check_gf solved an LP on a CEEI allocation")

        rng = random.Random(71)
        cases = [random_positive_goods(rng, n_max=6, m_max=8) for _ in range(30)]
        cases += [random_goods(rng, n_max=6, m_max=8) for _ in range(30)]
        cases = [inst for inst in cases if all(any(row) for row in inst.values)]
        allocations = [solve_mnw(inst).allocation for inst in cases]
        monkeypatch.setattr(lp, "solve", no_lp)
        for inst, x in zip(cases, allocations):
            for restrict in ("full", "s_le_t"):
                assert check_gf(inst, x, restrict=restrict).holds

    @pytest.mark.parametrize(
        "rows, make, pinned",
        [
            # mnw_v carves the weak good out, so agent 2's bundle costs 7/4
            (
                [[1, 0], [1, 0], [1, 1]],
                mnw_v,
                {
                    "full": {"S": [0, 2], "T": [2], "Y": [["1/3", "0"], ["0", "1"]], "delta": ["1/3", "2/3"]},
                    "s_le_t": None,
                },
            ),
            # agent 2 values nothing: utility 0, so no prices exist
            (
                [[3, 1, 0], [1, 2, 2], [0, 0, 0]],
                lambda inst: solve_mnw(inst).allocation,
                {
                    "full": {"S": [0, 2], "T": [0], "Y": [["1", "0", "0"], ["0", "0", "0"]], "delta": ["3", "0"]},
                    "s_le_t": {
                        "S": [0, 2],
                        "T": [0, 1],
                        "Y": [["1", "1", "1"], ["0", "0", "0"]],
                        "delta": ["1", "0"],
                    },
                },
            ),
        ],
    )
    def test_uncertified_inputs_run_the_lp_sweep(self, monkeypatch, rows, make, pinned):
        inst = Instance.from_rows(rows)
        x = make(inst)
        calls = []
        solve = lp.solve

        def counting_solve(*args):
            calls.append(args)
            return solve(*args)

        monkeypatch.setattr(lp, "solve", counting_solve)
        for restrict, witness in pinned.items():
            calls.clear()
            verdict = check_gf(inst, x, restrict=restrict)
            assert calls
            assert verdict.holds is (witness is None)
            assert verdict.witness == witness

    def test_certificate_matches_lp_sweep(self):
        rng = random.Random(29)

        def goods(n_max=4):
            return random_goods(rng, n_max=n_max, m_max=6)

        def zero_row():
            rows = list(goods(n_max=3).values)
            rows.insert(rng.randint(0, len(rows)), [0] * len(rows[0]))
            return Instance.from_rows(rows)

        def bads_or_mixed():
            if rng.random() < 0.5:
                return random_bads(rng, n_max=4)
            n, m = rng.randint(2, 4), rng.randint(2, 6)
            return Instance.from_rows([[rng.randint(-10, 10) for _ in range(m)] for _ in range(n)])

        def mnw(inst):
            return inst, solve_mnw(inst).allocation

        def perturbed(inst):
            # near-CEEI: the allocation is MNW for values one or two units away
            near = Instance.from_rows([[max(0, v + rng.randint(-2, 2)) for v in row] for row in inst.values])
            return near, solve_mnw(inst).allocation

        def sixths(inst):
            cells = [[0] * inst.m for _ in range(inst.n)]
            for j in range(inst.m):
                for _ in range(6):
                    cells[rng.randrange(inst.n)][j] += 1
            return inst, FractionalAllocation(tuple(tuple(F(c, 6) for c in row) for row in cells))

        cases = [mnw(goods()) for _ in range(20)]
        cases += [perturbed(goods()) for _ in range(35)]
        cases += [sixths(goods()) for _ in range(50)]
        cases += [mnw(zero_row()) if k % 2 else sixths(zero_row()) for k in range(45)]
        cases += [sixths(bads_or_mixed()) for _ in range(50)]

        certified = failing = 0
        for inst, x in cases:
            oracle = _lp_sweep(inst, x)
            for restrict, label in (("full", "gf"), ("s_le_t", "gf_for_less")):
                assert check_gf(inst, x, restrict=restrict).to_json() == oracle[label]
                failing += not oracle[label]["holds"]
            current = [inst.utility(i, x.row(i)) for i in range(inst.n)]
            certified += priced_at_one_reference(inst, x, current)
        # 29 certified instances and 329 failing verdicts at this seed
        assert certified >= 25 and failing >= 300

    def test_certificate_matches_price_reference(self, monkeypatch):
        # check_gf starts its LP sweep only when the certificate fails, so with
        # lp.solve raising, each verdict shows which way the certificate went
        class SweepStarted(Exception):
            pass

        def no_lp(*args):
            raise SweepStarted

        monkeypatch.setattr(lp, "solve", no_lp)
        rng = random.Random(43)

        def perturbed(inst):
            near = Instance.from_rows([[max(0, v + rng.randint(-2, 2)) for v in row] for row in inst.values])
            return near, solve_mnw(inst).allocation

        def zero_row():
            rows = list(random_goods(rng, n_max=3, m_max=6).values)
            rows.insert(rng.randint(0, len(rows)), [0] * len(rows[0]))
            inst = Instance.from_rows(rows)
            x = solve_mnw(inst).allocation if rng.random() < 0.5 else random_complete(rng, inst.n, inst.m)
            return inst, x

        def priced(bump):
            # at prices of any sign, each agent's bundle costs 1 and every value is
            # p_g * u_i on a held item and at most that elsewhere, so u_i > 0 and
            # the certificate holds; a bump of one value may break it
            n = rng.randint(2, 4)
            m = rng.randint(n, 6)
            owners = list(range(n)) + [rng.randrange(n) for _ in range(m - n)]
            rng.shuffle(owners)
            prices = [F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(m)]
            for i in range(n):
                held = [g for g in range(m) if owners[g] == i]
                prices[held[-1]] += 1 - sum(prices[g] for g in held)
            u = [F(rng.randint(1, 9), rng.randint(1, 3)) for _ in range(n)]
            values = [
                [prices[g] * u[i] - (0 if owners[g] == i else rng.choice((0, 0, 1, F(1, 2)))) for g in range(m)]
                for i in range(n)
            ]
            if bump:
                values[rng.randrange(n)][rng.randrange(m)] += rng.choice((-1, 1))
            x = IntegralAllocation(tuple(tuple(int(owner == i) for owner in owners) for i in range(n)))
            return Instance(tuple(map(tuple, values))), x

        def bads_or_mixed():
            if rng.random() < 0.5:
                inst = random_bads(rng, n_max=4)
            else:
                n, m = rng.randint(2, 4), rng.randint(2, 6)
                inst = Instance.from_rows([[rng.randint(-10, 10) for _ in range(m)] for _ in range(n)])
            x = random_complete(rng, inst.n, inst.m) if rng.random() < 0.5 else random_integral(rng, inst)
            return inst, x

        cases = [(inst, solve_mnw(inst).allocation) for inst in mnw_inputs(rng, 800)]
        cases += [perturbed(random_goods(rng, n_max=4, m_max=6)) for _ in range(800)]
        cases += [zero_row() for _ in range(600)]
        cases += [priced(bump=k % 2) for k in range(1600)]
        cases += [(inst, random_integral(rng, inst)) for inst in (random_goods(rng, m_max=6) for _ in range(600))]
        cases += [bads_or_mixed() for _ in range(600)]

        certified = 0
        for inst, x in cases:
            current = [inst.utility(i, x.row(i)) for i in range(inst.n)]
            expected = priced_at_one_reference(inst, x, current)
            try:
                decided = check_gf(inst, x).holds
            except SweepStarted:
                decided = False
            assert decided is expected
            certified += expected
        # 5,000 inputs, 1,992 certified (890 of them mixed) at this seed
        assert len(cases) == 5000 and certified >= 500

    def test_input_validation(self, tilt2):
        x = FractionalAllocation.from_rows([["1", "1/4"], ["0", "3/4"]])
        with pytest.raises(InputError):
            check_gf(tilt2, x, restrict="both")
        incomplete = FractionalAllocation.from_rows([["1/2", "0"], ["0", "1"]])
        with pytest.raises(InputError):
            check_gf(tilt2, incomplete)


class TestImplications:
    def test_goods_lattice(self):
        rng = random.Random(11)
        seen = {"sd_ef1": 0, "ef1": 0, "ef": 0}
        for _ in range(150):
            inst = random_goods(rng, n_max=3, m_max=5)
            alloc = random_integral(rng, inst)
            if check_envy(inst, alloc, "sd_ef1").holds:
                seen["sd_ef1"] += 1
                assert check_envy(inst, alloc, "ef1").holds
            if check_envy(inst, alloc, "ef1").holds:
                seen["ef1"] += 1
                assert check_envy(inst, alloc, "ef11_goods").holds
                assert check_share(inst, alloc, "prop1_goods").holds
            if check_envy(inst, alloc, "ef").holds:
                seen["ef"] += 1
                assert check_share(inst, alloc, "prop").holds
        assert all(count > 0 for count in seen.values())

    def test_bads_lattice(self):
        rng = random.Random(12)
        hit = 0
        for _ in range(120):
            inst = random_bads(rng)
            alloc = random_integral(rng, inst)
            if check_envy(inst, alloc, "ef1").holds:
                hit += 1
                assert check_envy(inst, alloc, "ef11_bads").holds
                assert check_share(inst, alloc, "prop1_bads").holds
        assert hit > 0

    def test_sd_ef_implies_ef_on_marginals(self):
        rng = random.Random(13)
        for _ in range(10):
            inst = random_goods(rng, n_max=3, m_max=5)
            x = rps(inst).marginal
            assert check_envy(inst, x, "sd_ef").holds
            assert check_envy(inst, x, "ef").holds


class TestAudit:
    def test_clean_lottery(self, tilt2):
        lot = gf_lottery(tilt2)
        report = audit_lottery(
            tilt2,
            lot,
            ex_ante=("prop", "ef", "gf"),
            ex_post=("prop1", "ef11", "fpo"),
        )
        assert isinstance(report, AuditReport)
        assert report.ok
        payload = report.to_json()
        assert payload["ok"] is True
        assert payload["ex_ante"]["gf"]["holds"] is True
        assert all(entry["holds"] for entry in payload["ex_post"].values())

    def test_failing_check_flips_ok(self, tilt2):
        point = point_lottery(IntegralAllocation.from_bundles(2, 2, [(0,), (1,)]))
        report = audit_lottery(tilt2, point, ex_ante=("prop",), ex_post=("ef1",))
        assert not report.ok
        payload = report.to_json()
        assert payload["ex_ante"]["prop"]["holds"] is False
        assert "witness" in payload["ex_ante"]["prop"]
        assert payload["ex_post"]["ef1"]["holds"] is True

    def test_unknown_name_rejected(self, tilt2):
        point = point_lottery(IntegralAllocation.from_bundles(2, 2, [(0,), (1,)]))
        with pytest.raises(InputError):
            audit_lottery(tilt2, point, ex_ante=("karma",))


    def test_named_checks_find_the_checkers_at_call_time(self, tilt2, monkeypatch, tmp_path, capsys):
        # the name table is built per call, so checkers wrapped after import (as the
        # benchmark's tracer wraps them) are the ones audit_lottery and check run
        calls = {"check_envy": 0, "check_share": 0}
        for name in calls:

            def counted(*args, _name=name, _real=getattr(properties, name), **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(properties, name, counted)
        point = point_lottery(IntegralAllocation.from_bundles(2, 2, [(0,), (1,)]))
        assert audit_lottery(tilt2, point, ex_post=["ef1", "prop1"]).ok
        assert calls == {"check_envy": 1, "check_share": 1}
        instance, alloc = tmp_path / "instance.json", tmp_path / "alloc.json"
        instance.write_text('{"agents": 2, "items": 2, "values": [[1, 2], [1, 3]]}')
        alloc.write_text('{"matrix": [[1, 0], [0, 1]]}')
        assert cli.main(["check", str(instance), "--alloc", str(alloc), "--ex-post", "ef1,prop1"]) == 0
        capsys.readouterr()
        assert calls == {"check_envy": 2, "check_share": 2}


class TestBruteForce:
    def test_enumeration_is_exhaustive(self, tilt2):
        allocs = list(enumerate_integral_allocations(tilt2))
        assert len(allocs) == 4
        assert len({a.matrix for a in allocs}) == 4

    def test_nash_argmax_matches_manual_products(self, tilt2):
        # products over the four assignments: 0, 3, 2, 0
        best, argmax = integral_nash_argmax(tilt2)
        assert best == F(3)
        assert {a.bundles for a in argmax} == {((0,), (1,))}

    def test_ef1_enumeration(self, tilt2):
        ef1 = enumerate_ef1_allocations(tilt2)
        assert {a.bundles for a in ef1} == {((0,), (1,)), ((1,), (0,))}


# goods values (fractions give agents different integer scales); bads negate them
EFFICIENCY_VALUES = (0, 0, 1, 2, 3, "1/2", "5/3")


def _efficiency_instance(rng: random.Random, sign: str, n_max: int = 4, m_max: int = 5) -> Instance:
    """Small goods, bads or mixed values with many zeros, so some columns go unvalued;
    a bads instance has a negative value and a mixed one a value of each sign."""
    while True:
        n, m = rng.randint(1, n_max), rng.randint(1, m_max)
        values = [[Fraction(rng.choice(EFFICIENCY_VALUES)) for _ in range(m)] for _ in range(n)]
        if sign == "bads":
            values = [[-v for v in row] for row in values]
        elif sign == "mixed":
            values = [[v * rng.choice((-1, 1)) for v in row] for row in values]
        flat = [v for row in values for v in row]
        if sign == "goods" or (min(flat) < 0 and (sign == "bads" or max(flat) > 0)):
            return Instance(tuple(tuple(row) for row in values))


def _weighted_argmax(rng: random.Random, inst: Instance, split: bool) -> FractionalAllocation:
    """Each item to an agent maximising lambda_i * v_ig for random weights lambda > 0, so
    the allocation maximises sum lambda_i u_i and is fPO; with split, a tied item is
    shared equally among its maximisers, else it goes to the first."""
    weights = [Fraction(rng.randint(1, 4), rng.randint(1, 3)) for _ in range(inst.n)]
    columns = []
    for g in range(inst.m):
        scores = [weights[i] * inst.values[i][g] for i in range(inst.n)]
        best = [i for i in range(inst.n) if scores[i] == max(scores)]
        takers = best if split else best[:1]
        columns.append([Fraction(1, len(takers)) if i in takers else 0 for i in range(inst.n)])
    return FractionalAllocation(tuple(tuple(col[i] for col in columns) for i in range(inst.n)))


def _efficiency_inputs(rng: random.Random, count: int) -> list[tuple[Instance, FractionalAllocation]]:
    """``count`` (instance, allocation) pairs for fpo and po_integral, cycling through
    goods, bads and mixed instances and six allocations: a weighted argmax, integral or
    with ties shared (both fPO by construction); a random integral, fractional or
    incomplete one; and every part of rps_bads (bads) or rps_mixed (goods and mixed)."""
    out = []
    k = 0
    while len(out) < count:
        sign = ("goods", "bads", "mixed")[k % 3]
        case = (k // 3) % 6
        k += 1
        inst = _efficiency_instance(rng, sign)
        if case < 2:
            out.append((inst, _weighted_argmax(rng, inst, split=case == 1)))
        elif case == 2:
            out.append((inst, random_integral(rng, inst)))
        elif case == 3:
            out.append((inst, random_complete(rng, inst.n, inst.m)))
        elif case == 4:
            a = random_integral(rng, inst)
            out.append((inst, IntegralAllocation.from_bundles(inst.n, inst.m, [b[:-1] for b in a.bundles])))
        else:
            rule = rps_bads if sign == "bads" else rps_mixed
            out += [(inst, part) for _, part in rule(inst).support]
    return out[:count]


def _trade_cycle_inputs(rng: random.Random, count: int) -> list[tuple[Instance, FractionalAllocation]]:
    """Bads and mixed instances of k = 3 or 4 agents built around a preference cycle.
    Agent i holds bad i at pain a_i; agent i + 1 (mod k) feels b_i, mostly less,
    and every other agent about a_i times the largest ratio a_h / b_h, so the
    k-cycle improves on x when the ratios' product exceeds 1, and a 2-cycle only
    when the noise on the harsh pains lets it. A mixed instance adds a good its
    holder values most and others value at any sign; now and then one holding is
    shared with the agent who feels it at b_i."""
    out = []
    for t in range(count):
        k = 3 + t % 2
        mixed = (t // 2) % 2 == 1
        pain = [rng.randint(2, 6) for _ in range(k)]
        mild = [rng.randint(1, a + 1) for a in pain]
        ratio = max(-(-a // b) for a, b in zip(pain, mild))
        rows = [[0] * k for _ in range(k)]
        for g in range(k):
            for i in range(k):
                if i == g:
                    rows[i][g] = -pain[g]
                elif i == (g + 1) % k:
                    rows[i][g] = -mild[g]
                else:
                    rows[i][g] = -(pain[g] * ratio + rng.randint(-1, 2))
        matrix = [[Fraction(int(i == g)) for g in range(k)] for i in range(k)]
        if mixed:
            holder = rng.randrange(k)
            for i in range(k):
                rows[i].append(rng.randint(8, 10) if i == holder else rng.randint(-3, 7))
                matrix[i].append(Fraction(int(i == holder)))
        if rng.random() < 0.3:
            g = rng.randrange(k)
            share = Fraction(rng.randint(1, 3), 4)
            matrix[g][g] -= share
            matrix[(g + 1) % k][g] += share
        out.append((Instance.from_rows(rows), FractionalAllocation(tuple(map(tuple, matrix)))))
    return out


def _verdict_or_error(inst: Instance, x: FractionalAllocation, notion: str) -> object:
    try:
        return check_efficiency(inst, x, notion).to_json()
    except FairlotError as exc:
        return [type(exc).__name__, str(exc)]


def test_efficiency_verdicts_match_pinned_digest():
    # sha256 over the fpo and po_integral verdicts (or error type and message) of 600
    # inputs; the fpo dominators were recorded once they came from the trading cycle
    inputs = _efficiency_inputs(random.Random(2525), 600)
    out = [[_verdict_or_error(inst, x, notion) for notion in ("fpo", "po_integral")] for inst, x in inputs]
    for (inst, x), (fpo, _) in zip(inputs, out):
        if isinstance(fpo, dict) and not fpo["holds"]:
            _recheck_dominator(inst, x, fpo["witness"]["dominator"])
    # passing and failing verdicts of both notions, and errors
    for slot in (0, 1):
        assert {o[slot]["holds"] for o in out if isinstance(o[slot], dict)} == {True, False}
    assert any(isinstance(o[1], list) for o in out)
    text = json.dumps(out, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == FPO_SEEDED_DIGEST


FPO_SEEDED_DIGEST = "287cda3e8833ae898ed9e611ea836effa235112bb8fefbcd14c1f921c819054a"
