"""Fairness checkers against hand oracles, implications, and witness re-checks."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from fairlot import lp
from fairlot.core import (
    FractionalAllocation,
    InputError,
    Instance,
    IntegralAllocation,
    KindMismatchError,
    Lottery,
    SizeLimitError,
)
from fairlot.mnw import mnw_v
from fairlot.properties import (
    AuditReport,
    audit_lottery,
    check_efficiency,
    check_envy,
    check_gf,
    check_share,
    enumerate_ef1_allocations,
    enumerate_integral_allocations,
    integral_nash_argmax,
)
from fairlot.rounding import gf_lottery
from fairlot.rps import rps

from conftest import random_bads, random_goods, random_integral

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
                assert check_envy(inst, a.to_fractional(), notion) == verdict
                failing[notion] += not verdict.holds
        assert all(failing.values())

    def test_wef1_double_sided_removal(self):
        inst = Instance.from_rows([[2, -1], [2, -1]])
        part = IntegralAllocation.from_bundles(2, 2, [(0,), (1,)])
        assert check_envy(inst, part, "wef1").holds
        wide = Instance.from_rows([[2, 2, -1], [2, 2, -1]])
        lopsided = IntegralAllocation.from_bundles(2, 3, [(0, 1), (2,)])
        assert not check_envy(wide, lopsided, "wef1").holds

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
                i, mismatched.fractional_row(i)
            )
        total_dom = sum(inst.utility(i, dom.row(i)) for i in range(2))
        total_cur = sum(inst.utility(i, mismatched.fractional_row(i)) for i in range(2))
        assert total_dom > total_cur

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
        # the sweep solves (2^n - 1)^2 exact LPs, 16,129 at 7 agents
        def no_lp(*args):
            raise AssertionError("check_gf solved an LP before checking its agent limit")

        monkeypatch.setattr(lp, "solve", no_lp)
        inst = Instance.from_rows([[1] * 7 for _ in range(7)])
        x = FractionalAllocation.from_rows([[int(i == j) for j in range(7)] for i in range(7)])
        for restrict in ("full", "s_le_t"):
            with pytest.raises(SizeLimitError):
                check_gf(inst, x, restrict=restrict)

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
        point = Lottery.single(IntegralAllocation.from_bundles(2, 2, [(0,), (1,)]))
        report = audit_lottery(tilt2, point, ex_ante=("prop",), ex_post=("ef1",))
        assert not report.ok
        payload = report.to_json()
        assert payload["ex_ante"]["prop"]["holds"] is False
        assert "witness" in payload["ex_ante"]["prop"]
        assert payload["ex_post"]["ef1"]["holds"] is True

    def test_unknown_name_rejected(self, tilt2):
        point = Lottery.single(IntegralAllocation.from_bundles(2, 2, [(0,), (1,)]))
        with pytest.raises(InputError):
            audit_lottery(tilt2, point, ex_ante=("karma",))


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
