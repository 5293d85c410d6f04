"""Fairness checkers against hand oracles, implications, and witness re-checks."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from fairlot import lp, properties
from fairlot.core import (
    FractionalAllocation,
    InputError,
    Instance,
    IntegralAllocation,
    KindMismatchError,
    Lottery,
    SizeLimitError,
)
from fairlot.mnw import mnw_v, solve_mnw
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

from conftest import random_bads, random_goods, random_integral, random_positive_goods

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
            certified += properties._priced_at_one(inst, x, current)
        # 29 certified instances and 329 failing verdicts at this seed
        assert certified >= 25 and failing >= 300

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
