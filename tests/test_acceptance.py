"""End-to-end acceptance checks, one test and one pytest -v line per guarantee.

Every expected value here is either hand-derived in a comment, re-checked by an
independent route (brute force, exact LP, witness arithmetic), or both. Each
test also carries the wall-clock budget it must meet on a laptop core; exact
rational arithmetic everywhere means failures are real, not numerical.
"""

from __future__ import annotations

import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction
from typing import Iterator

from fairlot.core import (
    FractionalAllocation,
    Instance,
    IntegralAllocation,
    Lottery,
    parse_rational,
)
from fairlot.decomp import prefix_constraints
from fairlot.lp import OPTIMAL, basic_feasible_point
from fairlot.mnw import (
    ceei_verify,
    mnw_deviation_witness,
    mnw_v,
    replicate,
    replicate_allocation,
    solve_mnw,
)
from fairlot.properties import (
    check_efficiency,
    check_envy,
    check_gf,
    check_share,
    enumerate_integral_allocations,
)
from fairlot.rounding import (
    check_adjusted_envy_chain,
    check_utility_guarantee,
    gf_lottery,
    implement_with_utility_guarantee,
)
from fairlot.rps import (
    POLY_SUPPORT,
    RpsConfig,
    _run_engine,
    randomized_round_robin,
    rps,
    rps_bads,
)

from conftest import (
    SWAP4_SUPPORT,
    random_goods,
    random_integral,
    random_positive_goods,
)
from oracles import enumerate_ef1_allocations, fractional_row, nash_product, point_lottery

F = Fraction


@contextmanager
def within(seconds: float) -> Iterator[None]:
    start = time.monotonic()
    yield
    elapsed = time.monotonic() - start
    assert elapsed < seconds, f"took {elapsed:.2f}s, budget {seconds:g}s"


def test_acceptance_01_swap4_full_lottery_is_exactly_uniform(swap4):
    with within(1.0):
        lot = rps(swap4)
        assert isinstance(lot, Lottery)
        table = {alloc.matrix: w for w, alloc in lot.support}
        assert table == {mat: F(1, 4) for mat in SWAP4_SUPPORT}


def test_acceptance_02_cycle3_round_robin_proportional_but_envious(cycle3):
    with within(1.0):
        marginal = randomized_round_robin(cycle3).marginal
        # eps = 1/10: own bundle (6-5*eps)/6, the next agent's (6-4*eps)/6
        assert cycle3.utility(0, marginal.row(0)) == F(11, 12)
        assert cycle3.utility(0, marginal.row(1)) == F(14, 15)
        assert check_share(cycle3, marginal, "prop").holds
        verdict = check_envy(cycle3, marginal, "ef")
        assert not verdict.holds
        assert verdict.witness["envious"] == 0
        assert verdict.witness["envied"] == 1


def test_acceptance_03_tilt2_ef1_landscape_and_fpo_split(tilt2):
    with within(1.0):
        ef1 = enumerate_ef1_allocations(tilt2)
        assert {alloc.bundles for alloc in ef1} == {((0,), (1,)), ((1,), (0,))}
        a = IntegralAllocation.from_bundles(2, 2, [(0,), (1,)])
        b = IntegralAllocation.from_bundles(2, 2, [(1,), (0,)])
        assert check_efficiency(tilt2, a, "fpo").holds
        beaten = check_efficiency(tilt2, b, "fpo")
        assert not beaten.holds
        # the reported dominator must itself dominate b, exactly
        dom = [[parse_rational(v) for v in row] for row in beaten.witness["dominator"]]
        for j in range(2):
            assert sum(dom[i][j] for i in range(2)) == 1
        before = [tilt2.utility(i, fractional_row(b, i)) for i in range(2)]
        after = [tilt2.utility(i, dom[i]) for i in range(2)]
        assert all(after[i] >= before[i] for i in range(2))
        assert any(after[i] > before[i] for i in range(2))
        point = point_lottery(a)
        assert not check_share(tilt2, point.marginal, "prop").holds


def test_acceptance_04_shift4_rounding_meets_quotas_and_prop1(
    shift4, shift4_x, shift4_certificate
):
    with within(1.0):
        lot = implement_with_utility_guarantee(shift4, shift4_x)
        assert lot.marginal.matrix == shift4_x.matrix
        hierarchy = prefix_constraints(shift4, shift4_x)
        for _, part in lot.support:
            for cs in hierarchy.all_sets():
                total = sum(part.matrix[i][j] for (i, j) in cs.cells)
                assert cs.lower <= total <= cs.upper
            assert check_share(shift4, part, "prop1_goods", strict=True).holds
        # the reference weights are one feasible certificate for the same marginal
        parts = [part for _, part in shift4_certificate]
        eqs = [
            (tuple(F(p.matrix[i][j]) for p in parts), shift4_x.matrix[i][j])
            for i in range(shift4_x.n)
            for j in range(shift4_x.m)
        ]
        eqs.append(((F(1),) * len(parts), F(1)))
        assert basic_feasible_point(eqs, len(parts)).status == OPTIMAL
        weights = [w for w, _ in shift4_certificate]
        for coeffs, b in eqs:
            assert sum(c * w for c, w in zip(coeffs, weights)) == b


def test_acceptance_05_bads3_padding_upgrades_ef2_to_ef1(bads3):
    with within(1.0):
        raw = _run_engine(bads3.prefs, bads3.m, RpsConfig(), bads3.m)
        failing = [
            (w, part) for w, part in raw.support if not check_envy(bads3, part, "ef1").holds
        ]
        assert failing
        assert all(check_envy(bads3, part, "efk", k=2).holds for _, part in failing)
        assert sum(w for w, _ in failing) == F(1, 2)
        padded = rps_bads(bads3)
        assert all(check_envy(bads3, part, "ef1").holds for _, part in padded.support)


def test_acceptance_06_random_goods_eating_sdef_ex_ante_sdef1_ex_post():
    rng = random.Random(6)
    with within(120.0):
        for _ in range(200):
            inst = random_goods(rng, n_max=4, m_max=8, vmax=10)
            full = rps(inst)
            poly = rps(inst, RpsConfig(mode=POLY_SUPPORT))
            assert len(poly) <= inst.n * inst.m + 1
            assert poly.marginal.matrix == full.marginal.matrix
            assert check_envy(inst, full.marginal, "sd_ef").holds
            for lot in (full, poly):
                for _, part in lot.support:
                    assert check_envy(inst, part, "sd_ef1").holds


def test_acceptance_07_group_fair_lottery_certified_on_random_goods():
    rng = random.Random(7)
    with within(300.0):
        for _ in range(100):
            inst = random_positive_goods(rng, n_max=4, m_max=7, vmax=10)
            sol = solve_mnw(inst)
            assert ceei_verify(inst, sol.allocation, slack=0).holds
            lot = gf_lottery(inst)
            marginal = lot.marginal
            assert marginal.matrix == sol.allocation.matrix
            assert check_gf(inst, marginal).holds
            for _, part in lot.support:
                assert check_share(inst, part, "prop1_goods", strict=True).holds
                assert check_envy(inst, part, "ef11_goods").holds
                assert check_efficiency(inst, part, "fpo").holds
                assert check_utility_guarantee(inst, marginal, part).holds
                assert check_adjusted_envy_chain(inst, marginal, part).holds


def test_acceptance_08_replication_keeps_equilibrium_and_deviations_verify():
    rng = random.Random(8)
    with within(120.0):
        for _ in range(50):
            inst = random_positive_goods(rng, n_max=3, m_max=5)
            sol = solve_mnw(inst)
            for k in (2, 3):
                grown = replicate(inst, k)
                grown_x = replicate_allocation(sol.allocation, k)
                assert ceei_verify(grown, grown_x, slack=0).holds

        found = 0
        attempts = 0
        while found < 50:
            attempts += 1
            assert attempts <= 200, "ran out of instances while hunting deviations"
            inst = random_positive_goods(rng, n_max=3, m_max=5)
            best = math.prod(solve_mnw(inst).utilities)
            taken_here = 0
            for alloc in enumerate_integral_allocations(inst):
                if nash_product(inst, alloc) >= best:
                    continue
                if not check_efficiency(inst, alloc, "fpo").holds:
                    continue
                witness = mnw_deviation_witness(inst, alloc)
                assert witness is not None
                i, j, slice_vec = witness
                assert all(0 <= slice_vec[g] <= alloc.matrix[i][g] for g in range(inst.m))
                held_i = inst.utility(i, fractional_row(alloc, i))
                held_j = inst.utility(j, fractional_row(alloc, j))
                vi = inst.utility(i, slice_vec)
                vj = inst.utility(j, slice_vec)
                assert 0 < vi < held_i and vj > 0
                # moving the slice from i to j strictly raises the product
                assert vj * (held_i - vi) > held_j * vi
                found += 1
                taken_here += 1
                if taken_here == 5 or found == 50:
                    break


def weak_good_instance(rng: random.Random) -> Instance:
    """Random goods instance with at least one single-bidder item and no
    all-zero row or column."""
    n = rng.randint(2, 3)
    m = rng.randint(2, 5)
    values = [[rng.randint(0, 10) for _ in range(m)] for _ in range(n)]
    star = rng.randrange(m)
    keeper = rng.randrange(n)
    for i in range(n):
        values[i][star] = rng.randint(1, 10) if i == keeper else 0
    for j in range(m):
        if j != star and all(values[i][j] == 0 for i in range(n)):
            values[rng.randrange(n)][j] = rng.randint(1, 10)
    for i in range(n):
        if i != keeper and all(v == 0 for v in values[i]):
            values[i][rng.choice([j for j in range(m) if j != star])] = rng.randint(1, 10)
    return Instance.from_rows(values)


def test_acceptance_09_single_bidder_carving_is_group_fair_for_less(weak3):
    with within(180.0):
        x = mnw_v(weak3)
        expected = FractionalAllocation.from_rows(
            [["1/3", "0"], ["1/3", "0"], ["1/3", "1"]]
        )
        assert x.matrix == expected.matrix
        full = check_gf(weak3, x)
        assert not full.holds
        # re-check the reported (S, T) deviation arithmetic exactly
        w = full.witness
        y = [[parse_rational(v) for v in row] for row in w["Y"]]
        deltas = [parse_rational(v) for v in w["delta"]]
        scale = F(len(w["S"]), len(w["T"]))
        for j in range(weak3.m):
            pool = sum(x.matrix[i][j] for i in w["T"])
            assert sum(row[j] for row in y) == pool
        for a, i in enumerate(w["S"]):
            gain = scale * weak3.utility(i, y[a]) - weak3.utility(i, x.row(i))
            assert gain == deltas[a] >= 0
        assert sum(deltas) > 0
        assert check_gf(weak3, x, restrict="s_le_t").holds

        rng = random.Random(9)
        for _ in range(100):
            inst = weak_good_instance(rng)
            assert check_gf(inst, mnw_v(inst), restrict="s_le_t").holds


def test_acceptance_10_implication_lattice_on_random_allocations():
    rng = random.Random(10)
    with within(60.0):
        fired = {"sd_ef1": 0, "ef1": 0, "ef": 0}
        for _ in range(1000):
            inst = random_goods(rng, n_max=4, m_max=5)
            alloc = random_integral(rng, inst)
            sd_ef1 = check_envy(inst, alloc, "sd_ef1").holds
            ef1 = check_envy(inst, alloc, "ef1").holds
            ef = check_envy(inst, alloc, "ef").holds
            if sd_ef1:
                fired["sd_ef1"] += 1
                assert ef1
            if ef1:
                fired["ef1"] += 1
                assert check_envy(inst, alloc, "ef11_goods").holds
                assert check_share(inst, alloc, "prop1_goods").holds
            if ef:
                fired["ef"] += 1
                assert check_share(inst, alloc, "prop").holds
        # vacuous passes prove nothing; every antecedent must actually occur
        assert all(count > 0 for count in fired.values()), fired
