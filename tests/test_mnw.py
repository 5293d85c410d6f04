"""Nash welfare solver: exact oracle cases, equilibrium verification, replication."""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction

import pytest

from fairlot.core import (
    FairlotError,
    FractionalAllocation,
    InputError,
    Instance,
    IntegralAllocation,
    KindMismatchError,
    SolveError,
    ZeroUtilityError,
    allocation_to_json,
)
from fairlot import mnw
from fairlot.mnw import (
    _active_agents,
    _equilibrium_shares,
    ceei_verify,
    mnw_deviation_witness,
    mnw_v,
    replicate,
    replicate_allocation,
    solve_mnw,
)
from fairlot.properties import check_gf, enumerate_integral_allocations

from conftest import mnw_inputs, random_goods, random_positive_goods
from oracles import (
    fractional_row,
    integral_nash_argmax,
    mnw_deviation_witness_reference,
    mnw_equilibrium_shares,
    mnw_live_reference,
    nash_product,
    total_value_reference,
)

F = Fraction


class TestSolveMnw:
    def test_two_agent_oracle(self, tilt2):
        # closed form: equal bang per buck pins x = [[1, 1/4], [0, 3/4]]
        sol = solve_mnw(tilt2)
        assert sol.allocation == FractionalAllocation.from_rows(
            [["1", "1/4"], ["0", "3/4"]]
        )
        assert sol.utilities == (F(3, 2), F(9, 4))
        assert sol.prices == (F(2, 3), F(4, 3))

    def test_oracle_shared_item_rate(self, tilt2):
        # the split item must deliver the same value per unit price to both agents
        sol = solve_mnw(tilt2)
        rate_1 = tilt2.values[0][1] / sol.utilities[0]
        rate_2 = tilt2.values[1][1] / sol.utilities[1]
        assert rate_1 == rate_2 == F(4, 3)

    def test_scale_invariance(self, tilt2):
        scaled = Instance.from_rows([[5, 10], [1, 3]])
        assert solve_mnw(scaled).allocation == solve_mnw(tilt2).allocation

    def test_identical_agents_equal_utilities(self):
        inst = Instance.from_rows([[2, 1], [2, 1]])
        sol = solve_mnw(inst)
        assert sol.utilities[0] == sol.utilities[1] == F(3, 2)
        assert ceei_verify(inst, sol.allocation).holds

    def test_zero_value_agent_gets_nothing(self):
        inst = Instance.from_rows([[0, 0], [1, 2]])
        sol = solve_mnw(inst)
        assert sol.allocation == FractionalAllocation.from_rows([["0", "0"], ["1", "1"]])
        assert sol.utilities == (F(0), F(3))
        assert sol.prices == (F(1, 3), F(2, 3))

    def test_no_items(self):
        sol = solve_mnw(Instance.from_rows([[], []]))
        assert sol.allocation == FractionalAllocation(((), ()))
        assert sol.utilities == (F(0), F(0))
        assert sol.prices == ()
        assert sol.log_nash_welfare == 0.0

    def test_kind_and_tol_validation(self, bads3):
        with pytest.raises(KindMismatchError):
            solve_mnw(bads3)

    def test_beats_integral_brute_force(self):
        rng = random.Random(404)
        for _ in range(25):
            inst = random_positive_goods(rng, n_max=3, m_max=5)
            sol = solve_mnw(inst)
            fractional = nash_product(inst, sol.allocation)
            best_integral, _ = integral_nash_argmax(inst)
            assert fractional >= best_integral
            assert ceei_verify(inst, sol.allocation).holds

    @pytest.mark.parametrize("rows", [[[1, "1e400"], [1, 1]], [[1, "1e-400"], [1, 0]]])
    def test_extreme_values_stay_exact(self, rows):
        # each row is scaled to integers by the lcm of its denominators, so a value
        # far below or above the others still gets its exact price
        inst = Instance.from_rows(rows)
        assert ceei_verify(inst, solve_mnw(inst).allocation, slack=0).holds

    @pytest.mark.parametrize("scale", [10**3, 10**4, 10**8, 10**17])
    def test_near_tied_rates(self, scale):
        # at equilibrium the unbought cells sit within 1/scale of the best rate
        inst = Instance.from_rows([[scale, scale + 1], [scale + 1, scale]])
        sol = solve_mnw(inst)
        assert sol.allocation == FractionalAllocation.from_rows([["0", "1"], ["1", "0"]])
        assert ceei_verify(inst, sol.allocation, slack=0).holds

    @pytest.mark.parametrize("v", [100, 1000, 10**6])
    def test_near_tied_three_agents(self, v):
        inst = Instance.from_rows([[v, v + 1, v + 2], [v + 1, v, v + 1], [v, v, v + 1]])
        assert ceei_verify(inst, solve_mnw(inst).allocation, slack=0).holds

    @pytest.mark.parametrize("base", [100, 1000])
    def test_near_tied_random(self, base):
        rng = random.Random(base)
        for _ in range(60):
            n, m = rng.randint(2, 5), rng.randint(2, 8)
            inst = Instance.from_rows([[base + rng.randint(1, 10) for _ in range(m)] for _ in range(n)])
            assert ceei_verify(inst, solve_mnw(inst).allocation, slack=0).holds

    def test_prices_match_best_rate_formula(self):
        # the ascending-price run reports its final prices; the formula it replaced,
        # p_g = max_h v_hg / u_h over the agents who value something, is the oracle
        rng = random.Random(2718)
        for _ in range(120):
            n, m = rng.randint(1, 5), rng.randint(1, 8)
            rows = [[rng.randint(0, 9) for _ in range(m)] for _ in range(n)]
            for j in range(m):
                rows[rng.randrange(n)][j] += 1  # every item has a positive valuer
            inst = Instance.from_rows(rows)
            sol = solve_mnw(inst)
            active = [h for h in range(n) if any(inst.values[h])]
            oracle = tuple(max(inst.values[h][g] / sol.utilities[h] for h in active) for g in range(m))
            assert sol.prices == oracle

    def test_integer_rounds_match_fraction_rounds(self):
        # the Fraction rounds on rows normalised to sum 1 are the oracle of the
        # integer rounds on rows scaled to integers: same prices, same shares
        unequal = 0
        for inst in mnw_inputs(random.Random(1909), 520):
            active = _active_agents(inst)
            normalised = [[v / total_value_reference(inst, i) for v in inst.values[i]] for i in active]
            expected = mnw_equilibrium_shares(normalised)
            assert _equilibrium_shares([inst.scaled[i][1] for i in active]) == expected
            unequal += len(set(expected[1])) > 1
        assert unequal > 300  # most runs end with some prices raised above others

    def test_matches_pinned_utilities(self):
        # exact utilities and allocations recorded from earlier solvers: the
        # ascending prices must reproduce both
        table = zip(
            _pinned_instances(),
            PINNED_UTILITIES.split("\n"),
            PINNED_ALLOCATIONS.split("\n"),
            strict=True,
        )
        for inst, utilities, allocation in table:
            sol = solve_mnw(inst)
            assert " ".join(str(u) for u in sol.utilities) == utilities
            matrix = ", ".join(" ".join(str(v) for v in row) for row in sol.allocation.matrix)
            assert matrix == allocation
            assert ceei_verify(inst, sol.allocation, slack=0).holds


PINNED_UTILITIES = """\
5 5 6
113/12 113/15 113/12
21 16
11 10 10
5 12
37/3 37/3 37/6
21/2 21/4
0 31/2 31/5
6 11 7 9
9/2 7 27/5
11/2 6 11/2
407/48 407/48 407/60 407/40
63/4 21/2
3/2 3/4
5 5/3 25/9 5
33/10 99/20 33/8 11/10
6 5 5
7 5
189/32 63/16 21/4 63/8
2/3 4 4/3
9 17/4 17/2
4 8/3 16/5 16/9
313/60 313/48 313/40 313/60
21/2 21/2 11
14/3 7 7
13/3 13/3 26/5 4
65/4 65/6
137/8 137/10
25/12 25/8 25/6 25/8
6 6 6 3"""

# one line per instance, rows separated by ", "
PINNED_ALLOCATIONS = """\
1 0 0, 0 1 0, 0 0 1
0 2/5 0 53/60 1 0, 0 31/60 1 7/60 0 0, 1 1/12 0 0 0 1
1 0 1 0 1 1 0, 0 1 0 1 0 0 1
0 0 0 1 0 0 1, 0 2/3 1 0 1 0 0, 1 1/3 0 0 0 1 0
0 1 0, 1 0 1
0 1 1 7/18 0 0, 0 0 0 5/9 1 1, 1 0 0 1/18 0 0
1 1 7/12 0, 0 0 5/12 1
0 0 0 0, 0 1 9/10 1, 1 0 1/10 0
0 0 1 0 0 0 0, 1 0 0 0 0 0 1, 0 0 0 1 1 0 0, 0 1 0 0 0 1 0
0 0 1 1/10, 1 1 0 0, 0 0 0 9/10
0 11/12 0, 0 0 1, 1 1/12 0
0 0 167/240 1 0 0 0, 0 0 0 0 1 0 119/240, 11/80 0 73/240 0 0 1 121/240, 69/80 1 0 0 0 0 0
1 5/8 1 0 0 1, 0 3/8 0 1 1 0
1/4 1, 3/4 0
1 0 0, 0 4/9 1/6, 0 5/9 0, 0 0 5/6
0 3/20 9/20, 0 33/40 0, 1 1/40 0, 0 0 11/20
1 0 0, 0 1 0, 0 0 1
0 1 1, 1 0 0
0 17/32 0 23/32 0, 15/16 0 0 9/32 0, 1/16 0 1 0 0, 0 15/32 0 0 1
2/3 0, 0 2/3, 1/3 1/3
0 0 1 1 0, 1/12 1 0 0 0, 11/12 0 0 0 1
1 0 0, 0 7/15 1/9, 0 8/15 0, 0 0 8/9
0 0 29/80 73/240 0 17/20, 0 1 0 121/240 0 0, 1 0 51/80 0 0 0, 0 0 0 23/120 1 3/20
1/6 0 3/4 1 0 0, 5/6 0 1/4 0 1 0, 0 1 0 0 0 1
1 1/6 0 0, 0 5/6 1/3 0, 0 0 2/3 1
0 11/15 2/15 0, 1 4/15 0 0, 0 0 13/15 0, 0 0 0 1
1 0 1 0 13/24 0 1, 0 1 0 1 11/24 1 0
1 1 33/40 0 0 0 1, 0 0 7/40 1 1 1 0
0 11/36 7/24, 1 0 3/16, 0 25/36 0, 0 0 25/48
0 1 0 0, 1 0 0 0, 0 0 0 1, 0 0 1 0"""


def _pinned_instances():
    # 30 seeded goods instances with zero cells; the eighth loses agent 0's row
    rng = random.Random(2024)
    for k in range(30):
        inst = random_goods(rng, n_max=4, m_max=7, vmax=6)
        if k == 7:
            rows = [list(row) for row in inst.values]
            rows[0] = [0] * inst.m
            for j in range(inst.m):
                if all(rows[i][j] == 0 for i in range(inst.n)):
                    rows[1][j] = 1
            inst = Instance.from_rows(rows)
        yield inst


class TestCeeiVerify:
    def test_rejects_better_rate_elsewhere(self, tilt2):
        x = FractionalAllocation.from_rows([["1", "0"], ["0", "1"]])
        verdict = ceei_verify(tilt2, x)
        assert not verdict.holds
        assert verdict.witness["holder"] == 1
        assert verdict.witness["rival"] == 0
        assert verdict.witness["item"] == 1

    def test_slack_absorbs_small_gaps(self, tilt2):
        x = FractionalAllocation.from_rows([["1", "0"], ["0", "1"]])
        assert ceei_verify(tilt2, x, slack=2).holds

    def test_bads_condition(self):
        inst = Instance.from_rows([[-1, -2], [-2, -1]])
        good = FractionalAllocation.from_rows([["1", "0"], ["0", "1"]])
        bad = FractionalAllocation.from_rows([["0", "1"], ["1", "0"]])
        assert ceei_verify(inst, good).holds
        verdict = ceei_verify(inst, bad)
        assert not verdict.holds

    def test_zero_utility_rejected(self):
        inst = Instance.from_rows([[1, 1], [1, 1]])
        x = FractionalAllocation.from_rows([["1", "1"], ["0", "0"]])
        with pytest.raises(ZeroUtilityError):
            ceei_verify(inst, x)

    def test_input_validation(self, tilt2, mixed4):
        incomplete = FractionalAllocation.from_rows([["1/2", "0"], ["0", "1"]])
        with pytest.raises(InputError):
            ceei_verify(tilt2, incomplete)
        with pytest.raises(InputError):
            ceei_verify(tilt2, FractionalAllocation.from_rows([["1", "0"], ["0", "1"]]), slack=-1)
        x4 = FractionalAllocation.from_rows([["1", "1", "1", "1"], ["0", "0", "0", "0"]])
        with pytest.raises(KindMismatchError):
            ceei_verify(mixed4, x4)

    def test_slack_is_read_exactly(self):
        # agent 1's rate on item 0 beats agent 0's by 1/10 + 10^-18: a slack of
        # 1/10 falls just short, while the binary double nearest 0.1 would absorb it
        inst = Instance.from_rows([[1, 1], ["1100000000000000001/1000000000000000000", 1]])
        x = FractionalAllocation.from_rows([["1", "0"], ["0", "1"]])
        verdict = ceei_verify(inst, x, slack=Fraction(1, 10))
        assert not verdict.holds and verdict.witness["rival"] == 1
        assert ceei_verify(inst, x, slack=0.1) == ceei_verify(inst, x, slack="0.1") == verdict
        assert ceei_verify(inst, x, slack="1/5").holds
        for slack in ("abc", float("nan"), float("inf"), True):
            with pytest.raises(InputError, match="^not a rational value"):
                ceei_verify(inst, x, slack=slack)


class TestReplication:
    def test_replicated_equilibrium_verifies(self, tilt2):
        sol = solve_mnw(tilt2)
        for k in (2, 3):
            big = replicate(tilt2, k)
            big_x = replicate_allocation(sol.allocation, k)
            assert big.n == tilt2.n * k and big.m == tilt2.m * k
            assert ceei_verify(big, big_x).holds

    def test_replicated_solution_utilities(self, tilt2):
        sol = solve_mnw(tilt2)
        big = solve_mnw(replicate(tilt2, 2))
        assert big.utilities == sol.utilities * 2

    def test_factor_validation(self, tilt2):
        with pytest.raises(InputError):
            replicate(tilt2, 0)
        with pytest.raises(InputError):
            replicate_allocation(FractionalAllocation.from_rows([["1", "1"]]), 0)


def test_replication_and_deviation_outputs_match_pinned_digest():
    # sha256 over replicate, replicate_allocation and mnw_deviation_witness
    # outputs on seeded inputs, recorded before eat and eat_full left the
    # library: every integral allocation of 60 small goods instances (a zero row
    # in every fourth), each instance and allocation replicated 1-3 times, and
    # the witness (or None, or the error) on both the original and the copy
    rng = random.Random(3434)
    seen = {"none": 0, "witness": 0, "SolveError": 0}

    def outcome(inst, alloc):
        try:
            found = mnw_deviation_witness(inst, alloc)
        except SolveError as exc:
            seen["SolveError"] += 1
            return ["SolveError", str(exc)]
        seen["none" if found is None else "witness"] += 1
        return found and [found[0], found[1], [str(v) for v in found[2]]]

    out = []
    for k in range(60):
        rows = [list(row) for row in random_goods(rng, n_max=3, m_max=3, vmax=4).values]
        if k % 4 == 3:
            rows.insert(rng.randint(0, len(rows)), [0] * len(rows[0]))
        inst = Instance.from_rows(rows)
        factor = rng.randint(1, 3)
        big = replicate(inst, factor)
        out.append([[str(v) for v in row] for row in big.values])
        for alloc in enumerate_integral_allocations(inst):
            big_x = replicate_allocation(alloc, factor)
            out.append([outcome(inst, alloc), allocation_to_json(big_x), outcome(big, big_x.to_integral())])
    # 1,992 outcomes at this seed: 58 None, 1,734 witnesses, 200 SolveErrors
    assert all(count > 0 for count in seen.values())
    digest = hashlib.sha256(json.dumps(out, separators=(",", ":")).encode()).hexdigest()
    assert digest == REPLICATION_SEEDED_DIGEST


REPLICATION_SEEDED_DIGEST = "d3a6787ced9c186e079d3c37d46960d57b76a3c842393a07761c84608b5ed807"


def test_price_round_that_does_not_raise_is_an_error(monkeypatch, tilt2):
    # a raise factor of 1 would repeat the same round forever
    monkeypatch.setattr(mnw, "_lowest", lambda num, den: (1, 1))
    with pytest.raises(SolveError, match="did not raise"):
        solve_mnw(tilt2)


@pytest.mark.parametrize(
    "rows, first_is_last",
    [([[1, 2], [1, 3]], False), ([[1, 1]], True)],
    ids=["earlier-round", "last-round"],
)
def test_unsold_item_in_any_round_is_an_error(monkeypatch, rows, first_is_last):
    # tilt2's first round is not the last; a lone agent's first round is. Every
    # round runs _live, and its flow reporting one unit unsold must raise
    inst = Instance.from_rows(rows)
    real = mnw._live
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(mnw, "_live", counted)
    solve_mnw(inst)
    assert (len(calls) == 1) is first_is_last

    def leaky(*args):
        live_agents, live_items, unsold, flow = real(*args)
        return live_agents, live_items, unsold + 1, flow

    monkeypatch.setattr(mnw, "_live", leaky)
    with pytest.raises(RuntimeError, match="^ascending prices left an item unsold$"):
        solve_mnw(inst)


def _random_market(rng: random.Random) -> tuple:
    """A price-round market: 1-6 agents, 1-9 items, any subset of the agents
    budgeted (as in a raise), edges from them or from all agents, and about one
    budget in ten and one item cap in five zero. Caps are drawn near the budget,
    so one item often takes an agent's whole budget, and magnitudes reach 10^18."""
    k, m = rng.randint(1, 6), rng.randint(1, 9)
    top = rng.choice((3, 10, 1000, 10**18))
    budget = 0 if rng.random() < 0.1 else rng.randint(1, top)
    room = [0 if rng.random() < 0.2 else rng.randint(1, 2 * top) for _ in range(m)]
    agents = sorted(rng.sample(range(k), rng.randint(0, k)))
    senders = agents if rng.random() < 0.5 else range(k)
    density = rng.random()
    edges = [(a, g) for a in senders for g in range(m) if rng.random() < density]
    return k, m, agents, edges, budget, room


def test_live_flow_matches_edmonds_karp(monkeypatch):
    # _live's live agents, live items, unsold capacity and flow must be those of
    # the Edmonds-Karp network, on random markets and on every round and raise of
    # 300 solves, the last round, whose flow is the shares, included
    rng = random.Random(3535)
    markets = [_random_market(rng) for _ in range(2500)]
    real = mnw._live

    def record(k, m, agents, edges, budget, room):
        markets.append((k, m, list(agents), list(edges), budget, list(room)))
        return real(k, m, agents, edges, budget, room)

    monkeypatch.setattr(mnw, "_live", record)
    mismatches, full, sold_out, saturated, last_rounds = [], 0, 0, 0, 0
    for inst in mnw_inputs(random.Random(3636), 300):
        before = len(markets)
        solve_mnw(inst)
        k, _, agents, _, budget, room = markets[-1]
        last_rounds += len(markets) > before and agents == list(range(k)) and sum(room) == k * budget
    for market in markets:
        *expected, whole = mnw_live_reference(*market)
        if list(real(*market)) != expected:
            mismatches.append(market)
        full += len(expected[0]) == market[0]
        sold_out += expected[2] == 0
        saturated += whole
    assert mismatches == []
    # the draws hold every round and raise of the solves, the last rounds
    # included, rounds with every agent live, with every item sold, with agents
    # whose whole budget went to one item, and with zero budgets
    assert len(markets) > 3500 and last_rounds == 300
    assert full > 400 and sold_out > 1000 and saturated > 1000
    assert sum(market[4] == 0 for market in markets) > 200


class TestMnwV:
    def test_single_bidder_item_carved_out(self, weak3):
        x = mnw_v(weak3)
        assert x == FractionalAllocation.from_rows(
            [["1/3", "0"], ["1/3", "0"], ["1/3", "1"]]
        )

    def test_no_single_bidder_items_matches_solver(self):
        inst = Instance.from_rows([[1, 2], [2, 1]])
        assert mnw_v(inst) == solve_mnw(inst).allocation

    def test_all_single_bidder(self):
        inst = Instance.from_rows([[1, 0], [0, 1]])
        assert mnw_v(inst) == FractionalAllocation.from_rows([["1", "0"], ["0", "1"]])

    def test_group_fairness_for_less(self, weak3):
        x = mnw_v(weak3)
        assert not check_gf(weak3, x, restrict="full").holds
        assert check_gf(weak3, x, restrict="s_le_t").holds

    def test_random_instances_gf_for_less(self):
        rng = random.Random(77)
        found_single_bidder = 0
        for _ in range(12):
            n = rng.randint(2, 3)
            m = rng.randint(2, 4)
            values = [[rng.randint(0, 4) for _ in range(m)] for _ in range(n)]
            for j in range(m):
                if all(values[i][j] == 0 for i in range(n)):
                    values[rng.randrange(n)][j] = rng.randint(1, 4)
            # an agent with no value anywhere can ride along in any coalition S,
            # so the guarantee needs every agent to want something
            for i in range(n):
                if all(v == 0 for v in values[i]):
                    values[i][rng.randrange(m)] = rng.randint(1, 4)
            inst = Instance.from_rows(values)
            if any(
                sum(1 for i in range(n) if values[i][j] > 0) == 1 for j in range(m)
            ):
                found_single_bidder += 1
            assert check_gf(inst, mnw_v(inst), restrict="s_le_t").holds
        assert found_single_bidder > 0

    def test_bads_rejected(self, bads3):
        with pytest.raises(KindMismatchError):
            mnw_v(bads3)


class TestDeviationWitness:
    def test_suboptimal_allocation_yields_transfer(self, tilt2):
        alloc = IntegralAllocation.from_bundles(2, 2, [(0,), (1,)])
        witness = mnw_deviation_witness(tilt2, alloc)
        assert witness is not None
        i, j, slice_vec = witness
        assert (i, j) == (1, 0)
        held = tilt2.utility(i, fractional_row(alloc, i))
        taken = tilt2.utility(i, slice_vec)
        gained = tilt2.utility(j, slice_vec)
        other = tilt2.utility(j, fractional_row(alloc, j))
        assert all(
            0 <= slice_vec[g] <= alloc.matrix[i][g] for g in range(tilt2.m)
        )
        assert 0 < taken < held
        # the transfer strictly raises the product of the pair's utilities
        assert gained * (held - taken) > other * taken
        assert (held - taken) * (other + gained) > held * other

    def test_nash_optimal_integral_returns_none(self):
        inst = Instance.from_rows([[2, 1], [1, 2]])
        alloc = IntegralAllocation.from_bundles(2, 2, [(0,), (1,)])
        assert mnw_deviation_witness(inst, alloc) is None

    def test_starved_agent_receives_slice(self):
        inst = Instance.from_rows([[1, 1], [1, 1]])
        alloc = IntegralAllocation.from_bundles(2, 2, [(0, 1), ()])
        witness = mnw_deviation_witness(inst, alloc)
        assert witness is not None
        i, j, slice_vec = witness
        assert (i, j) == (0, 1)
        taken = inst.utility(i, slice_vec)
        gained = inst.utility(j, slice_vec)
        assert 0 < taken < 2
        assert gained * (2 - taken) > 0

    def test_incomplete_rejected(self, tilt2):
        partial = IntegralAllocation.from_bundles(2, 2, [(0,), ()])
        with pytest.raises(InputError):
            mnw_deviation_witness(tilt2, partial)

    def test_shape_mismatch_rejected(self):
        inst = Instance.from_rows([[1, 2], [2, 1], [1, 1]])
        alloc = IntegralAllocation.from_bundles(2, 2, [(0,), (1,)])
        with pytest.raises(InputError, match="shape"):
            mnw_deviation_witness(inst, alloc)

    @pytest.mark.parametrize(
        "rows, error",
        [
            ([[-1, -2], [-2, -1]], KindMismatchError),
            ([[1, -2], [-2, 1]], KindMismatchError),
            ([[1, 0], [0, 0]], InputError),
        ],
        ids=["bads", "mixed", "item-nobody-values"],
    )
    def test_non_goods_rejected(self, rows, error):
        # a nonnegative instance with an item nobody values is no goods instance,
        # so no zero row of a goods instance holds such an item
        alloc = IntegralAllocation.from_bundles(2, 2, [(0,), (1,)])
        with pytest.raises(error):
            mnw_deviation_witness(Instance.from_rows(rows), alloc)

    # agent 2 values nothing; agent 0 alone values items 0 and 2, agent 1 item 1
    ZERO_ROW = [[1, 0, 1], [0, 1, 0], [0, 0, 0]]

    @pytest.mark.parametrize(
        "rows, bundles, expected",
        [
            ([[1, 2], [1, 3]], [(0,), (1,)], (1, 0, (0, F(1, 4)))),
            ([[2, 1], [1, 2]], [(0,), (1,)], None),
            (ZERO_ROW, [(0,), (1,), (2,)], SolveError),
            (ZERO_ROW, [(0, 2), (1,), ()], None),
            ([[1, 1], [0, 1]], [(0, 1), ()], (0, 1, (0, 1))),
            ([[1, 0], [0, 1]], [(1,), (0,)], SolveError),
        ],
        ids=[
            "outbid-item",
            "nash-optimal",
            "zero-row-holds-valued-item",
            "zero-row-holds-nothing",
            "starved-rival",
            "zero-utility-holder",
        ],
    )
    def test_decided_without_solving_mnw(self, monkeypatch, rows, bundles, expected):
        # the equilibrium condition decides every case; solve_mnw is never called
        inst = Instance.from_rows(rows)
        alloc = IntegralAllocation.from_bundles(inst.n, inst.m, bundles)

        def outcome(search):
            try:
                return search(inst, alloc)
            except SolveError:
                return SolveError

        def no_solve(instance):
            raise AssertionError("solve_mnw called")

        assert outcome(mnw_deviation_witness_reference) == expected
        monkeypatch.setattr(mnw, "solve_mnw", no_solve)
        assert outcome(mnw_deviation_witness) == expected

    def test_matches_reference_on_every_integral_allocation(self):
        rng = random.Random(47)
        instances = [random_goods(rng, n_max=3, m_max=4, vmax=4) for _ in range(110)]
        for _ in range(40):  # zero rows: an agent outside the product, who may hold items
            rows = list(random_goods(rng, n_max=3, m_max=4, vmax=4).values)
            rows.insert(rng.randint(0, len(rows)), [0] * len(rows[0]))
            instances.append(Instance.from_rows(rows))

        def outcome(search, inst, alloc):
            try:
                return search(inst, alloc)
            except FairlotError as exc:
                return type(exc).__name__, str(exc)

        seen = {"none": 0, "witness": 0, "SolveError": 0}
        for inst in instances:
            for alloc in enumerate_integral_allocations(inst):
                expected = outcome(mnw_deviation_witness_reference, inst, alloc)
                assert repr(outcome(mnw_deviation_witness, inst, alloc)) == repr(expected)
                key = "none" if expected is None else "SolveError" if expected[0] == "SolveError" else "witness"
                seen[key] += 1
        # 5,363 allocations at this seed: 47 Nash-optimal, 5,021 witnesses, 295 SolveErrors
        assert all(count > 0 for count in seen.values())
