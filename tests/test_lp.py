"""Exact rational simplex: optima, statuses, anti-cycling, basic points."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from fairlot import lp
from fairlot.core import FractionalAllocation, Instance, InputError, SolveError
from fairlot.lp import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    basic_feasible_point,
    solve,
)
from fairlot.properties import _gf_pair
from fairlot.rounding import gf_lottery
from fairlot.rps import POLY_SUPPORT, RpsConfig, rps

import oracles
from conftest import certified, random_positive_goods
from oracles import certify_standard_reference, fpo_lp_reference
from test_rps import EARLY_TRIM_ROWS


def F(x):  # noqa: N802 - tiny test-local shorthand
    return Fraction(x) if not isinstance(x, str) else Fraction(*map(int, x.split("/")))


class TestSolve:
    # a <= row is passed as its negation, -a.x >= -b
    def test_single_variable(self):
        sol = solve((F(1),), at_least=[((F(-1),), F(-5))])
        assert sol.status == OPTIMAL
        assert sol.values == (F(5),)
        assert sol.objective_value == F(5)

    def test_basic_solution_has_one_nonzero(self):
        sol = solve((F(1), F(1)), at_least=[((F(-1), F(-1)), F(-1))])
        assert sol.status == OPTIMAL
        assert sol.objective_value == F(1)
        assert sum(1 for v in sol.values if v != 0) == 1

    def test_min_sense(self):
        # min 2x+3y s.t. x+y >= 4, x >= 1 is max -2x-3y
        sol = solve(
            (F(-2), F(-3)),
            at_least=[((F(1), F(1)), F(4)), ((F(1), F(0)), F(1))],
        )
        assert sol.status == OPTIMAL
        assert sol.objective_value == F(-8)  # x covers the whole demand: (4, 0)
        assert sol.values == (F(4), F(0))

    def test_equality_constraints(self):
        sol = solve((F(1), F(2)), equalities=[((F(1), F(1)), F(1))])
        assert sol.status == OPTIMAL
        assert sol.values == (F(0), F(1))

    def test_infeasible(self):
        sol = solve((F(1),), at_least=[((F(1),), F(3)), ((F(-1),), F(-2))])
        assert sol.status == INFEASIBLE
        assert sol.values == () and sol.objective_value is None

    def test_unbounded(self):
        sol = solve((F(1),))
        assert sol.status == UNBOUNDED

    def test_negative_lower_bounds(self):
        # min x s.t. x >= -7, x >= -10: the free x is split as p - q with
        # p, q >= 0 and the min is taken as max -(p - q)
        sol = solve(
            (F(-1), F(1)),
            at_least=[((F(1), F(-1)), F(-7)), ((F(1), F(-1)), F(-10))],
        )
        assert sol.status == OPTIMAL
        assert -sol.objective_value == F(-7)
        assert sol.values[0] - sol.values[1] == F(-7)

    def test_upper_bounds(self):
        # x <= 1/3, y <= 1/4 written as -x >= -1/3, -y >= -1/4
        sol = solve(
            (F(1), F(1)),
            at_least=[((F(-1), F(0)), F("-1/3")), ((F(0), F(-1)), F("-1/4"))],
        )
        assert sol.status == OPTIMAL
        assert sol.objective_value == F("7/12")

    def test_exact_fractional_optimum(self):
        # max 3x+5y s.t. x+2y <= 7/3, 3x+y <= 2
        sol = solve(
            (F(3), F(5)),
            at_least=[((F(-1), F(-2)), F("-7/3")), ((F(-3), F(-1)), F(-2))],
        )
        assert sol.status == OPTIMAL
        assert sol.values == (F("1/3"), F(1))
        assert sol.objective_value == F(6)

    def test_negative_rhs_and_redundant_equality(self):
        # the repeated equality is dropped in phase one and the x - y >= -1 row
        # is sign-flipped; the dual certificate checks the remaining system
        sol = solve(
            (F(1), F(2)),
            equalities=[((F(1), F(1)), F(2)), ((F(1), F(1)), F(2))],
            at_least=[((F(1), F(-1)), F(-1))],
        )
        assert sol.status == OPTIMAL
        assert sol.values == (F("1/2"), F("3/2"))
        assert sol.objective_value == F("7/2")

    def test_integer_and_string_entries_parse(self):
        sol = solve([1, "1/2"], at_least=[([-1, -1], -3), ([0, -1], "-1/2")])
        assert sol.status == OPTIMAL
        assert sol.values == (F(3), F(0))

    def test_beale_cycling_fixture_terminates(self):
        # degenerate pivot-cycling instance (a min with <= rows, negated);
        # Bland's rule must exit at 1/20
        sol = solve(
            (F("3/4"), F(-150), F("1/50"), F(-6)),
            at_least=[
                ((F("-1/4"), F(60), F("1/25"), F(-9)), F(0)),
                ((F("-1/2"), F(90), F("1/50"), F(-3)), F(0)),
                ((F(0), F(0), F(-1), F(0)), F(-1)),
            ],
        )
        assert sol.status == OPTIMAL
        assert sol.objective_value == F("1/20")

    def test_width_mismatch_rejected(self):
        with pytest.raises(InputError):
            solve((F(1),), at_least=[((F(1), F(2)), F(1))])
        with pytest.raises(InputError):
            solve((F(1),), equalities=[((F(1), F(2)), F(1))])
        with pytest.raises(InputError):
            basic_feasible_point([((F(1), F(2)), F(1))], 1)

    def test_certificate_rejects_suboptimal_basis(self):
        # min x + 2y s.t. x + y = 1: the basis {y} is feasible but not optimal
        with pytest.raises(SolveError):
            certify_standard_reference([[F(1), F(1)]], [F(1)], [F(1), F(2)], [1], [F(0), F(1)])
        certify_standard_reference([[F(1), F(1)]], [F(1)], [F(1), F(2)], [0], [F(1), F(0)])

    def test_suite_certifies_every_optimal_solve(self, monkeypatch):
        # the autouse fixture wraps lp._solve_standard: the certifier passes each
        # optimal solve once, and one that rejects everything fails each optimal
        # solve and leaves the other statuses alone
        real, calls = certify_standard_reference, []

        def recording(*args):
            calls.append(args)
            real(*args)

        monkeypatch.setattr(oracles, "certify_standard_reference", recording)
        assert solve([1], at_least=[([-1], -5)]).values == (F(5),)
        assert basic_feasible_point([([1, 1], 1)], 2).status == OPTIMAL
        assert len(calls) == 2

        def reject(*args):
            raise SolveError("rejected")

        monkeypatch.setattr(oracles, "certify_standard_reference", reject)
        with pytest.raises(SolveError, match="rejected"):
            solve([1], at_least=[([-1], -5)])
        with pytest.raises(SolveError, match="rejected"):
            basic_feasible_point([([1, 1], 1)], 2)
        assert solve([1], at_least=[([1], 3), ([-1], -2)]).status == INFEASIBLE
        assert solve([1]).status == UNBOUNDED

    def test_random_lps_agree_with_vertex_enumeration(self):
        # 2-var LPs with small integer data: compare against brute-force over
        # candidate vertices (constraint intersections and bound corners)
        rng = random.Random(7)
        for _ in range(60):
            rows = []
            for _ in range(3):
                rows.append(
                    (
                        Fraction(rng.randint(-3, 3)),
                        Fraction(rng.randint(-3, 3)),
                        Fraction(rng.randint(0, 6)),
                    )
                )
            obj = (Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3)))
            cap = Fraction(5)
            at_least = [((-a, -b), -c) for a, b, c in rows]
            at_least += [((F(-1), F(0)), -cap), ((F(0), F(-1)), -cap)]
            sol = solve(obj, at_least=at_least)
            assert sol.status == OPTIMAL  # box-bounded and 0 feasible
            lines = [(a, b, c) for a, b, c in rows]
            lines += [(Fraction(1), Fraction(0), cap), (Fraction(0), Fraction(1), cap)]
            lines += [(Fraction(1), Fraction(0), Fraction(0)), (Fraction(0), Fraction(1), Fraction(0))]
            best = None
            for i1 in range(len(lines)):
                for i2 in range(i1 + 1, len(lines)):
                    a1, b1, c1 = lines[i1]
                    a2, b2, c2 = lines[i2]
                    det = a1 * b2 - a2 * b1
                    if det == 0:
                        continue
                    x = (c1 * b2 - c2 * b1) / det
                    y = (a1 * c2 - a2 * c1) / det
                    if not (0 <= x <= cap and 0 <= y <= cap):
                        continue
                    if any(a * x + b * y > c for a, b, c in rows):
                        continue
                    val = obj[0] * x + obj[1] * y
                    if best is None or val > best:
                        best = val
            assert best is not None
            assert sol.objective_value == best


class TestBasicFeasiblePoint:
    def test_duplicate_columns_collapse(self):
        # X written as an even mix of four identical copies -> support 1
        eqs = [((Fraction(1), Fraction(1), Fraction(1), Fraction(1)), Fraction(1))]
        sol = basic_feasible_point(eqs, 4)
        assert sol.status == OPTIMAL
        assert sum(1 for v in sol.values if v != 0) == 1

    def test_support_bounded_by_rows(self):
        rng = random.Random(3)
        for _ in range(40):
            rows = rng.randint(1, 4)
            cols = rng.randint(rows, rows + 5)
            point = [Fraction(rng.randint(0, 4), 4) for _ in range(cols)]
            matrix = [[Fraction(rng.randint(0, 3)) for _ in range(cols)] for _ in range(rows)]
            eqs = [
                (tuple(matrix[r]), sum(matrix[r][c] * point[c] for c in range(cols)))
                for r in range(rows)
            ]
            sol = basic_feasible_point(eqs, cols)
            assert sol.status == OPTIMAL  # `point` witnesses feasibility
            assert sum(1 for v in sol.values if v != 0) <= rows
            for (coeffs, b) in eqs:
                assert sum(c * v for c, v in zip(coeffs, sol.values)) == b

    def test_infeasible_reported_as_status(self):
        eqs = [((Fraction(1),), Fraction(-1))]
        sol = basic_feasible_point(eqs, 1)
        assert sol.status == INFEASIBLE

    def test_shift4_certificate_weights_feasible(self, shift4_x, shift4_certificate):
        # the three listed parts admit convex weights reproducing X
        parts = [part for _, part in shift4_certificate]
        eqs = []
        for i in range(shift4_x.n):
            for j in range(shift4_x.m):
                eqs.append(
                    (
                        tuple(Fraction(p.matrix[i][j]) for p in parts),
                        shift4_x.matrix[i][j],
                    )
                )
        eqs.append(((Fraction(1),) * len(parts), Fraction(1)))
        sol = basic_feasible_point(eqs, len(parts))
        assert sol.status == OPTIMAL
        # and the reference weights satisfy the same system
        weights = [w for w, _ in shift4_certificate]
        for coeffs, b in eqs:
            assert sum(c * w for c, w in zip(coeffs, weights)) == b


def test_solve_error_is_catchable_fairlot_error():
    from fairlot.core import FairlotError

    assert issubclass(SolveError, FairlotError)


class TestEdgeCases:
    @pytest.mark.parametrize(
        "call, status, values, objective",
        [
            (lambda: solve([]), OPTIMAL, (), "0"),
            (lambda: solve([], equalities=[([], 0)]), OPTIMAL, (), "0"),
            (lambda: solve([], equalities=[([], 1)]), INFEASIBLE, (), None),
            (lambda: solve([-1, 0]), OPTIMAL, ("0", "0"), "0"),
            (lambda: solve([0, 1]), UNBOUNDED, (), None),
            (lambda: solve([-1, 2], equalities=[([0, 0], 0), ([1, 1], 1)]), OPTIMAL, ("0", "1"), "2"),
            (lambda: solve([1, 1], equalities=[([0, 0], 1)]), INFEASIBLE, (), None),
            (lambda: solve([1, 1], at_least=[([0, 0], 1)]), INFEASIBLE, (), None),
            (lambda: solve([-1], at_least=[([0], -1)]), OPTIMAL, ("0",), "0"),
            (
                lambda: solve([0, 0, 0], equalities=[([1, 2, 3], 6)], at_least=[([1, 0, 0], "1/2")]),
                OPTIMAL,
                ("1/2", "11/4", "0"),
                "0",
            ),
            (lambda: basic_feasible_point([], 3), OPTIMAL, ("0", "0", "0"), "0"),
            (lambda: basic_feasible_point([], 0), OPTIMAL, (), "0"),
            (lambda: basic_feasible_point([([0, 0], 0)], 2), OPTIMAL, ("0", "0"), "0"),
            (lambda: basic_feasible_point([([0, 0], 0), ([1, 3], 3)], 2), OPTIMAL, ("3", "0"), "0"),
            (lambda: basic_feasible_point([([0, 0], 1)], 2), INFEASIBLE, (), None),
        ],
        ids=[
            "no-variables",
            "no-variables-0=0",
            "no-variables-0=1",
            "no-rows-bounded",
            "no-rows-unbounded",
            "0=0-row",
            "0=1-row",
            "0>=1-row",
            "0>=-1-row",
            "zero-objective",
            "bfp-no-rows",
            "bfp-no-variables",
            "bfp-only-zero-row",
            "bfp-zero-row",
            "bfp-0=1-row",
        ],
    )
    def test_status_and_values_pinned(self, call, status, values, objective):
        sol = call()
        assert sol.status == status
        assert sol.values == tuple(F(v) for v in values)
        assert sol.objective_value == (None if objective is None else F(objective))


# ---------------------------------------------------------------------------
# The Fraction tableau the integer tableau replaced, kept as the seeded oracle:
# the same Bland pivots on the unscaled system, one Fraction row operation at a
# time. The integer tableau must reproduce its status, values, basis and kept
# rows exactly.
# ---------------------------------------------------------------------------


def _oracle_pivot(rows, rhs, r, c):
    piv = rows[r][c]
    if piv != 1:
        inv = 1 / piv
        rows[r] = [v * inv for v in rows[r]]
        rhs[r] *= inv
    prow = rows[r]
    for k, row in enumerate(rows):
        if k != r and row[c] != 0:
            f = row[c]
            rows[k] = [a - f * b for a, b in zip(row, prow)]
            rhs[k] -= f * rhs[r]


def _oracle_simplex(rows, rhs, cost, basis, allowed):
    ncols = len(cost)
    zrow = list(cost)
    for r, bi in enumerate(basis):
        f = zrow[bi]
        if f != 0:
            prow = rows[r]
            for j in range(ncols):
                if prow[j] != 0:
                    zrow[j] -= f * prow[j]
    limit = 10_000 + 40 * (len(rows) + 2) * (ncols + 2)
    for _ in range(limit):
        enter = -1
        for j in range(allowed):
            if zrow[j] < 0:
                enter = j
                break
        if enter < 0:
            return OPTIMAL
        leave = -1
        best = None
        for r in range(len(rows)):
            a = rows[r][enter]
            if a > 0:
                ratio = rhs[r] / a
                if best is None or ratio < best or (ratio == best and basis[r] < basis[leave]):
                    best = ratio
                    leave = r
        if leave < 0:
            return UNBOUNDED
        _oracle_pivot(rows, rhs, leave, enter)
        f = zrow[enter]
        prow = rows[leave]
        for j in range(ncols):
            if prow[j] != 0:
                zrow[j] -= f * prow[j]
        basis[leave] = enter
    raise SolveError("simplex iteration limit exceeded")


def _oracle_solve_standard(rows, rhs, cost):
    nvars = len(cost)
    nrows = len(rows)
    rows = [[-v for v in row] if b < 0 else row for row, b in zip(rows, rhs)]
    rhs = [abs(b) for b in rhs]
    work = [row + [F(k == r) for k in range(nrows)] for r, row in enumerate(rows)]
    work_rhs = list(rhs)
    art_cost = [F(0)] * nvars + [F(1)] * nrows
    basis = [nvars + r for r in range(nrows)]
    assert _oracle_simplex(work, work_rhs, art_cost, basis, nvars + nrows) == OPTIMAL
    if sum((work_rhs[r] for r in range(nrows) if basis[r] >= nvars), F(0)) != 0:
        return INFEASIBLE, [], [], []
    keep = []
    for r in range(nrows):
        if basis[r] >= nvars:
            pivot_col = next((j for j in range(nvars) if work[r][j] != 0), -1)
            if pivot_col < 0:
                continue
            _oracle_pivot(work, work_rhs, r, pivot_col)
            basis[r] = pivot_col
        keep.append(r)
    rows2 = [work[r][:nvars] for r in keep]
    rhs2 = [work_rhs[r] for r in keep]
    basis2 = [basis[r] for r in keep]
    status = _oracle_simplex(rows2, rhs2, list(cost), basis2, nvars)
    if status != OPTIMAL:
        return status, [], [], []
    values = [F(0)] * nvars
    for r, bi in enumerate(basis2):
        values[bi] = rhs2[r]
    return OPTIMAL, values, basis2, keep


def _with_oracle(monkeypatch, call, *args):
    """``call(*args)`` with the oracle tableau, certified like the integer one, in its place."""
    with monkeypatch.context() as patch:
        patch.setattr(lp, "_solve_standard", certified(_oracle_solve_standard))
        return call(*args)


def _random_lp(rng):
    """A small LP with signed rational data: redundant duplicate rows, negative
    right-hand sides and zero rows included, so every status comes up."""
    nvars = rng.randint(0, 6)

    def entry():
        return F(0) if rng.random() < 0.3 else Fraction(rng.randint(-5, 5), rng.choice((1, 1, 2, 3, 4, 6)))

    def row():
        return [entry() for _ in range(nvars)], entry()

    equalities = [row() for _ in range(rng.randint(0, 4))]
    if equalities and rng.random() < 0.3:
        equalities.append(equalities[rng.randrange(len(equalities))])
    if rng.random() < 0.15:
        equalities.append(([F(0)] * nvars, F(0)))
    at_least = [row() for _ in range(rng.randint(0, 4))]
    return [entry() for _ in range(nvars)], equalities, at_least


def _recorded_systems(monkeypatch, run):
    """Every standard-form system that ``run()`` hands to the simplex, with its result."""
    systems = []
    real = lp._solve_standard

    def recording(rows, rhs, cost):
        result = real(rows, rhs, cost)
        systems.append(((rows, rhs, cost), result))
        return result

    with monkeypatch.context() as patch:
        patch.setattr(lp, "_solve_standard", recording)
        run()
    return systems


def _assert_systems_agree(systems):
    for system, result in systems:
        assert result == _oracle_solve_standard(*system)


class TestIntegerTableauMatchesFractionOracle:
    def test_random_lps(self, monkeypatch):
        rng = random.Random(14)
        statuses = {OPTIMAL: 0, INFEASIBLE: 0, UNBOUNDED: 0}
        for _ in range(800):
            objective, equalities, at_least = _random_lp(rng)
            sol = solve(objective, equalities, at_least)
            assert sol == _with_oracle(monkeypatch, solve, objective, equalities, at_least)
            statuses[sol.status] += 1
            nvars = len(objective)
            rows = equalities + at_least
            point = basic_feasible_point(rows, nvars)
            assert point == _with_oracle(monkeypatch, basic_feasible_point, rows, nvars)
            coeffs, rhs = [r for r, _ in rows], [b for _, b in rows]
            cost = [-v for v in objective]
            assert lp._solve_standard(coeffs, rhs, cost) == _oracle_solve_standard(coeffs, rhs, cost)
        assert min(statuses.values()) >= 100, statuses

    def test_fpo_lps_of_acceptance_07(self, monkeypatch):
        # the instances of test_acceptance_07, every part of each gf_lottery, through the
        # fpo LP of the oracle, since check_efficiency decides these parts without one
        rng = random.Random(7)
        instances = [random_positive_goods(rng, n_max=4, m_max=7, vmax=10) for _ in range(100)]
        lotteries = [gf_lottery(inst) for inst in instances]

        def run():
            for inst, lot in zip(instances, lotteries):
                for _, part in lot.support:
                    fpo_lp_reference(inst, part)

        systems = _recorded_systems(monkeypatch, run)
        assert len(systems) > 200
        _assert_systems_agree(systems)

    def test_gf_sweep_of_a_non_mnw_allocation(self, monkeypatch):
        # the equal split among four agents: all 15 x 15 (S, T) pairs' LPs, violated or not
        rng = random.Random(3)
        inst = Instance.from_rows([[rng.randint(0, 10) for _ in range(5)] for _ in range(4)])
        n, m = inst.n, inst.m
        x = FractionalAllocation(tuple(tuple(Fraction(1, n) for _ in range(m)) for _ in range(n)))
        current = [inst.utility(i, x.row(i)) for i in range(n)]
        coalitions = [tuple(i for i in range(n) if mask >> i & 1) for mask in range(1, 2**n)]

        def run():
            for s in coalitions:
                for t in coalitions:
                    _gf_pair(inst, x, current, s, t, "gf")

        systems = _recorded_systems(monkeypatch, run)
        assert len(systems) == len(coalitions) ** 2
        _assert_systems_agree(systems)

    def test_caratheodory_systems_of_the_early_trim(self, monkeypatch):
        # the support-reduction systems behind test_poly_trims_before_the_last_stage
        inst = Instance.from_rows(EARLY_TRIM_ROWS)
        systems = _recorded_systems(monkeypatch, lambda: rps(inst, RpsConfig(mode=POLY_SUPPORT)))
        assert systems
        _assert_systems_agree(systems)
