"""Exact rational simplex: optima, statuses, anti-cycling, basic points."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from fairlot.core import InputError, SolveError
from fairlot.lp import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    _certify_standard,
    basic_feasible_point,
    solve,
)


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
            _certify_standard([[F(1), F(1)]], [F(1)], [F(1), F(2)], [1], [F(0), F(1)])
        _certify_standard([[F(1), F(1)]], [F(1)], [F(1), F(2)], [0], [F(1), F(0)])

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
