"""Exact linear programming over rationals, in one form.

``solve`` maximises c·x subject to A x = b, A x >= b and x >= 0;
``basic_feasible_point`` returns a vertex of {A x = b, x >= 0}. Both run a dense
two-phase primal simplex with Bland's anti-cycling rule on one integer tableau:
the system is scaled by the lcm of its denominators, and each fraction-free
(Edmonds/Bareiss) pivot keeps every entry an integer over one common
denominator. Fractions appear only where the input is parsed and the values are
returned; there is no floating point anywhere, so feasibility and optimality
answers are exact. The callers are small systems: the group-fairness
sweep (``solve``) and support reduction of lotteries (``basic_feasible_point``).
"""
from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

from .core import InputError, SolveError, _Frozen, parse_rational

ZERO = Fraction(0)
ONE = Fraction(1)

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

# One linear row: (coefficients, right-hand side).
Row = tuple[Sequence[Fraction], Fraction]


class LpSolution(_Frozen):
    status: str
    values: tuple[Fraction, ...]
    objective_value: Fraction | None


def _pivot(tab: list[list[int]], r: int, c: int, d: int) -> int:
    """One fraction-free (Edmonds/Bareiss) pivot on (r, c); returns the new denominator.

    Every row k != r becomes (row_k * p - row_k[c] * row_r) / d, an exact integer
    division, and row r stays; the tableau is negated when p < 0 so the new
    common denominator |p| stays positive and every entry keeps its true sign.
    """
    prow = tab[r]
    p = prow[c]
    sign = -1 if p < 0 else 1
    q = p * sign
    for k, row in enumerate(tab):
        if k != r:
            f = row[c] * sign
            if f:
                tab[k] = [(a * q - f * b) // d for a, b in zip(row, prow)]
            elif q != d:
                tab[k] = [a * q // d for a in row]
    if sign < 0:
        tab[r] = [-a for a in prow]
    return q


def _simplex(tab: list[list[int]], basis: list[int], allowed: int, d: int) -> tuple[str, int]:
    """Minimize over {Ax=b, x>=0} from a basic feasible start, Bland's rule.

    ``tab`` holds one integer row [A | b] per basis position, then the
    reduced-cost row; each true entry is the integer over the common
    denominator ``d`` > 0 (the cost row also over the cost's own positive
    scale), so every sign and ratio order is read from integers. ``allowed``
    caps the entering columns (columns at or beyond it never enter). Mutates
    tab/basis in place. Returns OPTIMAL or UNBOUNDED and the final denominator.
    """
    m = len(basis)
    limit = 10_000 + 40 * (m + 2) * (len(tab[m]) + 1)
    for _ in range(limit):
        zrow = tab[m]
        enter = next((j for j in range(allowed) if zrow[j] < 0), -1)
        if enter < 0:
            return OPTIMAL, d
        leave = -1
        for r in range(m):
            a = tab[r][enter]
            if a > 0:
                if leave < 0:
                    leave = r
                    continue
                # rhs_r / a against rhs_leave / a_leave, both pivots positive
                lhs, best = tab[r][-1] * tab[leave][enter], tab[leave][-1] * a
                if lhs < best or (lhs == best and basis[r] < basis[leave]):
                    leave = r
        if leave < 0:
            return UNBOUNDED, d
        d = _pivot(tab, leave, enter, d)
        basis[leave] = enter
    raise SolveError("simplex iteration limit exceeded")


def _solve_standard(
    rows: list[list[Fraction]],
    rhs: list[Fraction],
    cost: list[Fraction],
) -> tuple[str, list[Fraction], list[int], list[list[Fraction]], list[Fraction]]:
    """Two-phase simplex on min{cost . x : rows x = rhs, x >= 0}.

    Returns (status, values, basis, kept_rows, kept_rhs). The kept system is the
    input with every row signed so its rhs is nonnegative, minus the rows that
    phase one proves redundant; ``basis`` indexes its rows.
    """
    nvars = len(cost)
    nrows = len(rows)
    rows = [[-v for v in row] if b < 0 else row for row, b in zip(rows, rhs)]
    rhs = [abs(b) for b in rhs]
    den = lcm(*(v.denominator for row in rows for v in row), *(b.denominator for b in rhs))
    # [den*A | I | den*b] over denominator 1: one unit artificial column per row
    tab = [
        [v.numerator * (den // v.denominator) for v in row]
        + [int(k == r) for k in range(nrows)]
        + [b.numerator * (den // b.denominator)]
        for r, (row, b) in enumerate(zip(rows, rhs))
    ]
    # phase one minimizes the artificials' sum; their reduced costs start at 0
    sums = [-sum(col) for col in zip(*tab)] or [0] * (nvars + nrows + 1)
    tab.append(sums[:nvars] + [0] * nrows + sums[-1:])
    basis = [nvars + r for r in range(nrows)]
    status, d = _simplex(tab, basis, nvars + nrows, 1)
    if status != OPTIMAL:  # pragma: no cover - phase one is always bounded below by 0
        raise SolveError("phase one failed")
    if any(tab[r][-1] for r in range(nrows) if basis[r] >= nvars):
        return INFEASIBLE, [], [], [], []
    tab.pop()
    # Drive artificials out of the basis; drop rows that prove redundant.
    keep: list[int] = []
    for r in range(nrows):
        if basis[r] >= nvars:
            pivot_col = next((j for j in range(nvars) if tab[r][j] != 0), -1)
            if pivot_col < 0:
                continue  # redundant row
            d = _pivot(tab, r, pivot_col, d)
            basis[r] = pivot_col
        keep.append(r)
    # phase two: the cost scaled to integers, priced out against the kept basis
    scale = lcm(*(v.denominator for v in cost))
    icost = [v.numerator * (scale // v.denominator) for v in cost]
    tab2 = [tab[r][:nvars] + tab[r][-1:] for r in keep]
    basis2 = [basis[r] for r in keep]
    zrow = [v * d for v in icost] + [0]
    for bi, row in zip(basis2, tab2):
        f = icost[bi]
        if f:
            zrow = [a - f * b for a, b in zip(zrow, row)]
    tab2.append(zrow)
    status, d = _simplex(tab2, basis2, nvars, d)
    if status != OPTIMAL:
        return status, [], [], [], []
    values = [ZERO] * nvars
    for r, bi in enumerate(basis2):
        values[bi] = Fraction(tab2[r][-1], d)
    return OPTIMAL, values, basis2, [rows[r] for r in keep], [rhs[r] for r in keep]


def _parse_rows(rows: Iterable[Row], num_vars: int) -> tuple[list[list[Fraction]], list[Fraction]]:
    dense: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    for coeffs, b in rows:
        row = [parse_rational(c) for c in coeffs]
        if len(row) != num_vars:
            raise InputError("row width does not match variable count")
        dense.append(row)
        rhs.append(parse_rational(b))
    return dense, rhs


def solve(
    objective: Sequence[Fraction], equalities: Iterable[Row] = (), at_least: Iterable[Row] = ()
) -> LpSolution:
    """max objective . x subject to A x = b (``equalities``), A x >= b (``at_least``)
    and x >= 0, exactly; status is one of optimal / infeasible / unbounded.

    >>> sol = solve([1, 2], equalities=[([1, 1], 1)], at_least=[([1, 0], "1/3")])
    >>> sol.status, [str(v) for v in sol.values], str(sol.objective_value)
    ('optimal', ['1/3', '2/3'], '5/3')
    """
    c = [parse_rational(v) for v in objective]
    nvars = len(c)
    eq_rows, eq_rhs = _parse_rows(equalities, nvars)
    ge_rows, ge_rhs = _parse_rows(at_least, nvars)
    # One surplus column per at_least row: A x - s = b with s >= 0.
    nsurplus = len(ge_rows)
    rows = [row + [ZERO] * nsurplus for row in eq_rows] + [
        row + [-ONE if k == r else ZERO for k in range(nsurplus)] for r, row in enumerate(ge_rows)
    ]
    cost = [-v for v in c] + [ZERO] * nsurplus
    status, values, _, _, _ = _solve_standard(rows, eq_rhs + ge_rhs, cost)
    if status != OPTIMAL:
        return LpSolution(status, (), None)
    x = tuple(values[:nvars])
    return LpSolution(OPTIMAL, x, sum((c[j] * x[j] for j in range(nvars)), ZERO))


def basic_feasible_point(equalities: Iterable[Row], num_vars: int) -> LpSolution:
    """A basic feasible solution of {Ax = b, x >= 0}, or infeasible status.

    The support of the returned point has at most as many nonzeros as there are
    equality rows (a vertex of the polyhedron).
    """
    return solve([ZERO] * num_vars, equalities)
