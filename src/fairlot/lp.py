"""Exact linear programming over rationals, in one form.

``solve`` maximises c·x subject to A x = b, A x >= b and x >= 0;
``basic_feasible_point`` returns a vertex of {A x = b, x >= 0}. Both run a dense
two-phase primal simplex with Bland's anti-cycling rule. Every number is a
``fractions.Fraction``; there is no floating point anywhere, so feasibility and
optimality answers are exact. The callers are small systems: the group-fairness
sweep and the fractional Pareto optimality check (``solve``), and support
reduction of lotteries (``basic_feasible_point``).

When ``VERIFY_OPTIMALITY`` is enabled (the test suite turns it on), every optimal
``solve`` also reconstructs an exact dual certificate and checks strong duality,
so a wrong pivot cannot silently produce a wrong optimum.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .core import InputError, SolveError, _Frozen, parse_rational

ZERO = Fraction(0)
ONE = Fraction(1)

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

# Flipped on by the test suite: certify every optimal solve with an exact dual.
VERIFY_OPTIMALITY = False

# One linear row: (coefficients, right-hand side).
Row = tuple[Sequence[Fraction], Fraction]


class LpSolution(_Frozen):
    status: str
    values: tuple[Fraction, ...]
    objective_value: Fraction | None


def _pivot(rows: list[list[Fraction]], rhs: list[Fraction], r: int, c: int) -> None:
    piv = rows[r][c]
    if piv != 1:
        inv = ONE / piv
        rows[r] = [v * inv for v in rows[r]]
        rhs[r] *= inv
    prow = rows[r]
    for k, row in enumerate(rows):
        if k != r and row[c] != 0:
            f = row[c]
            rows[k] = [a - f * b for a, b in zip(row, prow)]
            rhs[k] -= f * rhs[r]


def _simplex(
    rows: list[list[Fraction]],
    rhs: list[Fraction],
    cost: list[Fraction],
    basis: list[int],
    allowed: int,
) -> str:
    """Minimize cost over {Ax=b, x>=0} from a basic feasible start, Bland's rule.

    ``allowed`` caps the entering columns (columns at or beyond it never enter).
    Mutates rows/rhs/basis in place. Returns OPTIMAL or UNBOUNDED.
    """
    ncols = len(cost)
    # Reduced costs for the starting basis.
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
        best: Fraction | None = None
        for r in range(len(rows)):
            a = rows[r][enter]
            if a > 0:
                ratio = rhs[r] / a
                if best is None or ratio < best or (ratio == best and basis[r] < basis[leave]):
                    best = ratio
                    leave = r
        if leave < 0:
            return UNBOUNDED
        _pivot(rows, rhs, leave, enter)
        f = zrow[enter]
        prow = rows[leave]
        for j in range(ncols):
            if prow[j] != 0:
                zrow[j] -= f * prow[j]
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
    # One artificial per row; phase one minimizes their sum.
    work = [row + [ONE if k == r else ZERO for k in range(nrows)] for r, row in enumerate(rows)]
    work_rhs = list(rhs)
    art_cost = [ZERO] * nvars + [ONE] * nrows
    basis = [nvars + r for r in range(nrows)]
    status = _simplex(work, work_rhs, art_cost, basis, nvars + nrows)
    if status != OPTIMAL:  # pragma: no cover - phase one is always bounded below by 0
        raise SolveError("phase one failed")
    phase1_value = sum(
        (work_rhs[r] for r in range(len(work)) if basis[r] >= nvars), ZERO
    )
    if phase1_value != 0:
        return INFEASIBLE, [], [], [], []
    # Drive artificials out of the basis; drop rows that prove redundant.
    keep: list[int] = []
    for r in range(nrows):
        if basis[r] >= nvars:
            pivot_col = next((j for j in range(nvars) if work[r][j] != 0), -1)
            if pivot_col < 0:
                continue  # redundant row
            _pivot(work, work_rhs, r, pivot_col)
            basis[r] = pivot_col
        keep.append(r)
    rows2 = [work[r][:nvars] for r in keep]
    rhs2 = [work_rhs[r] for r in keep]
    basis2 = [basis[r] for r in keep]
    status = _simplex(rows2, rhs2, list(cost), basis2, nvars)
    if status != OPTIMAL:
        return status, [], [], [], []
    values = [ZERO] * nvars
    for r, bi in enumerate(basis2):
        values[bi] = rhs2[r]
    return OPTIMAL, values, basis2, [rows[r] for r in keep], [rhs[r] for r in keep]


def _certify_standard(
    a0: list[list[Fraction]],
    b0: list[Fraction],
    cost: list[Fraction],
    basis: Sequence[int],
    values: Sequence[Fraction],
) -> None:
    """Exact strong-duality check for min{c.x : Ax=b, x>=0}; raises on failure."""
    nrows = len(a0)
    # Solve y^T A_B = c_B by Gaussian elimination.
    system = [[a0[r][bi] for r in range(nrows)] + [cost[bi]] for bi in basis]
    y = _gauss_solve(system, nrows)
    for j in range(len(cost)):
        reduced = cost[j] - sum((y[r] * a0[r][j] for r in range(nrows)), ZERO)
        if reduced < 0:
            raise SolveError(f"dual certificate failed: negative reduced cost at column {j}")
    primal = sum((cost[j] * values[j] for j in range(len(cost))), ZERO)
    dual = sum((y[r] * b0[r] for r in range(nrows)), ZERO)
    if primal != dual:
        raise SolveError("dual certificate failed: objective mismatch")
    for r in range(nrows):
        lhs = sum((a0[r][j] * values[j] for j in range(len(cost))), ZERO)
        if lhs != b0[r]:
            raise SolveError("dual certificate failed: primal infeasibility")


def _gauss_solve(system: list[list[Fraction]], size: int) -> list[Fraction]:
    """Solve a square rational system given as rows of [coeffs | rhs]."""
    for col in range(size):
        piv = next((r for r in range(col, size) if system[r][col] != 0), -1)
        if piv < 0:
            raise SolveError("singular basis while certifying")
        system[col], system[piv] = system[piv], system[col]
        inv = ONE / system[col][col]
        system[col] = [v * inv for v in system[col]]
        for r in range(size):
            if r != col and system[r][col] != 0:
                f = system[r][col]
                system[r] = [a - f * b for a, b in zip(system[r], system[col])]
    return [system[r][size] for r in range(size)]


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
    status, values, basis, kept_rows, kept_rhs = _solve_standard(rows, eq_rhs + ge_rhs, cost)
    if status != OPTIMAL:
        return LpSolution(status, (), None)
    if VERIFY_OPTIMALITY:
        _certify_standard(kept_rows, kept_rhs, cost, basis, values)
    x = tuple(values[:nvars])
    return LpSolution(OPTIMAL, x, sum((c[j] * x[j] for j in range(nvars)), ZERO))


def basic_feasible_point(equalities: Iterable[Row], num_vars: int) -> LpSolution:
    """A basic feasible solution of {Ax = b, x >= 0}, or infeasible status.

    The support of the returned point has at most as many nonzeros as there are
    equality rows (a vertex of the polyhedron).
    """
    dense, rhs = _parse_rows(equalities, num_vars)
    status, values, _, _, _ = _solve_standard(dense, rhs, [ZERO] * num_vars)
    if status != OPTIMAL:
        return LpSolution(INFEASIBLE, (), None)
    return LpSolution(OPTIMAL, tuple(values), ZERO)
