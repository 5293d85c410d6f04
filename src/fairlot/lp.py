"""Exact linear programming over rationals.

A dense two-phase primal simplex with Bland's anti-cycling rule. Every number is a
``fractions.Fraction``; there is no floating point anywhere, so feasibility and
optimality answers are exact. Intended for the small systems this library builds
(support reduction, welfare improvement searches), not for large-scale
optimization.

When ``VERIFY_OPTIMALITY`` is enabled (the test suite turns it on), every optimal
solve also reconstructs an exact dual certificate and checks strong duality, so a
wrong pivot cannot silently produce a wrong optimum.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .core import InputError, SolveError, parse_rational

ZERO = Fraction(0)
ONE = Fraction(1)

LE = "<="
EQ = "=="
GE = ">="

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

# Flipped on by the test suite: certify every optimal solve with an exact dual.
VERIFY_OPTIMALITY = False


@dataclass(frozen=True)
class Constraint:
    coeffs: tuple[Fraction, ...]
    relation: str
    rhs: Fraction

    def __post_init__(self) -> None:
        if self.relation not in (LE, EQ, GE):
            raise InputError(f"unknown relation {self.relation!r}")
        object.__setattr__(self, "coeffs", tuple(parse_rational(c) for c in self.coeffs))
        object.__setattr__(self, "rhs", parse_rational(self.rhs))


@dataclass(frozen=True)
class LinearProgram:
    """min or max of a linear objective under linear constraints and variable bounds.

    Bounds default to [0, +inf) per variable; pass ``None`` inside ``lower``/``upper``
    for an unbounded side.
    """

    objective: tuple[Fraction, ...]
    sense: str = "max"
    constraints: tuple[Constraint, ...] = ()
    lower: tuple[Fraction | None, ...] | None = None
    upper: tuple[Fraction | None, ...] | None = None

    def __post_init__(self) -> None:
        if self.sense not in ("max", "min"):
            raise InputError(f"unknown sense {self.sense!r}")
        object.__setattr__(self, "objective", tuple(parse_rational(c) for c in self.objective))
        object.__setattr__(self, "constraints", tuple(self.constraints))
        nvars = len(self.objective)
        for con in self.constraints:
            if len(con.coeffs) != nvars:
                raise InputError("constraint width does not match objective")
        if self.lower is not None and len(self.lower) != nvars:
            raise InputError("lower bounds width does not match objective")
        if self.upper is not None and len(self.upper) != nvars:
            raise InputError("upper bounds width does not match objective")


@dataclass(frozen=True)
class LpSolution:
    status: str
    values: tuple[Fraction, ...]
    objective_value: Fraction | None
    basis: tuple[int, ...]


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
) -> tuple[str, list[Fraction], list[int], list[list[Fraction]], list[Fraction], list[int]]:
    """Two-phase simplex on min{cost . x : rows x = rhs, x >= 0}.

    Returns (status, values, basis, final_rows, final_rhs, kept_row_ids); redundant
    rows discovered in phase one are dropped, and kept_row_ids maps the surviving
    rows back to the caller's numbering.
    """
    nvars = len(cost)
    nrows = len(rows)
    for r in range(nrows):
        if rhs[r] < 0:
            rows[r] = [-v for v in rows[r]]
            rhs[r] = -rhs[r]
    # One artificial per row; phase one minimizes their sum.
    work = [row + [ONE if k == r else ZERO for k in range(nrows)] for r, row in enumerate(rows)]
    art_cost = [ZERO] * nvars + [ONE] * nrows
    basis = [nvars + r for r in range(nrows)]
    status = _simplex(work, rhs, art_cost, basis, nvars + nrows)
    if status != OPTIMAL:  # pragma: no cover - phase one is always bounded below by 0
        raise SolveError("phase one failed")
    phase1_value = sum(
        (rhs[r] for r in range(len(work)) if basis[r] >= nvars), ZERO
    )
    if phase1_value != 0:
        return INFEASIBLE, [], [], [], [], []
    # Drive artificials out of the basis; drop rows that prove redundant.
    keep: list[int] = []
    for r in range(nrows):
        if basis[r] >= nvars:
            pivot_col = next((j for j in range(nvars) if work[r][j] != 0), -1)
            if pivot_col < 0:
                continue  # redundant row
            _pivot(work, rhs, r, pivot_col)
            basis[r] = pivot_col
        keep.append(r)
    rows2 = [work[r][:nvars] for r in keep]
    rhs2 = [rhs[r] for r in keep]
    basis2 = [basis[r] for r in keep]
    status = _simplex(rows2, rhs2, list(cost), basis2, nvars)
    if status != OPTIMAL:
        return status, [], [], [], [], []
    values = [ZERO] * nvars
    for r, bi in enumerate(basis2):
        values[bi] = rhs2[r]
    return OPTIMAL, values, basis2, rows2, rhs2, keep


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


def solve(lp: LinearProgram) -> LpSolution:
    """Solve an LP exactly; status is one of optimal / infeasible / unbounded."""
    nuser = len(lp.objective)
    lower = list(lp.lower) if lp.lower is not None else [ZERO] * nuser
    upper = list(lp.upper) if lp.upper is not None else [None] * nuser
    minimize = lp.sense == "min"
    user_cost = [c if minimize else -c for c in lp.objective]

    # Map user variables onto nonnegative standard variables:
    #   finite lower       x = l + y
    #   only finite upper  x = u - y
    #   free               x = y+ - y-
    col_of: list[tuple[str, int, Fraction]] = []  # (mode, std column, offset)
    extra_rows: list[tuple[dict[int, Fraction], str, Fraction]] = []
    ncols = 0
    for k in range(nuser):
        lo, hi = lower[k], upper[k]
        if lo is not None and hi is not None and hi < lo:
            return LpSolution(INFEASIBLE, (), None, ())
        if lo is not None:
            col_of.append(("shift", ncols, lo))
            if hi is not None:
                extra_rows.append(({ncols: ONE}, LE, hi - lo))
            ncols += 1
        elif hi is not None:
            col_of.append(("mirror", ncols, hi))
            ncols += 1
        else:
            col_of.append(("free", ncols, ZERO))
            ncols += 2

    def expand(coeffs: Sequence[Fraction]) -> tuple[dict[int, Fraction], Fraction]:
        """Rewrite a user-space row over std columns; returns (sparse row, rhs shift)."""
        row: dict[int, Fraction] = {}
        shift = ZERO
        for k, c in enumerate(coeffs):
            if c == 0:
                continue
            mode, col, off = col_of[k]
            if mode == "shift":
                row[col] = row.get(col, ZERO) + c
                shift += c * off
            elif mode == "mirror":
                row[col] = row.get(col, ZERO) - c
                shift += c * off
            else:
                row[col] = row.get(col, ZERO) + c
                row[col + 1] = row.get(col + 1, ZERO) - c
        return row, shift

    rows_sparse: list[tuple[dict[int, Fraction], str, Fraction]] = []
    for con in lp.constraints:
        row, shift = expand(con.coeffs)
        rows_sparse.append((row, con.relation, con.rhs - shift))
    rows_sparse.extend(extra_rows)

    cost_std = [ZERO] * ncols
    cost_shift = ZERO
    crow, cshift = expand(user_cost)
    cost_shift += cshift
    for col, c in crow.items():
        cost_std[col] = c

    nslack = sum(1 for _, rel, _ in rows_sparse if rel != EQ)
    total = ncols + nslack
    dense: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    slack_at = ncols
    for row, rel, b in rows_sparse:
        line = [ZERO] * total
        for col, c in row.items():
            line[col] = c
        if rel != EQ:
            line[slack_at] = ONE if rel == LE else -ONE
            slack_at += 1
        dense.append(line)
        rhs.append(b)
    cost_full = cost_std + [ZERO] * nslack

    status, values_std, basis, fin_rows, fin_rhs, kept = _solve_standard(dense, rhs, cost_full)
    if status != OPTIMAL:
        return LpSolution(status, (), None, ())

    if VERIFY_OPTIMALITY:
        # Rebuild the (sign-normalized, kept-rows) standard system for the certificate.
        a0: list[list[Fraction]] = []
        b0: list[Fraction] = []
        slack_at = ncols
        slack_of_row: list[int | None] = []
        for row, rel, b in rows_sparse:
            slack_of_row.append(slack_at if rel != EQ else None)
            if rel != EQ:
                slack_at += 1
        for idx in kept:
            row, rel, b = rows_sparse[idx]
            line = [ZERO] * total
            for col, c in row.items():
                line[col] = c
            if slack_of_row[idx] is not None:
                line[slack_of_row[idx]] = ONE if rel == LE else -ONE
            if b < 0:
                line = [-v for v in line]
                b = -b
            a0.append(line)
            b0.append(b)
        _certify_standard(a0, b0, cost_full, basis, values_std)

    user_values: list[Fraction] = []
    for k in range(nuser):
        mode, col, off = col_of[k]
        if mode == "shift":
            user_values.append(off + values_std[col])
        elif mode == "mirror":
            user_values.append(off - values_std[col])
        else:
            user_values.append(values_std[col] - values_std[col + 1])
    obj = sum((lp.objective[k] * user_values[k] for k in range(nuser)), ZERO)
    std_to_user = {col_of[k][1]: k for k in range(nuser)}
    user_basis = tuple(sorted({std_to_user[b] for b in basis if b in std_to_user}))
    return LpSolution(OPTIMAL, tuple(user_values), obj, user_basis)


def basic_feasible_point(
    equalities: Iterable[tuple[Sequence[Fraction], Fraction]], num_vars: int
) -> LpSolution:
    """A basic feasible solution of {Ax = b, x >= 0}, or infeasible status.

    The support of the returned point has at most as many nonzeros as there are
    equality rows (a vertex of the polyhedron).
    """
    dense: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    for coeffs, b in equalities:
        row = [parse_rational(c) for c in coeffs]
        if len(row) != num_vars:
            raise InputError("equality row width does not match variable count")
        dense.append(row)
        rhs.append(parse_rational(b))
    cost = [ZERO] * num_vars
    status, values, basis, _, _, _ = _solve_standard(dense, rhs, cost)
    if status != OPTIMAL:
        return LpSolution(INFEASIBLE, (), None, ())
    return LpSolution(OPTIMAL, tuple(values), ZERO, tuple(sorted(basis)))
