"""Decomposing fractional allocations into lotteries over integral allocations.

The constraint language is a *bihierarchy*: two laminar families of cell sets with
integer lower/upper quotas. Every feasible fractional matrix is a convex combination
of integral matrices that each satisfy all quotas; this module computes such a
combination constructively.

The engine repeatedly peels off an integral vertex of the quota polytope restricted
to the minimal face containing the current matrix (tight constraints stay tight),
shifting as much weight onto it as feasibility allows. Vertices are found by an
integer circulation over the two laminar forests. The residual is kept as integers
over one common denominator (rescaled when a step needs a finer one), so the whole
loop is integer arithmetic; Fractions appear only in the output weights. Each
extraction makes at least one new constraint tight, which bounds the support by the
number of fractional cells plus one and guarantees termination.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .core import (
    FractionalAllocation,
    Instance,
    IntegralAllocation,
    InputError,
    Lottery,
    ONE,
    SolveError,
    ZERO,
    _Frozen,
)

Cell = tuple[int, int]


class ConstraintSet(_Frozen):
    """A set of matrix cells whose total must stay within [lower, upper] in every part."""

    cells: frozenset[Cell]
    lower: int
    upper: int

    def _check(self) -> None:
        cells = frozenset(self.cells)
        if cells is not self.cells:  # the decomposition already passes frozensets
            self._store("cells", cells)
        lower, upper = self.lower, self.upper
        if not cells:
            raise InputError("constraint set must cover at least one cell")
        if not isinstance(lower, int) or not isinstance(upper, int):
            raise InputError("quotas must be integers")
        if lower > upper:
            raise InputError(f"quota lower bound {lower} exceeds upper bound {upper}")


def _forest(
    sets: Sequence[frozenset[Cell]],
) -> tuple[list[int | None], dict[Cell, int]] | None:
    """The laminar forest of distinct ``sets``: each set's parent (its smallest strict
    superset, else None) and each cell's innermost set, as indices into ``sets``.

    Sets are claimed largest first, so a set is laminar with every larger one iff
    all its cells have the same innermost earlier set (or none). Returns None when
    the family is not laminar.
    """
    parent: list[int | None] = [None] * len(sets)
    owner: dict[Cell, int] = {}
    for k in sorted(range(len(sets)), key=lambda k: -len(sets[k])):
        holders = {owner.get(cell) for cell in sets[k]}
        if len(holders) > 1:
            return None
        (parent[k],) = holders
        for cell in sets[k]:
            owner[cell] = k
    return parent, owner


def _check_laminar(family: Sequence[ConstraintSet], name: str) -> None:
    seen: set[frozenset[Cell]] = set()
    for cs in family:
        if cs.cells in seen:
            raise InputError(f"{name} contains duplicate constraint sets")
        seen.add(cs.cells)
    if _forest([cs.cells for cs in family]) is None:
        raise InputError(f"{name} is not laminar")


class Bihierarchy(_Frozen):
    """Two disjoint laminar families of quota constraints over the same matrix."""

    h1: tuple[ConstraintSet, ...]
    h2: tuple[ConstraintSet, ...]

    def _check(self) -> None:
        h1, h2 = tuple(self.h1), tuple(self.h2)
        self._store("h1", h1)
        self._store("h2", h2)
        _check_laminar(h1, "H1")
        _check_laminar(h2, "H2")
        overlap = {cs.cells for cs in h1} & {cs.cells for cs in h2}
        if overlap:
            raise InputError("a constraint set appears in both hierarchies")

    def all_sets(self) -> tuple[ConstraintSet, ...]:
        return self.h1 + self.h2


def _merge_candidates(
    primary: list[tuple[frozenset[Cell], int, int]],
    secondary: list[tuple[frozenset[Cell], int, int]],
) -> tuple[list[ConstraintSet], list[ConstraintSet]]:
    """Build two disjoint families, folding duplicate sets by intersecting quotas."""
    acc1: dict[frozenset[Cell], tuple[int, int]] = {}
    for cells, lo, hi in primary:
        cur = acc1.get(cells)
        acc1[cells] = (max(lo, cur[0]), min(hi, cur[1])) if cur else (lo, hi)
    acc2: dict[frozenset[Cell], tuple[int, int]] = {}
    for cells, lo, hi in secondary:
        if cells in acc1:
            lo0, hi0 = acc1[cells]
            acc1[cells] = (max(lo, lo0), min(hi, hi0))
            continue
        cur = acc2.get(cells)
        acc2[cells] = (max(lo, cur[0]), min(hi, cur[1])) if cur else (lo, hi)
    for acc in (acc1, acc2):
        for cells, (lo, hi) in acc.items():
            if lo > hi:
                raise InputError("conflicting quotas for one constraint set")
    key = lambda kv: (len(kv[0]), sorted(kv[0]))
    fam1 = [ConstraintSet(c, lo, hi) for c, (lo, hi) in sorted(acc1.items(), key=key)]
    fam2 = [ConstraintSet(c, lo, hi) for c, (lo, hi) in sorted(acc2.items(), key=key)]
    return fam1, fam2


def bvn_constraints(x: FractionalAllocation) -> Bihierarchy:
    """Quotas for generalized Birkhoff-von Neumann: every part keeps each row sum,
    column sum and cell within the floor/ceiling of its value in ``x``."""
    n, m = x.n, x.m
    h2: list[tuple[frozenset[Cell], int, int]] = []
    for j, col_sum in enumerate(x.column_sums):
        h2.append((frozenset((i, j) for i in range(n)), math.floor(col_sum), math.ceil(col_sum)))
    h1: list[tuple[frozenset[Cell], int, int]] = []
    for i in range(n):
        row_sum = sum(x.matrix[i], ZERO)
        h1.append((frozenset((i, j) for j in range(m)), math.floor(row_sum), math.ceil(row_sum)))
        for j in range(m):
            h1.append((frozenset([(i, j)]), 0, 1))
    fam1, fam2 = _merge_candidates(h1, h2)
    return Bihierarchy(tuple(fam1), tuple(fam2))


def prefix_constraints(
    instance: Instance,
    x: FractionalAllocation,
    prefs: Sequence[Sequence[int]] | None = None,
) -> Bihierarchy:
    """Ordinal prefix quotas: for each agent, every prefix of her preference order
    keeps its cumulative share within floor/ceiling; every column is fully assigned.

    Rounding a complete fractional allocation under these quotas preserves each
    agent's utility up to one item in either direction.
    """
    if x.n != instance.n or x.m != instance.m:
        raise InputError("allocation shape does not match instance")
    if not x.complete:
        raise InputError("prefix constraints need a complete allocation")
    order = prefs if prefs is not None else instance.prefs
    n, m = x.n, x.m
    h1: list[tuple[frozenset[Cell], int, int]] = []
    for i in range(n):
        run = ZERO
        prefix: list[Cell] = []
        for j in order[i]:
            run += x.matrix[i][j]
            prefix.append((i, j))
            h1.append((frozenset(prefix), math.floor(run), math.ceil(run)))
        for j in range(m):
            h1.append((frozenset([(i, j)]), 0, 1))
    h2 = [(frozenset((i, j) for i in range(n)), 1, 1) for j in range(m)]
    fam1, fam2 = _merge_candidates(h1, h2)
    return Bihierarchy(tuple(fam1), tuple(fam2))


# ---------------------------------------------------------------------------
# Integer max-flow (Edmonds-Karp), used to find integral vertices.
# ---------------------------------------------------------------------------


class _MaxFlow:
    def __init__(self, nodes: int) -> None:
        self.adj: list[list[int]] = [[] for _ in range(nodes)]
        self.to: list[int] = []
        self.cap: list[int] = []
        self.reach: list[int] = []  # after solve: -1 marks the nodes the source cannot reach

    def add(self, u: int, v: int, cap: int) -> int:
        eid = len(self.to)
        self.adj[u].append(eid)
        self.to.append(v)
        self.cap.append(cap)
        self.adj[v].append(eid + 1)
        self.to.append(u)
        self.cap.append(0)
        return eid

    def solve(self, s: int, t: int) -> int:
        total = 0
        while True:
            parent_edge = [-1] * len(self.adj)
            parent_edge[s] = -2
            queue = [s]
            qi = 0
            while qi < len(queue) and parent_edge[t] == -1:
                u = queue[qi]
                qi += 1
                for eid in self.adj[u]:
                    v = self.to[eid]
                    if self.cap[eid] > 0 and parent_edge[v] == -1:
                        parent_edge[v] = eid
                        queue.append(v)
            if parent_edge[t] == -1:
                self.reach = parent_edge
                return total
            bottleneck = None
            v = t
            while v != s:
                eid = parent_edge[v]
                bottleneck = self.cap[eid] if bottleneck is None else min(bottleneck, self.cap[eid])
                v = self.to[eid ^ 1]
            v = t
            while v != s:
                eid = parent_edge[v]
                self.cap[eid] -= bottleneck
                self.cap[eid ^ 1] += bottleneck
                v = self.to[eid ^ 1]
            total += bottleneck


def _feasible_circulation(
    nodes: int, arcs: list[tuple[int, int, int, int]]
) -> list[int] | None:
    """Integer flows for arcs (u, v, lower, upper) with conservation everywhere.

    A fixed arc (lower == upper) carries no slack flow and gets no max-flow edge:
    Edmonds-Karp never traverses a zero-capacity edge, so no augmenting path changes.
    """
    excess = [0] * nodes
    flow = _MaxFlow(nodes + 2)
    src, snk = nodes, nodes + 1
    ids: list[int | None] = []
    for u, v, lo, hi in arcs:
        if lo > hi:
            return None
        ids.append(flow.add(u, v, hi - lo) if hi > lo else None)
        excess[v] += lo
        excess[u] -= lo
    need = 0
    for w in range(nodes):
        if excess[w] > 0:
            flow.add(src, w, excess[w])
            need += excess[w]
        elif excess[w] < 0:
            flow.add(w, snk, -excess[w])
    if flow.solve(src, snk) != need:
        return None
    return [
        arc[2] if eid is None else arc[2] + flow.cap[eid ^ 1] for arc, eid in zip(arcs, ids)
    ]


# ---------------------------------------------------------------------------
# The extraction engine.
# ---------------------------------------------------------------------------


def bihierarchy_decompose(x: FractionalAllocation, hierarchy: Bihierarchy) -> Lottery:
    """Express ``x`` as an exact lottery over integral matrices obeying every quota.

    Requires ``x`` itself to satisfy all quotas. The support never exceeds the
    number of fractional cells of ``x`` plus one, and the lottery's marginal equals
    ``x`` exactly.
    """
    n, m = x.n, x.m
    for cs in hierarchy.all_sets():
        for i, j in cs.cells:
            if not (0 <= i < n and 0 <= j < m):
                raise InputError(f"constraint cell {(i, j)} outside the matrix")
    # Integer residual over one common denominator: r / den is the part of x not
    # yet assigned and c / den its weight, so the normalised residual is r / c.
    den = math.lcm(*(v.denominator for row in x.matrix for v in row))
    r = [[v.numerator * (den // v.denominator) for v in row] for row in x.matrix]
    c = den
    for cs in hierarchy.all_sets():
        total = sum(r[i][j] for i, j in cs.cells)
        if total < cs.lower * c or total > cs.upper * c:
            raise InputError(
                f"allocation violates quota [{cs.lower}, {cs.upper}] on {sorted(cs.cells)}"
            )

    # Once the quotas hold, a singleton set only restates the [0, 1] bounds of its
    # cell; larger sets become arcs of two forests whose roots are nodes 0 and 1.
    inner: list[dict[Cell, int]] = []
    sets: list[tuple[int, int, ConstraintSet]] = []
    node_count = 2
    for side, fam in ((0, hierarchy.h1), (1, hierarchy.h2)):
        big = [cs for cs in fam if len(cs.cells) > 1]
        parent, owner = _forest([cs.cells for cs in big])  # type: ignore[misc]
        inner.append({cell: node_count + k for cell, k in owner.items()})
        for k, cs in enumerate(big):
            up = side if parent[k] is None else node_count + parent[k]
            sets.append((up, node_count + k, cs) if side == 0 else (node_count + k, up, cs))
        node_count += len(big)
    all_cells = [(i, j) for i in range(n) for j in range(m)]
    cell_ends = [(inner[0].get(cell, 0), inner[1].get(cell, 1)) for cell in all_cells]

    support: list[tuple[Fraction, IntegralAllocation]] = []
    # Parts share equal row tuples: a dense lottery has far fewer distinct rows
    # than parts, so it holds about support * n pointers, not support * n * m ints.
    rows: dict[tuple[int, ...], tuple[int, ...]] = {}
    for _ in range(n * m + len(sets) + 2):
        fractional = [(i, j) for i, j in all_cells if r[i][j] % c]
        if not fractional:
            part = tuple(tuple(v // c for v in row) for row in r)
            support.append((Fraction(c, den), IntegralAllocation(part)))
            break

        # Minimal-face bounds: anything tight at the current matrix stays tight.
        arcs: list[tuple[int, int, int, int]] = []
        for (i, j), (u, v) in zip(all_cells, cell_ends):
            q = r[i][j]
            arcs.append((u, v, 0, 1) if q % c else (u, v, q // c, q // c))
        sigmas = []
        for u, v, cs in sets:
            sigma = sum(r[i][j] for i, j in cs.cells)
            sigmas.append(sigma)
            if sigma == cs.lower * c or sigma == cs.upper * c:
                arcs.append((u, v, sigma // c, sigma // c))
            else:
                arcs.append((u, v, cs.lower, cs.upper))
        arcs.append((1, 0, 0, m + 1))

        flows = _feasible_circulation(node_count, arcs)
        if flows is None:
            raise InputError("constraint families do not form a decomposable bihierarchy")
        part = [flows[i * m : (i + 1) * m] for i in range(n)]

        # Largest step s = num / dnm (weight s / den) that keeps (r - s*part) / (c - s)
        # inside all quotas, compared by cross-multiplication. Fractional cells have
        # bounds [0, 1] and part values 0 or 1, so only a set's quota gap can make s
        # non-integral; then r, c and den are rescaled by its reduced denominator.
        num = min(r[i][j] if part[i][j] else c - r[i][j] for i, j in fractional)
        dnm = 1
        for (_, _, cs), sigma in zip(sets, sigmas):
            lo, hi = cs.lower, cs.upper
            if sigma == lo * c or sigma == hi * c:
                continue
            a = sum(part[i][j] for i, j in cs.cells)
            if a > lo and (sigma - lo * c) * dnm < num * (a - lo):
                num, dnm = sigma - lo * c, a - lo
            if a < hi and (hi * c - sigma) * dnm < num * (hi - a):
                num, dnm = hi * c - sigma, hi - a
        if num <= 0 or num >= c * dnm:  # pragma: no cover - guards the face logic
            raise InputError("decomposition failed to make progress")
        g = math.gcd(num, dnm)
        step, scale = num // g, dnm // g
        if scale > 1:
            r = [[v * scale for v in row] for row in r]
            c *= scale
            den *= scale

        part_rows = tuple(rows.setdefault(row, row) for row in map(tuple, part))
        support.append((Fraction(step, den), IntegralAllocation(part_rows)))
        for i, j in all_cells:
            if part[i][j]:
                r[i][j] -= step
        c -= step
    else:  # pragma: no cover - the dimension argument bounds the loop
        raise InputError("decomposition did not terminate")
    return Lottery(tuple(support))


def bvn_decompose(x: FractionalAllocation) -> Lottery:
    """Decompose a doubly substochastic matrix with row/column floor-ceiling quotas.

    >>> from fractions import Fraction
    >>> h = Fraction(1, 2)
    >>> parts = bvn_decompose(FractionalAllocation(((h, h, 0, 0), (h, 0, h, 0))))
    >>> [(str(w), a.bundles) for w, a in parts.support]
    [('1/2', ((1,), (0,))), ('1/2', ((0,), (2,)))]
    """
    for i in range(x.n):
        if sum(x.matrix[i], ZERO) > 1:
            raise InputError(f"row {i} sums above 1; not doubly substochastic")
    return bihierarchy_decompose(x, bvn_constraints(x))


def caratheodory_weights(
    columns: Sequence[Sequence[Fraction]], weights: Sequence[Fraction]
) -> tuple[Fraction, ...]:
    """Convex weights over ``columns`` with the same mix ``sum_t weights[t] * columns[t]``
    and at most ``len(columns[0]) + 1`` nonzeros: a vertex of that system."""
    from . import lp  # imported here, its one use, so a command that trims no support never loads it

    k = len(columns)
    rows = [
        (coeffs, sum((w * c for w, c in zip(weights, coeffs)), ZERO))
        for coeffs in zip(*columns)
    ]
    rows.append(([ONE] * k, ONE))
    sol = lp.basic_feasible_point(rows, k)
    if sol.status != lp.OPTIMAL:  # pragma: no cover - the current weights are feasible
        raise SolveError("support reduction system unexpectedly infeasible")
    return sol.values


def reduce_support(lottery: Lottery) -> Lottery:
    """Shrink a lottery's support to at most n*m + 1 allocations, keeping the
    marginal exactly equal, using only allocations already in the support."""
    if len(lottery.support) <= 1:
        return lottery
    columns = [[v for row in alloc.matrix for v in row] for _, alloc in lottery.support]
    weights = caratheodory_weights(columns, [w for w, _ in lottery.support])
    return Lottery(
        tuple((w, alloc) for w, (_, alloc) in zip(weights, lottery.support) if w > 0)
    )
