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

Each decomposition runs in two steps. The first compiles its quotas to a plan: the
(u, v) nodes of each cell and one (u, v, lower, upper, cells) arc per set of two or
more cells. The second is the one extraction engine, ``_extract``, on that plan; it
returns bare (weight, row tuples) parts, which the public functions wrap in a
``Lottery``. ``bihierarchy_decompose`` validates a ``Bihierarchy`` and compiles its
two forests; ``_bvn_plan`` compiles rows against columns straight from an integer
matrix over its denominator, building no ``ConstraintSet``. ``bvn_decompose`` runs
that plan on its input's residual, and the RPS stage engine on its integer stage
matrix. ``bvn_constraints`` stays as the description of those quotas, and gives the
same plan through ``bihierarchy_decompose``.

The two builders emit only sets of two or more cells, in the engine's node order: a
one-cell set restates its cell's [floor, ceiling], which every part keeps anyway.
"""
from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Collection, Iterable, Sequence

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
Matrix = tuple[tuple[int, ...], ...]
# A quota set compiled for the engine: (u, v, lower, upper, cells).
_Arc = tuple[int, int, int, int, Collection[Cell]]


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


def _laminar_forest(
    family: Sequence[ConstraintSet], name: str
) -> tuple[list[int | None], dict[Cell, int]]:
    seen: set[frozenset[Cell]] = set()
    for cs in family:
        if cs.cells in seen:
            raise InputError(f"{name} contains duplicate constraint sets")
        seen.add(cs.cells)
    forest = _forest([cs.cells for cs in family])
    if forest is None:
        raise InputError(f"{name} is not laminar")
    return forest


class Bihierarchy(_Frozen):
    """Two disjoint laminar families of quota constraints over the same matrix.

    ``forests`` keeps the laminar forest of ``h1`` and of ``h2`` that validation
    built (see ``_forest``); it is not a field.
    """

    h1: tuple[ConstraintSet, ...]
    h2: tuple[ConstraintSet, ...]

    def _check(self) -> None:
        h1, h2 = tuple(self.h1), tuple(self.h2)
        self._store("h1", h1)
        self._store("h2", h2)
        self._store("forests", (_laminar_forest(h1, "H1"), _laminar_forest(h2, "H2")))
        overlap = {cs.cells for cs in h1} & {cs.cells for cs in h2}
        if overlap:
            raise InputError("a constraint set appears in both hierarchies")

    def all_sets(self) -> tuple[ConstraintSet, ...]:
        return self.h1 + self.h2


def _floor_ceil(cells: Iterable[Cell], total: Fraction) -> ConstraintSet:
    return ConstraintSet(frozenset(cells), math.floor(total), math.ceil(total))


def bvn_constraints(x: FractionalAllocation) -> Bihierarchy:
    """Quotas for generalized Birkhoff-von Neumann: every part keeps each row sum
    and column sum within the floor/ceiling of its value in ``x``. H1 is the rows,
    H2 the columns, each in index order; a row or column of one cell is not built."""
    n, m = x.n, x.m
    rows = [sum(row, ZERO) for row in x.matrix] if m > 1 else []
    cols = x.column_sums if n > 1 else ()
    h1 = [_floor_ceil(((i, j) for j in range(m)), s) for i, s in enumerate(rows)]
    h2 = [_floor_ceil(((i, j) for i in range(n)), s) for j, s in enumerate(cols)]
    return Bihierarchy(h1, h2)


def prefix_constraints(
    instance: Instance,
    x: FractionalAllocation,
    prefs: Sequence[Sequence[int]] | None = None,
) -> Bihierarchy:
    """Ordinal prefix quotas: for each agent, every prefix of her preference order
    keeps its cumulative share within floor/ceiling; every column is fully assigned.
    H1 is the prefixes, shortest first and agents in index order within a length,
    and H2 the columns; one-item prefixes and one-cell columns are not built.

    Rounding a complete fractional allocation under these quotas preserves each
    agent's utility up to one item in either direction.
    """
    if x.n != instance.n or x.m != instance.m:
        raise InputError("allocation shape does not match instance")
    if not x.complete:
        raise InputError("prefix constraints need a complete allocation")
    order = prefs if prefs is not None else instance.prefs
    n, m = x.n, x.m
    runs = [list(itertools.accumulate(x.matrix[i][j] for j in order[i])) for i in range(n)]
    h1 = [
        _floor_ceil(((i, j) for j in order[i][: k + 1]), runs[i][k])
        for k in range(1, m)
        for i in range(n)
    ]
    cols = [frozenset((i, j) for i in range(n)) for j in range(m)] if n > 1 else []
    return Bihierarchy(h1, [ConstraintSet(cells, 1, 1) for cells in cols])


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
        """Push a maximum flow from ``s`` to ``t`` along shortest augmenting paths.

        Each breadth-first search stops at the first node it discovers with a
        residual arc into ``t`` and augments along that node's first such arc in
        its adjacency order. The queue is FIFO, so nodes are processed in the order
        they are discovered, and this is the node whose scan would label ``t`` in a
        search run to the end: every path, residual capacity, the total and the
        final ``reach`` are those of the full search. A search that finds no path
        runs to completion.
        """
        adj, to, cap = self.adj, self.to, self.cap
        # The arcs into t of each node, in that node's adjacency order: arc e and
        # its partner e ^ 1 enter their two lists in the same add call.
        into_t: list[list[int]] = [[] for _ in adj]
        for eid in adj[t]:
            into_t[to[eid]].append(eid ^ 1)
        total = 0
        while True:
            parent_edge = [-1] * len(adj)
            parent_edge[s] = -2
            last = -1
            for e in into_t[s]:
                if cap[e] > 0:
                    last = e
                    break
            queue = [s]
            qi = 0
            while last < 0 and qi < len(queue):
                u = queue[qi]
                qi += 1
                for eid in adj[u]:
                    if cap[eid] > 0:
                        v = to[eid]
                        if parent_edge[v] == -1:
                            parent_edge[v] = eid
                            queue.append(v)
                            for e in into_t[v]:
                                if cap[e] > 0:
                                    last = e
                                    break
                            if last >= 0:
                                break
            if last < 0:
                self.reach = parent_edge
                return total
            parent_edge[t] = last
            bottleneck = cap[last]
            v = t
            while v != s:
                eid = parent_edge[v]
                bottleneck = min(bottleneck, cap[eid])
                v = to[eid ^ 1]
            v = t
            while v != s:
                eid = parent_edge[v]
                cap[eid] -= bottleneck
                cap[eid ^ 1] += bottleneck
                v = to[eid ^ 1]
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
    return [lo if eid is None else lo + flow.cap[eid ^ 1] for (_, _, lo, _), eid in zip(arcs, ids)]


# ---------------------------------------------------------------------------
# Plans, and the extraction engine that runs on them.
# ---------------------------------------------------------------------------


def _residual(x: FractionalAllocation) -> tuple[int, list[list[int]]]:
    """``x`` as integers over one common denominator: ``(den, r)`` with ``r = x * den``."""
    den = math.lcm(*(v.denominator for row in x.matrix for v in row))
    return den, [[v.numerator * (den // v.denominator) for v in row] for row in x.matrix]


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
    den, r = _residual(x)
    for cs in hierarchy.all_sets():
        total = sum(r[i][j] for i, j in cs.cells)
        if total < cs.lower * den or total > cs.upper * den:
            raise InputError(
                f"allocation violates quota [{cs.lower}, {cs.upper}] on {sorted(cs.cells)}"
            )

    # Once the quotas hold, a singleton set only restates the [0, 1] bounds of its
    # cell; larger sets become arcs of two forests whose roots are nodes 0 and 1.
    # A singleton is a leaf of its family's forest, so its cell belongs to the
    # singleton's parent, or to the root when it has none.
    inner: list[dict[Cell, int]] = []
    sets: list[_Arc] = []
    for side, fam, (parent, owner) in zip((0, 1), (hierarchy.h1, hierarchy.h2), hierarchy.forests):
        big = [k for k, cs in enumerate(fam) if len(cs.cells) > 1]
        node: dict[int | None, int] = {k: 2 + len(sets) + b for b, k in enumerate(big)}
        node[None] = side
        inner.append({cell: node[k if k in node else parent[k]] for cell, k in owner.items()})
        for k in big:
            up, down, cs = node[parent[k]], node[k], fam[k]
            u, v = (up, down) if side == 0 else (down, up)
            sets.append((u, v, cs.lower, cs.upper, cs.cells))
    ends = [(inner[0].get((i, j), 0), inner[1].get((i, j), 1)) for i in range(n) for j in range(m)]
    return Lottery(tuple((w, IntegralAllocation(part)) for w, part in _extract(den, r, m, ends, sets)))


def bvn_decompose(x: FractionalAllocation) -> Lottery:
    """Decompose a doubly substochastic matrix with row/column floor-ceiling quotas.

    The quotas are those of ``bvn_constraints(x)``, compiled by ``_bvn_plan``
    straight from the integer residual.

    >>> from fractions import Fraction
    >>> h = Fraction(1, 2)
    >>> parts = bvn_decompose(FractionalAllocation(((h, h, 0, 0), (h, 0, h, 0))))
    >>> [(str(w), a.bundles) for w, a in parts.support]
    [('1/2', ((1,), (0,))), ('1/2', ((0,), (2,)))]
    """
    den, r = _residual(x)
    parts = _extract(den, r, x.m, *_bvn_plan(den, r, x.m))
    return Lottery(tuple((w, IntegralAllocation(part)) for w, part in parts))


def _bvn_plan(den: int, r: list[list[int]], m: int) -> tuple[list[tuple[int, int]], list[_Arc]]:
    """The plan of ``bvn_constraints`` for the n x m matrix ``r / den``: row i is
    node 2 + i when m > 1, and column j follows the rows when n > 1, the node
    order ``bihierarchy_decompose`` gives them. Quotas are the floor and ceiling
    of the integer row and column sums over ``den``."""
    n = len(r)
    sets: list[_Arc] = []
    if m > 1:  # a one-cell row is not built, and no row of one cell can exceed 1
        for i, row in enumerate(r):
            s = sum(row)
            if s > den:
                raise InputError(f"row {i} sums above 1; not doubly substochastic")
            sets.append((0, 2 + i, s // den, -(-s // den), tuple((i, j) for j in range(m))))
    first = 2 + len(sets)
    if n > 1:
        for j, col in enumerate(zip(*r)):
            s = sum(col)
            sets.append((first + j, 1, s // den, -(-s // den), tuple((i, j) for i in range(n))))
    ends = [(2 + i if m > 1 else 0, first + j if n > 1 else 1) for i in range(n) for j in range(m)]
    return ends, sets


def _extract(
    den: int, r: list[list[int]], m: int, ends: list[tuple[int, int]], sets: list[_Arc]
) -> list[tuple[Fraction, Matrix]]:
    """The extraction engine on a compiled plan: ``ends`` holds the (u, v) nodes of
    each cell in row-major order, ``sets`` the (u, v, lower, upper, cells) arc of
    each set of two or more cells, whose own node is ``2 + `` its index.

    ``r / den`` is the part of x not yet assigned and ``c / den`` its weight, so
    the normalised residual is ``r / c``; ``r`` is consumed. Returns the parts as
    (weight, 0/1 row tuples) in extraction order. They are distinct: each
    extraction makes tight a constraint that the part it removed violates, and
    every later part keeps it.
    """
    n = len(r)
    c = den
    all_cells = [(i, j) for i in range(n) for j in range(m)]
    support: list[tuple[Fraction, Matrix]] = []
    # Parts share equal row tuples: a dense lottery has far fewer distinct rows
    # than parts, so it holds about support * n pointers, not support * n * m ints.
    rows: dict[tuple[int, ...], tuple[int, ...]] = {}
    for _ in range(n * m + len(sets) + 2):
        fractional = [(i, j) for i, j in all_cells if r[i][j] % c]
        if not fractional:
            part = tuple(tuple(v // c for v in row) for row in r)
            support.append((Fraction(c, den), part))
            break

        # Minimal-face bounds: anything tight at the current matrix stays tight.
        arcs: list[tuple[int, int, int, int]] = []
        for (i, j), (u, v) in zip(all_cells, ends):
            q = r[i][j]
            arcs.append((u, v, 0, 1) if q % c else (u, v, q // c, q // c))
        sigmas = []
        for u, v, lo, hi, cells in sets:
            sigma = sum(r[i][j] for i, j in cells)
            sigmas.append(sigma)
            tight = sigma == lo * c or sigma == hi * c
            arcs.append((u, v, sigma // c, sigma // c) if tight else (u, v, lo, hi))
        arcs.append((1, 0, 0, m + 1))

        flows = _feasible_circulation(2 + len(sets), arcs)
        if flows is None:
            raise InputError("constraint families do not form a decomposable bihierarchy")
        part = [flows[i * m : (i + 1) * m] for i in range(n)]

        # Largest step s = num / dnm (weight s / den) that keeps (r - s*part) / (c - s)
        # inside all quotas, compared by cross-multiplication. Fractional cells have
        # bounds [0, 1] and part values 0 or 1, so only a set's quota gap can make s
        # non-integral; then r, c and den are rescaled by its reduced denominator.
        num = min(r[i][j] if part[i][j] else c - r[i][j] for i, j in fractional)
        dnm = 1
        for (_, _, lo, hi, cells), sigma in zip(sets, sigmas):
            if sigma == lo * c or sigma == hi * c:
                continue
            a = sum(part[i][j] for i, j in cells)
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
        support.append((Fraction(step, den), part_rows))
        for i, j in all_cells:
            if part[i][j]:
                r[i][j] -= step
        c -= step
    else:  # pragma: no cover - the dimension argument bounds the loop
        raise InputError("decomposition did not terminate")
    return support


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

