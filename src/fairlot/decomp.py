"""Decomposing fractional allocations into lotteries over integral allocations.

The constraint language is a *bihierarchy*: two laminar families of cell sets with
integer lower/upper quotas. Every feasible fractional matrix is a convex combination
of integral matrices that each satisfy all quotas; this module computes such a
combination constructively.

The engine repeatedly peels off an integral vertex of the quota polytope restricted
to the minimal face containing the current matrix (tight constraints stay tight),
shifting as much weight onto it as feasibility allows. Vertices are found by an
integer circulation over the two laminar forests, so the hot loop is pure integer
arithmetic; exact rationals appear only in the weight updates. Each extraction
makes at least one new constraint tight, which bounds the support by the number of
fractional cells plus one and guarantees termination.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .core import (
    FractionalAllocation,
    Instance,
    IntegralAllocation,
    InputError,
    Lottery,
    ONE,
    SolveError,
    ZERO,
)
from . import lp

Cell = tuple[int, int]


@dataclass(frozen=True)
class ConstraintSet:
    """A set of matrix cells whose total must stay within [lower, upper] in every part."""

    cells: frozenset[Cell]
    lower: int
    upper: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "cells", frozenset(self.cells))
        if not self.cells:
            raise InputError("constraint set must cover at least one cell")
        if not isinstance(self.lower, int) or not isinstance(self.upper, int):
            raise InputError("quotas must be integers")
        if self.lower > self.upper:
            raise InputError(f"quota lower bound {self.lower} exceeds upper bound {self.upper}")


def _check_laminar(family: Sequence[ConstraintSet], name: str) -> None:
    seen: set[frozenset[Cell]] = set()
    for cs in family:
        if cs.cells in seen:
            raise InputError(f"{name} contains duplicate constraint sets")
        seen.add(cs.cells)
    sets = [cs.cells for cs in family]
    for a in range(len(sets)):
        for b in range(a + 1, len(sets)):
            inter = sets[a] & sets[b]
            if inter and inter != sets[a] and inter != sets[b]:
                raise InputError(f"{name} is not laminar")


@dataclass(frozen=True)
class Bihierarchy:
    """Two disjoint laminar families of quota constraints over the same matrix."""

    h1: tuple[ConstraintSet, ...]
    h2: tuple[ConstraintSet, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "h1", tuple(self.h1))
        object.__setattr__(self, "h2", tuple(self.h2))
        _check_laminar(self.h1, "H1")
        _check_laminar(self.h2, "H2")
        overlap = {cs.cells for cs in self.h1} & {cs.cells for cs in self.h2}
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
    h2 = [
        (frozenset((i, j) for i in range(n)), math.floor(x.column_sum(j)), math.ceil(x.column_sum(j)))
        for j in range(m)
    ]
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
    """Integer flows for arcs (u, v, lower, upper) with conservation everywhere."""
    excess = [0] * nodes
    flow = _MaxFlow(nodes + 2)
    src, snk = nodes, nodes + 1
    ids: list[int] = []
    for u, v, lo, hi in arcs:
        if lo > hi:
            return None
        ids.append(flow.add(u, v, hi - lo))
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
    return [arcs[k][2] + (flow.cap[ids[k] ^ 1]) for k in range(len(arcs))]


# ---------------------------------------------------------------------------
# The extraction engine.
# ---------------------------------------------------------------------------


def _innermost_map(
    sets: list[tuple[int, frozenset[Cell]]], cells: Iterable[Cell]
) -> dict[Cell, int]:
    """Map each cell to its smallest containing set node (laminar families)."""
    owner: dict[Cell, int] = {}
    for node, members in sorted(sets, key=lambda s: -len(s[1])):
        for cell in members:
            owner[cell] = node
    return {c: owner[c] for c in cells if c in owner}


def _quota_violation(
    x: list[list[Fraction]], sets: Sequence[ConstraintSet]
) -> ConstraintSet | None:
    for cs in sets:
        total = sum((x[i][j] for i, j in cs.cells), ZERO)
        if total < cs.lower or total > cs.upper:
            return cs
    return None


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
    work = [list(row) for row in x.matrix]
    bad = _quota_violation(work, hierarchy.all_sets())
    if bad is not None:
        raise InputError(
            f"allocation violates quota [{bad.lower}, {bad.upper}] on {sorted(bad.cells)}"
        )

    # Singleton sets become per-cell bounds; larger sets become forest arcs.
    cell_lo = {(i, j): 0 for i in range(n) for j in range(m)}
    cell_hi = {(i, j): 1 for i in range(n) for j in range(m)}
    families: list[list[tuple[int, frozenset[Cell]]]] = [[], []]
    set_bounds: dict[int, tuple[int, int]] = {}
    node_count = 2  # 0 and 1 are the virtual roots of the two forests
    for side, fam in ((0, hierarchy.h1), (1, hierarchy.h2)):
        for cs in fam:
            if len(cs.cells) == 1:
                (cell,) = cs.cells
                cell_lo[cell] = max(cell_lo[cell], cs.lower)
                cell_hi[cell] = min(cell_hi[cell], cs.upper)
            else:
                families[side].append((node_count, cs.cells))
                set_bounds[node_count] = (cs.lower, cs.upper)
                node_count += 1
    all_cells = [(i, j) for i in range(n) for j in range(m)]
    inner1 = _innermost_map(families[0], all_cells)
    inner2 = _innermost_map(families[1], all_cells)
    # Parent arcs within each forest (to the smallest strict superset, else the root).
    parent: dict[int, int] = {}
    for side, fam in enumerate(families):
        for node, members in fam:
            best: tuple[int, frozenset[Cell]] | None = None
            for other, omembers in fam:
                if other != node and members < omembers:
                    if best is None or len(omembers) < len(best[1]):
                        best = (other, omembers)
            parent[node] = best[0] if best else side

    support: list[tuple[Fraction, IntegralAllocation]] = []
    carried = ONE
    max_iters = n * m + len(set_bounds) + 2
    for _ in range(max_iters):
        fractional = [(i, j) for i, j in all_cells if work[i][j] != 0 and work[i][j] != 1]
        if not fractional:
            support.append(
                (carried, IntegralAllocation(tuple(tuple(int(v) for v in row) for row in work)))
            )
            break

        # Minimal-face bounds: anything tight at the current matrix stays tight.
        arcs: list[tuple[int, int, int, int]] = []
        arc_info: list[tuple[str, object]] = []
        for cell in all_cells:
            xv = work[cell[0]][cell[1]]
            if xv.denominator == 1:
                lo = hi = int(xv)
            else:
                lo, hi = cell_lo[cell], cell_hi[cell]
            u = inner1.get(cell, 0)
            v = inner2.get(cell, 1)
            arcs.append((u, v, lo, hi))
            arc_info.append(("cell", cell))
        for side, fam in enumerate(families):
            for node, members in fam:
                sigma = sum((work[i][j] for i, j in members), ZERO)
                lo, hi = set_bounds[node]
                if sigma == lo:
                    lo = hi = int(sigma)
                elif sigma == hi:
                    lo = hi = int(sigma)
                pnode = parent[node]
                if side == 0:
                    arcs.append((pnode, node, lo, hi))
                else:
                    arcs.append((node, pnode, lo, hi))
                arc_info.append(("set", node))
        arcs.append((1, 0, 0, m + 1))
        arc_info.append(("root", None))

        flows = _feasible_circulation(node_count, arcs)
        if flows is None:
            raise InputError("constraint families do not form a decomposable bihierarchy")
        part = [[0] * m for _ in range(n)]
        for k, (kind, key) in enumerate(arc_info):
            if kind == "cell":
                i, j = key  # type: ignore[misc]
                part[i][j] = flows[k]

        # Largest weight that keeps (x - w*part) / (1 - w) inside all quotas.
        w: Fraction | None = None

        def tighten(q: Fraction, a: int, lo: int, hi: int) -> None:
            nonlocal w
            if a > lo:
                bound = (q - lo) / (a - lo)
                if w is None or bound < w:
                    w = bound
            if a < hi:
                bound = (hi - q) / (hi - a)
                if w is None or bound < w:
                    w = bound

        for cell in all_cells:
            xv = work[cell[0]][cell[1]]
            if xv.denominator != 1:
                tighten(xv, part[cell[0]][cell[1]], cell_lo[cell], cell_hi[cell])
        for node, members in ((nd, mb) for fam in families for nd, mb in fam):
            sigma = sum((work[i][j] for i, j in members), ZERO)
            lo, hi = set_bounds[node]
            if sigma != lo and sigma != hi:
                a = sum(part[i][j] for i, j in members)
                tighten(sigma, a, lo, hi)
        if w is None or w <= 0 or w >= 1:  # pragma: no cover - guards the face logic
            raise InputError("decomposition failed to make progress")

        support.append(
            (carried * w, IntegralAllocation(tuple(tuple(row) for row in part)))
        )
        scale = ONE / (ONE - w)
        for i, j in all_cells:
            work[i][j] = (work[i][j] - w * part[i][j]) * scale
        carried *= ONE - w
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
