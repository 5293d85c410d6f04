"""Decomposing fractional allocations into lotteries over integral allocations.

The quotas are a *bihierarchy* (Budish, Che, Kojima and Milgrom, AER 2013): two
laminar families of cell sets with integer lower/upper quotas. Every feasible
fractional matrix is a convex combination of integral matrices that each satisfy
all quotas; this module computes such a combination constructively.

The engine repeatedly peels off an integral vertex of the quota polytope restricted
to the minimal face containing the current matrix (tight constraints stay tight),
shifting as much weight onto it as feasibility allows. Each vertex is an integer
circulation over the two laminar forests, found by Edmonds-Karp on flat edge lists.
The residual is kept as integers over one common denominator (rescaled when a step
needs a finer one), so the whole loop is integer arithmetic; Fractions appear only
in the output weights. Each extraction makes at least one new constraint tight,
which bounds the support by the number of fractional cells plus one and guarantees
termination.

Each decomposition runs in two steps. The first compiles its quotas to a plan: the
(u, v) nodes of each cell and one (u, v, lower, upper, sum) arc per set of two or
more cells, ``sum`` being the set's integer total. The second is the one extraction
engine, ``_extract``, on that plan; it returns bare (weight, row tuples) parts,
which the public functions wrap in a ``Lottery``. Two compilers build plans
straight from an integer matrix over its denominator, each for the one bihierarchy
its callers need:

- ``_bvn_plan``: the floor and ceiling of every row and column sum. ``bvn_decompose``
  runs it on its input's integer form, and the RPS stage engine on its stage matrix.
- ``_prefix_plan``: the floor and ceiling of each prefix of each agent's preference
  order, every column fixed at [1, 1]. ``bihierarchy_decompose`` runs it for the
  utility-guarantee rounding in ``rounding``.

Both emit only sets of two or more cells: a one-cell set restates its cell's
[floor, ceiling], which every part keeps anyway.
"""
from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Sequence

from .core import (
    FractionalAllocation,
    IntegralAllocation,
    InputError,
    Lottery,
    ONE,
    SolveError,
    ZERO,
)

Matrix = tuple[tuple[int, ...], ...]
# A quota set compiled for the engine: (u, v, lower, upper, sum).
_Arc = tuple[int, int, int, int, int]


# ---------------------------------------------------------------------------
# Plans, and the extraction engine that runs on them.
# ---------------------------------------------------------------------------


def bihierarchy_decompose(x: FractionalAllocation, prefs: Sequence[Sequence[int]]) -> Lottery:
    """Express a complete ``x`` as an exact lottery over integral matrices that keep
    every prefix of each agent's order in ``prefs`` within the floor and ceiling of
    its share in ``x``, and give every item to exactly one agent.

    The support never exceeds the number of fractional cells of ``x`` plus one, and
    the lottery's marginal equals ``x`` exactly.

    >>> h = Fraction(1, 2)
    >>> parts = bihierarchy_decompose(FractionalAllocation(((h, 1), (h, 0))), ((1, 0), (0, 1)))
    >>> [(str(w), a.bundles) for w, a in parts.support]
    [('1/2', ((1,), (0,))), ('1/2', ((0, 1), ()))]
    """
    if len(prefs) != x.n:
        raise InputError(f"need one preference order per agent: got {len(prefs)} for {x.n} agents")
    for i, order in enumerate(prefs):
        if len(order) != x.m or set(order) != set(range(x.m)):
            raise InputError(f"preference order of agent {i} is not a permutation of the {x.m} items")
    if not x.complete:
        raise InputError("prefix constraints need a complete allocation")
    den, rows = x.scaled
    parts = _extract(den, rows, x.m, *_prefix_plan(den, rows, prefs, x.m))
    return Lottery(tuple((w, IntegralAllocation._from_scaled(part, 1, part)) for w, part in parts))


def _prefix_plan(
    den: int, r: Sequence[Sequence[int]], prefs: Sequence[Sequence[int]], m: int
) -> tuple[list[tuple[int, int]], list[_Arc]]:
    """The prefix quotas of the n x m matrix ``r / den`` as a plan. Agent i's prefix
    of length k + 1 >= 2 is node 2 + (k - 1) * n + i, an arc from the next longer
    prefix, or from root 0 for the whole row; the columns follow as [1, 1] arcs into
    node 1 when n > 1. A cell hangs under the shortest prefix of two or more items
    that holds it."""
    n = len(r)
    runs = [list(itertools.accumulate(r[i][j] for j in order)) for i, order in enumerate(prefs)]
    sets: list[_Arc] = []
    for k in range(1, m):
        for i, order in enumerate(prefs):
            up, s = 2 + k * n + i if k < m - 1 else 0, runs[i][k]
            sets.append((up, 2 + (k - 1) * n + i, s // den, -(-s // den), s))
    first = 2 + len(sets)
    if n > 1:
        sets += [(first + j, 1, 1, 1, den) for j in range(m)]
    u = [[0] * m for _ in range(n)]
    if m > 1:
        for i, order in enumerate(prefs):
            for p, j in enumerate(order):
                u[i][j] = 2 + (max(p, 1) - 1) * n + i
    ends = [(u[i][j], first + j if n > 1 else 1) for i in range(n) for j in range(m)]
    return ends, sets


def bvn_decompose(x: FractionalAllocation) -> Lottery:
    """Decompose a doubly substochastic matrix with row/column floor-ceiling quotas,
    compiled by ``_bvn_plan`` straight from the integer form ``x.scaled``.

    >>> from fractions import Fraction
    >>> h = Fraction(1, 2)
    >>> parts = bvn_decompose(FractionalAllocation(((h, h, 0, 0), (h, 0, h, 0))))
    >>> [(str(w), a.bundles) for w, a in parts.support]
    [('1/2', ((1,), (0,))), ('1/2', ((0,), (2,)))]
    """
    den, rows = x.scaled
    parts = _extract(den, rows, x.m, *_bvn_plan(den, rows, x.m))
    return Lottery(tuple((w, IntegralAllocation._from_scaled(part, 1, part)) for w, part in parts))


def _bvn_plan(den: int, r: Sequence[Sequence[int]], m: int) -> tuple[list[tuple[int, int]], list[_Arc]]:
    """The row and column quotas of the n x m matrix ``r / den`` as a plan: row i
    is node 2 + i, an arc from root 0, when m > 1; column j follows the rows as
    an arc into node 1 when n > 1. Quotas are the floor and ceiling of the
    integer row and column sums over ``den``."""
    n = len(r)
    sets: list[_Arc] = []
    if m > 1:  # a one-cell row is not built, and no row of one cell can exceed 1
        for i, row in enumerate(r):
            s = sum(row)
            if s > den:
                raise InputError(f"row {i} sums above 1; not doubly substochastic")
            sets.append((0, 2 + i, s // den, -(-s // den), s))
    first = 2 + len(sets)
    if n > 1:
        for j, col in enumerate(zip(*r)):
            s = sum(col)
            sets.append((first + j, 1, s // den, -(-s // den), s))
    ends = [(2 + i if m > 1 else 0, first + j if n > 1 else 1) for i in range(n) for j in range(m)]
    return ends, sets


def _extract(
    den: int, r: Sequence[Sequence[int]], m: int, ends: list[tuple[int, int]], sets: list[_Arc]
) -> list[tuple[Fraction, Matrix]]:
    """The extraction engine on a compiled plan: ``ends`` holds the (u, v) nodes of
    each cell in row-major order, ``sets`` the (u, v, lower, upper, sum) arc of
    each set of two or more cells, whose own node is ``2 + `` its index.

    ``r / den`` is the part of x not yet assigned and ``c / den`` its weight, so
    the normalised residual is ``r / c``; the caller's ``r`` is read once and
    left unchanged. A cell whose residual reaches 0 or ``c``, or a set whose total
    reaches ``lower * c`` or ``upper * c``, stays there in every later part (the
    minimal face), so it is settled once: ``base`` holds each settled cell's 0/1
    value and ``fixed`` the node excess of the cells at 1 and of the sets' counts.
    ``live`` holds the still-fractional cells in row-major order and ``lr`` their
    residuals, ``free`` the other sets' arcs in plan order, each with its total in
    ``r``, kept from the flow on its arc: its node collects just its cells and
    child sets, so that flow is the part's count on it. Each part is ``base`` with
    its live cells read off the flow, and the step, the rescale and the update run
    over ``lr`` and ``free`` alone. Returns the parts as (weight, 0/1 row tuples)
    in extraction order. They are distinct: each extraction makes tight a
    constraint that the part it removed violates, and every later part keeps it.

    Each part is a feasible integer circulation on the minimal face of ``r / c``.
    Settled cells and sets only move ``fixed``, which the node excesses start
    from; the rest are edges over their lower bounds (a live cell of capacity 1,
    a free set of its quota gap, the return arc ``1 -> 0`` of m + 1), and a
    source and a sink balance the excesses. Edges go in as live cells, free sets,
    the return arc, then each node's source or sink arc in node order, each with
    its reverse ``e ^ 1``. ``live`` is the fractional cells row-major and ``free``
    the sets off their bounds in plan order, so that is the order of
    ``_feasible_circulation`` in ``tests/oracles.py``: every positive-capacity
    edge keeps its place in its node's adjacency, so the augmenting paths and
    parts are ``extract_reference``'s.

    ``_max_flow``'s breadth-first search stops at the first node it discovers
    with a residual arc into the sink and augments along that node's first such
    arc. Its queue is FIFO, so that is the node whose scan would label the sink in
    a search run to the end: every path, residual and total is the full search's.
    A search that finds no path runs to completion.
    """
    n = len(r)
    c = den
    live, lr = list(range(n * m)), [q for row in r for q in row]
    base = [0] * (n * m)
    free = list(sets)
    src, snk = 2 + len(sets), 3 + len(sets)
    fixed = [0] * src
    support: list[tuple[Fraction, Matrix]] = []
    # Parts share equal row tuples: a dense lottery has far fewer distinct rows
    # than parts, so it holds about support * n pointers, not support * n * m ints.
    rows: dict[tuple[int, ...], tuple[int, ...]] = {}
    for _ in range(n * m + len(sets) + 2):
        if 0 in lr or c in lr:  # settle the cells that reached 0 or 1, each once
            for k, q in zip(live, lr):
                if q == c:
                    base[k] = 1
                    u, v = ends[k]
                    fixed[u] -= 1
                    fixed[v] += 1
            live = [k for k, q in zip(live, lr) if 0 < q < c]
            lr = [q for q in lr if 0 < q < c]
        if not live:
            part = tuple(tuple(base[i * m : (i + 1) * m]) for i in range(n))
            support.append((Fraction(c, den), part))
            break
        unsettled: list[_Arc] = []
        for u, v, lo, hi, sigma in free:  # settle the sets that reached a bound, each once
            if sigma == lo * c or sigma == hi * c:
                fixed[u] -= sigma // c
                fixed[v] += sigma // c
            elif lo > hi:
                raise InputError("constraint families do not form a decomposable bihierarchy")
            else:
                unsettled.append((u, v, lo, hi, sigma))
        free = unsettled

        # Minimal-face bounds: anything tight at the current matrix stays tight.
        # Edge 2 * i is live[i], then edge 2 * (len(live) + i) is free[i].
        adj: list[list[int]] = [[] for _ in range(snk + 1)]
        to: list[int] = []
        cap: list[int] = []
        for k in live:
            u, v = ends[k]
            adj[u].append(len(to))
            adj[v].append(len(to) + 1)
            to += v, u
            cap += 1, 0
        excess = fixed[:]
        for u, v, lo, *_ in free:
            excess[u] -= lo
            excess[v] += lo
        edges = [(u, v, hi - lo) for u, v, lo, hi, _ in free] + [(1, 0, m + 1)]
        for w, e in enumerate(excess):
            if e:
                edges.append((src, w, e) if e > 0 else (w, snk, -e))
        for u, v, width in edges:
            adj[u].append(len(to))
            adj[v].append(len(to) + 1)
            to += v, u
            cap += width, 0
        if _max_flow(adj, to, cap, src, snk) != sum(e for e in excess if e > 0):
            raise InputError("constraint families do not form a decomposable bihierarchy")
        flows = cap[1 : 2 * len(live) : 2]  # the part's value on each live cell
        counts = [lo + f for (_, _, lo, *_), f in zip(free, cap[2 * len(live) + 1 :: 2])]

        # Largest step s = num / dnm (weight s / den) that keeps (r - s*part) / (c - s)
        # inside all quotas, compared by cross-multiplication. Live cells have
        # bounds [0, 1] and part values 0 or 1, so only a set's quota gap can make s
        # non-integral; then lr, free, c and den are rescaled by its reduced denominator.
        num = min(q if p else c - q for q, p in zip(lr, flows))
        dnm = 1
        for (_, _, lo, hi, sigma), a in zip(free, counts):
            if a > lo and (sigma - lo * c) * dnm < num * (a - lo):
                num, dnm = sigma - lo * c, a - lo
            if a < hi and (hi * c - sigma) * dnm < num * (hi - a):
                num, dnm = hi * c - sigma, hi - a
        if num <= 0 or num >= c * dnm:  # pragma: no cover - guards the face logic
            raise InputError("decomposition failed to make progress")
        g = math.gcd(num, dnm)
        step, scale = num // g, dnm // g
        if scale > 1:
            lr = [q * scale for q in lr]
            free = [(u, v, lo, hi, sigma * scale) for u, v, lo, hi, sigma in free]
            c *= scale
            den *= scale

        part = base[:]
        for k, p in zip(live, flows):
            part[k] = p
        part_rows = (tuple(part[i * m : (i + 1) * m]) for i in range(n))
        support.append((Fraction(step, den), tuple(rows.setdefault(row, row) for row in part_rows)))
        lr = [q - step if p else q for q, p in zip(lr, flows)]
        free = [(u, v, lo, hi, sigma - step * a) for (u, v, lo, hi, sigma), a in zip(free, counts)]
        c -= step
    else:  # pragma: no cover - the dimension argument bounds the loop
        raise InputError("decomposition did not terminate")
    return support


def _max_flow(adj: list[list[int]], to: list[int], cap: list[int], s: int, t: int) -> int:
    """The maximum flow value from ``s`` to ``t`` by early-stop Edmonds-Karp (see
    ``_extract``): edge e runs to ``to[e]`` with residual ``cap[e]``, which ends
    updated, its reverse is ``e ^ 1``, and node u's edges are ``adj[u]``."""
    # The arcs into t of each node, in that node's adjacency order: arc e and its
    # reverse e ^ 1 enter their two lists together.
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

