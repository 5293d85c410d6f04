"""Maximum Nash welfare over divisible goods, certified as a competitive equilibrium.

A fractional allocation maximizes the product of utilities iff it is a
competitive equilibrium from equal incomes (CEEI): at some item prices, every
agent spends her unit budget only on items of market-best value per unit of
price. A linear Fisher market has unique equilibrium prices. We find them in
exact rationals by the ascending-price primal-dual algorithm of Devanur,
Papadimitriou, Saberi and Vazirani (JACM 2008): prices start low enough that
the agents' budgets, sent along best buys by an integer max flow, can buy out
every item, and rise until the budgets are spent. The flow then is the CEEI.

The rounds run on Python ints: each agent's value row scaled to integers, the
prices as numerators over one common denominator, each agent's best rate as a
numerator/denominator pair, and integer flow capacities. Fractions are built
only for the returned prices and shares.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .core import (
    BADS,
    GOODS,
    FractionalAllocation,
    Instance,
    IntegralAllocation,
    InputError,
    KindMismatchError,
    ONE,
    PropertyVerdict,
    SolveError,
    ZERO,
    ZeroUtilityError,
    _Frozen,
)
from .decomp import _MaxFlow


class MnwSolution(_Frozen):
    """An exact Nash-welfare-maximizing allocation with its equilibrium prices."""

    allocation: FractionalAllocation
    utilities: tuple[Fraction, ...]
    prices: tuple[Fraction, ...]
    log_nash_welfare: float


def _active_agents(instance: Instance) -> list[int]:
    return [i for i in range(instance.n) if any(v != 0 for v in instance.values[i])]


def _lowest(num: int, den: int) -> tuple[int, int]:
    common = math.gcd(num, den)
    return num // common, den // common


def _spend(
    k: int, m: int, agents: list[int], edges: list[tuple[int, int]], budget: int, cap: dict[int, int]
) -> tuple[_MaxFlow, list[int], int]:
    """Route a budget of ``budget`` from each of ``agents`` along ``edges`` to the
    items of ``cap``, each selling at most its cap.

    Nodes are agents 0..k-1, items k..k+m-1, then source and sink. Returns the
    solved network, the arc of each edge and the capacity left unsold.
    """
    src, snk = k + m, k + m + 1
    flow = _MaxFlow(k + m + 2)
    for a in agents:
        flow.add(src, a, budget)
    arcs = [flow.add(a, k + g, budget) for a, g in edges]
    for g, c in cap.items():
        flow.add(k + g, snk, c)
    return flow, arcs, sum(cap.values()) - flow.solve(src, snk)


def _equilibrium_shares(values: list[Sequence[Fraction]]) -> tuple[list[list[Fraction]], list[Fraction]]:
    """Exact equilibrium shares x[a][g] of the active agents' value rows, each
    summing to 1, and prices.

    Prices start low: every item is some agent's best buy, and a flow of the unit
    budgets along best buys sells every item. While budget is left, the agents and
    items the source reaches in the residual network are live. Their prices rise
    by the largest factor that keeps every live item sold and no other item a live
    agent's best buy, so prices stay low; a round that cannot sell every item, or
    whose factor is not above 1, raises instead of looping.

    Each row is scaled to integers, which changes no agent's rates. Price g is
    ``P[g] / D`` and agent a's best rate is ``A[a] / B[a]``. A network in which a
    unit budget is ``D`` and item g sells at most ``P[g]`` is the network of the
    rational prices with every capacity scaled by ``D``; Edmonds-Karp takes the
    same paths in both, so the share of edge (a, g) is its flow over ``P[g]``.
    """
    rows = []
    for row in values:
        scale = math.lcm(*(v.denominator for v in row))
        rows.append([v.numerator * (scale // v.denominator) for v in row])
    k, m = len(rows), len(rows[0])
    A = [m * max(row) for row in rows]
    B = [1] * k
    D = math.lcm(*A)
    P = [max(row[g] * (D // rate) for row, rate in zip(rows, A)) for g in range(m)]
    while True:
        common = math.gcd(D, *P)
        D, P = D // common, [p // common for p in P]
        edges = []
        for a, row in enumerate(rows):
            scaled, rate = B[a] * D, A[a]
            edges += [(a, g) for g in range(m) if row[g] * scaled == rate * P[g]]
        flow, arcs, unsold = _spend(k, m, list(range(k)), edges, D, dict(enumerate(P)))
        if unsold:
            raise RuntimeError("ascending prices left an item unsold")
        if sum(P) == k * D:
            shares = [[ZERO] * m for _ in range(k)]
            for (a, g), eid in zip(edges, arcs):
                shares[a][g] = Fraction(flow.cap[eid ^ 1], P[g])
            return shares, [Fraction(p, D) for p in P]
        live_agents = [a for a in range(k) if flow.reach[a] != -1]
        live_items = {g for g in range(m) if flow.reach[k + g] != -1}
        live_edges = [(a, g) for a, g in edges if flow.reach[a] != -1]
        tight = live_items
        while True:  # min |buyers(S)| / price(S) over live S, by shrinking the violated set
            # raised by buyers / price(S), a unit budget is cost and item g costs buyers * P[g]
            buyers, cost = len({a for a, g in live_edges if g in tight}), sum(P[g] for g in tight)
            raised = {g: buyers * P[g] for g in live_items}
            flow, _, unsold = _spend(k, m, live_agents, live_edges, cost, raised)
            if not unsold:
                break
            tight = {g for g in live_items if flow.reach[k + g] == -1}
        up, down = buyers * D, cost  # the raise factor up / down
        for a in live_agents:
            for g, value in enumerate(rows[a]):
                if value and g not in live_items:
                    num, den = A[a] * P[g], B[a] * D * value
                    if num * down < up * den:
                        up, down = num, den
        up, down = _lowest(up, down)
        if up <= down:
            raise SolveError("a price round did not raise the live prices")
        for a in live_agents:
            A[a], B[a] = _lowest(A[a] * down, B[a] * up)
        P = [p * up if g in live_items else p * down for g, p in enumerate(P)]
        D *= down


def solve_mnw(instance: Instance) -> MnwSolution:
    """Maximize the product of agents' utilities over complete fractional allocations.

    Only goods instances are supported. Agents with all-zero value rows are left
    out of the product and receive nothing. The returned allocation is an exact
    equilibrium (it passes ``ceei_verify`` with zero slack). Utilities and prices
    are unique; where several allocations attain them, the one returned is the
    Edmonds-Karp flow in agent/item index order on the equality graph of those
    prices, so it does not depend on the path the prices took. The rounds compare
    rates exactly, in integers, so near ties such as 10**17 against 10**17 + 1
    are told apart.

    >>> sol = solve_mnw(Instance.from_rows([[1, 2], [1, 3]]))
    >>> [[str(v) for v in row] for row in sol.allocation.matrix]
    [['1', '1/4'], ['0', '3/4']]
    >>> v = 10**17
    >>> sol = solve_mnw(Instance.from_rows([[v, v + 1], [v + 1, v]]))
    >>> [[str(x) for x in row] for row in sol.allocation.matrix]
    [['0', '1'], ['1', '0']]
    """
    if instance.kind != GOODS:
        raise KindMismatchError("solve_mnw handles goods instances only")
    n, m = instance.n, instance.m
    active = _active_agents(instance)
    if not active:  # no items: a goods instance values each of its items
        return MnwSolution(FractionalAllocation(((),) * n), (ZERO,) * n, (), 0.0)

    shares, prices = _equilibrium_shares([instance.values[i] for i in active])
    matrix = [[ZERO] * m for _ in range(n)]
    for a, i in enumerate(active):
        matrix[i] = shares[a]
    x = FractionalAllocation(tuple(tuple(row) for row in matrix))

    utilities = tuple(
        instance.utility(i, x.row(i)) if i in active else ZERO for i in range(n)
    )
    # logs of the integer parts: a float of the utility itself may overflow
    log_nw = sum(math.log(utilities[i].numerator) - math.log(utilities[i].denominator) for i in active)
    return MnwSolution(x, utilities, tuple(prices), log_nw)


def ceei_verify(
    instance: Instance,
    x: FractionalAllocation,
    slack: Fraction | int = 0,
) -> PropertyVerdict:
    """Check the competitive-equilibrium condition on a complete allocation.

    Goods: every held unit must deliver the market-best value per unit of spending,
    v_i(g)/v_i(X_i) >= v_h(g)/v_h(X_h) - slack whenever X_{i,g} > 0. Bads mirror it
    with <= and +slack. Agents with all-zero value rows are outside the condition.
    """
    kind = instance.kind
    if kind not in (GOODS, BADS):
        raise KindMismatchError(f"equilibrium condition is defined for goods or bads, got {kind}")
    if x.n != instance.n or x.m != instance.m:
        raise InputError("allocation shape does not match instance")
    if not x.complete:
        raise InputError("equilibrium verification needs a complete allocation")
    slack = Fraction(slack)
    if slack < 0:
        raise InputError("slack must be nonnegative")
    active = _active_agents(instance)
    utils = {i: instance.utility(i, x.row(i)) for i in active}
    label = f"ceei_{kind}"
    for i in active:
        if kind == GOODS and utils[i] <= 0:
            raise ZeroUtilityError(f"agent {i} values items but has nonpositive utility")
        if kind == BADS and utils[i] >= 0:
            raise ZeroUtilityError(f"agent {i} must have negative utility in a bads equilibrium")
    for g in range(instance.m):
        for i in active:
            if x.matrix[i][g] == 0:
                continue
            mine = Fraction(instance.values[i][g]) / utils[i]
            for h in active:
                if h == i:
                    continue
                other = Fraction(instance.values[h][g]) / utils[h]
                violated = mine < other - slack if kind == GOODS else mine > other + slack
                if violated:
                    return PropertyVerdict(
                        label,
                        False,
                        {
                            "holder": i,
                            "rival": h,
                            "item": g,
                            "holder_rate": str(mine),
                            "rival_rate": str(other),
                        },
                    )
    return PropertyVerdict(label, True)


def mnw_v(instance: Instance) -> FractionalAllocation:
    """Nash-welfare allocation with single-bidder items carved out first.

    Items positively valued by exactly one agent go wholly to that agent; the
    remaining items are allocated by solve_mnw on the reduced instance.
    """
    if instance.kind != GOODS:
        raise KindMismatchError("mnw_v handles goods instances only")
    n, m = instance.n, instance.m
    weak: dict[int, int] = {}
    strong: list[int] = []
    for j in range(m):
        holders = [i for i in range(n) if instance.values[i][j] > 0]
        if len(holders) == 1:
            weak[j] = holders[0]
        else:
            strong.append(j)
    matrix = [[ZERO] * m for _ in range(n)]
    for j, owner in weak.items():
        matrix[owner][j] = ONE
    if strong:
        reduced = Instance(tuple(tuple(instance.values[i][j] for j in strong) for i in range(n)))
        inner = solve_mnw(reduced).allocation
        for col, j in enumerate(strong):
            for i in range(n):
                matrix[i][j] = inner.matrix[i][col]
    return FractionalAllocation(tuple(tuple(row) for row in matrix))


def replicate(instance: Instance, k: int) -> Instance:
    """k copies of every agent and item; copy l of agent i values copy r of item j
    at the original v_{i,j}."""
    if k < 1:
        raise InputError("replication factor must be at least 1")
    n, m = instance.n, instance.m
    return Instance(
        tuple(
            tuple(instance.values[i][j] for _ in range(k) for j in range(m))
            for _ in range(k)
            for i in range(n)
        )
    )


def replicate_allocation(x: FractionalAllocation, k: int) -> FractionalAllocation:
    """Give copy l of agent i the original bundle X_i spread over copy l of the items."""
    if k < 1:
        raise InputError("replication factor must be at least 1")
    n, m = x.n, x.m
    rows = []
    for copy in range(k):
        for i in range(n):
            row = [ZERO] * (k * m)
            for j in range(m):
                row[copy * m + j] = x.matrix[i][j]
            rows.append(tuple(row))
    return FractionalAllocation(tuple(rows))


def mnw_deviation_witness(
    instance: Instance, alloc: IntegralAllocation
) -> tuple[int, int, tuple[Fraction, ...]] | None:
    """For a Pareto-optimal integral allocation that is not Nash-optimal, produce a
    profitable transfer: agents i, j and a fractional slice X of i's bundle with
    v_j(X) * v_i(A_i minus X) > v_j(A_j) * v_i(X), i.e. moving X from i to j raises
    the product of utilities. Returns None when the allocation is Nash-optimal.
    """
    if not alloc.complete:
        raise InputError("deviation search needs a complete allocation")
    active = _active_agents(instance)
    z = solve_mnw(instance)
    a_product = ONE
    z_product = ONE
    bundle_values = {}
    for i in active:
        bundle_values[i] = instance.utility(i, alloc.row(i))
        a_product *= bundle_values[i]
        z_product *= z.utilities[i]
    if a_product >= z_product:
        return None
    # a suboptimal allocation violates the equilibrium condition on some held
    # item: a rival values it more per unit of her own utility than the holder
    for g in range(instance.m):
        holders = [i for i in active if alloc.matrix[i][g] == 1]
        if not holders:
            continue
        i = holders[0]
        for j in active:
            if j == i:
                continue
            gap = (
                instance.values[j][g] * bundle_values[i]
                - instance.values[i][g] * bundle_values[j]
            )
            if gap <= 0:
                continue
            cross = instance.values[j][g] * instance.values[i][g]
            eps = ONE if cross == 0 else min(ONE, gap / (2 * cross))
            slice_vec = tuple(
                eps if gg == g else ZERO for gg in range(instance.m)
            )
            vi_slice = eps * instance.values[i][g]
            vj_slice = eps * instance.values[j][g]
            if vj_slice * (bundle_values[i] - vi_slice) > bundle_values[j] * vi_slice:
                return (i, j, slice_vec)
    raise SolveError("allocation is below the Nash optimum but no transfer was found")
