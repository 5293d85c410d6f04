"""Maximum Nash welfare over divisible goods, certified as a competitive equilibrium.

A fractional allocation maximizes the product of utilities iff it is a
competitive equilibrium from equal incomes (CEEI): at some item prices, every
agent spends her unit budget only on items of market-best value per unit of
price. A linear Fisher market has unique equilibrium prices. We find them in
exact rationals by the ascending-price primal-dual algorithm of Devanur,
Papadimitriou, Saberi and Vazirani (JACM 2008): prices start low enough that
the agents' budgets, sent along best buys by an integer max flow, can buy out
every item, and rise until the budgets are spent. The flow then is the CEEI.
Every round runs one small bipartite max flow, ``_live``. Its flow is the
Edmonds-Karp flow in agent/item index order, so the last round's flow is the
canonical CEEI; every earlier round reads just the capacity left unsold and the
nodes the source reaches in the residual network.

The rounds run on Python ints: each agent's value row scaled to integers, the
prices as numerators over one common denominator, each agent's best rate as a
numerator/denominator pair, and integer flow capacities. Fractions are built
only for the returned prices and shares.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Collection, Sequence

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
    outbid,
    parse_rational,
)


class MnwSolution(_Frozen):
    """An exact Nash-welfare-maximizing allocation with its equilibrium prices."""

    allocation: FractionalAllocation
    utilities: tuple[Fraction, ...]
    prices: tuple[Fraction, ...]
    log_nash_welfare: float


def _active_agents(instance: Instance) -> list[int]:
    return [i for i, (_, row) in enumerate(instance.scaled) if any(row)]


def _lowest(num: int, den: int) -> tuple[int, int]:
    common = math.gcd(num, den)
    return num // common, den // common


def _live(
    k: int, m: int, agents: Collection[int], edges: list[tuple[int, int]], budget: int, room: list[int]
) -> tuple[set[int], set[int], int, list[list[int]]]:
    """Route a budget of ``budget`` from each of ``agents`` along ``edges`` to the
    items, item g selling at most ``room[g]``, by a maximum flow.

    Returns the live agents and items, those the source reaches in the residual
    network (the same for every maximum flow), the capacity left unsold and the
    ``k x m`` flow. With ``agents`` ascending and ``edges`` agent-major, the flow
    is Edmonds-Karp's (``decomp._MaxFlow``, arcs added source -> agent, agent ->
    item, item -> sink): the greedy start makes its first augmentations, the
    search visits nodes in its order, and as an agent -> item arc holds a whole
    budget, every bottleneck is the same.
    """
    left, room = [0] * k, list(room)
    for a in agents:
        left[a] = budget
    items: list[list[int]] = [[] for _ in range(k)]
    buyers: list[list[int]] = [[] for _ in range(m)]
    flow = [[0] * m for _ in range(k)]
    for a, g in edges:  # greedy start: each agent fills its items in index order
        items[a].append(g)
        buyers[g].append(a)
        sent = min(left[a], room[g])
        flow[a][g], left[a], room[g] = sent, left[a] - sent, room[g] - sent
    while True:
        # Breadth-first from the agents with budget left. An agent sends at most
        # its budget, so when arc (a, g) is full, a has no budget left and sends
        # nothing else: only g reaches a, and the search never needs the
        # residual of an agent-to-item arc.
        via_item, via_agent = [-1] * k, [-1] * m  # -2: reached from the source
        queue = [a for a in agents if left[a]]
        for a in queue:
            via_item[a] = -2
        end = -1
        for a in queue:
            for g in items[a]:
                if via_agent[g] == -1:
                    via_agent[g] = a
                    if room[g]:
                        end = g
                        break
                    for b in buyers[g]:
                        if via_item[b] == -1 and flow[b][g]:
                            via_item[b] = g
                            queue.append(b)
            if end != -1:
                break
        if end == -1:
            live = {a for a in range(k) if via_item[a] != -1}
            return live, {g for g in range(m) if via_agent[g] != -1}, sum(room), flow
        path, g, sent = [], end, room[end]
        while g != -2:
            a = via_agent[g]
            path.append((a, g))
            g = via_item[a]
            sent = min(sent, left[a] if g == -2 else flow[a][g])
        for a, g in path:
            flow[a][g] += sent
            if via_item[a] == -2:
                left[a] -= sent
            else:
                flow[a][via_item[a]] -= sent
        room[end] -= sent


def _equilibrium_shares(rows: list[Sequence[int]]) -> tuple[list[list[Fraction]], list[Fraction]]:
    """Exact equilibrium shares x[a][g] of the active agents' value rows, each
    summing to 1, and prices.

    Prices start low: every item is some agent's best buy, and a flow of the unit
    budgets along best buys sells every item. While budget is left, the agents and
    items the source reaches in the residual network are live. Their prices rise
    by the largest factor that keeps every live item sold and no other item a live
    agent's best buy, so prices stay low; a round that cannot sell every item, or
    whose factor is not above 1, raises instead of looping.

    Each row is an agent's values scaled to integers (``Instance.scaled``),
    which changes no agent's rates. Price g is ``P[g] / D`` and agent a's best
    rate is ``A[a] / B[a]``. A network in which a unit budget is ``D`` and item g
    sells at most ``P[g]`` is the network of the rational prices with every
    capacity scaled by ``D``. Every round and raise runs ``_live`` on it, with
    the edges agent-major, so its flow is the Edmonds-Karp flow, which takes the
    same paths in both networks. The last round is the one whose prices sum to
    the k budgets, and the share of edge (a, g) there is its flow over ``P[g]``.
    """
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
        live_agents, live_items, unsold, flow = _live(k, m, range(k), edges, D, P)
        if unsold:
            raise RuntimeError("ascending prices left an item unsold")
        if sum(P) == k * D:
            shares = [[Fraction(f, p) if f else ZERO for f, p in zip(row, P)] for row in flow]
            return shares, [Fraction(p, D) for p in P]
        live_edges = [(a, g) for a, g in edges if a in live_agents]
        tight = live_items
        while True:  # min |buyers(S)| / price(S) over live S, by shrinking the violated set
            # raised by buyers / price(S), a unit budget is cost and item g costs buyers * P[g]
            buyers, cost = len({a for a, g in live_edges if g in tight}), sum(P[g] for g in tight)
            raised = [buyers * p if g in live_items else 0 for g, p in enumerate(P)]
            _, reached, unsold, _ = _live(k, m, live_agents, live_edges, cost, raised)
            if not unsold:
                break
            tight = live_items - reached
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

    shares, prices = _equilibrium_shares([instance.scaled[i][1] for i in active])
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
    slack: Fraction | int | str = 0,
) -> PropertyVerdict:
    """Check the competitive-equilibrium condition on a complete allocation.

    Goods: every held unit must deliver the market-best value per unit of spending,
    v_i(g)/v_i(X_i) >= v_h(g)/v_h(X_h) - slack whenever X_{i,g} > 0. Bads mirror it
    with <= and +slack. Agents with all-zero value rows are outside the condition.
    ``slack`` is read exactly, like every other rational input (``parse_rational``).
    """
    kind = instance.kind
    if kind not in (GOODS, BADS):
        raise KindMismatchError(f"equilibrium condition is defined for goods or bads, got {kind}")
    x.check_shape(instance)
    if not x.complete:
        raise InputError("equilibrium verification needs a complete allocation")
    slack = parse_rational(slack)
    if slack < 0:
        raise InputError("slack must be nonnegative")
    active = _active_agents(instance)
    u = [instance.utility(i, x.row(i)) for i in range(instance.n)]
    for i in active:
        if kind == GOODS and u[i] <= 0:
            raise ZeroUtilityError(f"agent {i} values items but has nonpositive utility")
        if kind == BADS and u[i] >= 0:
            raise ZeroUtilityError(f"agent {i} must have negative utility in a bads equilibrium")
    label = f"ceei_{kind}"
    # a holder's rate v_ig / u_i must reach (goods) or stay within (bads) every
    # rival's, shifted by the slack
    found = outbid(instance, x, active, u, 1 if kind == GOODS else -1, slack)
    if found is None:
        return PropertyVerdict(label, True)
    g, i, h = found
    holder_rate, rival_rate = (str(instance.values[a][g] / u[a]) for a in (i, h))
    witness = {"holder": i, "rival": h, "item": g, "holder_rate": holder_rate, "rival_rate": rival_rate}
    return PropertyVerdict(label, False, witness)


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
        holders = [i for i, (_, row) in enumerate(instance.scaled) if row[j] > 0]
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
    the product of utilities. Returns None when the allocation is Nash-optimal,
    decided without an MNW solve by the Eisenberg-Gale optimality condition: every
    active agent's utility is positive, the agents who value nothing hold nothing,
    and no held item is outbid. Raises SolveError when only the first two fail.
    """
    alloc.check_shape(instance)
    if not alloc.complete:
        raise InputError("deviation search needs a complete allocation")
    if instance.kind != GOODS:
        raise KindMismatchError("mnw_deviation_witness handles goods instances only")
    active = _active_agents(instance)
    u = [instance.utility(i, alloc.row(i)) for i in range(instance.n)]
    found = outbid(instance, alloc, active, u)
    if found is None:
        if all(u[i] > 0 if i in active else not any(alloc.matrix[i]) for i in range(instance.n)):
            return None
        raise SolveError("allocation is below the Nash optimum but no transfer was found")
    g, i, j = found
    gap = instance.values[j][g] * u[i] - instance.values[i][g] * u[j]
    cross = instance.values[j][g] * instance.values[i][g]
    # eps * cross <= gap / 2 < gap, so the slice raises the pair's product
    eps = ONE if cross == 0 else min(ONE, gap / (2 * cross))
    return i, j, tuple(eps if gg == g else ZERO for gg in range(instance.m))
