"""Maximum Nash welfare over divisible goods, certified as a competitive equilibrium.

A fractional allocation maximizes the product of utilities iff it is a
competitive equilibrium from equal incomes (CEEI): at some item prices, every
agent spends her unit budget only on items of market-best value per unit of
price. A linear Fisher market has unique equilibrium prices; we find them in two
stages:

1. float stage: proportional-response dynamics (each agent splits her budget over
   items in proportion to the value they deliver) on exactly normalised rows, in
   lists of Python floats;
2. exact stage, every ``CERTIFY_EVERY`` float iterations: take the near-tied
   agent/item edges (float rate within ``THETA`` of the item's best, then also
   within a finer cut halved every ``THETA_HALF_LIFE`` iterations) as the
   equality graph, fix exact prices along it, check exactly that no agent
   prefers an item off her tight edges, and route the budgets over the tight
   edges by an integer max flow. A saturating flow is an exact CEEI.

There is no approximate fallback: without a certificate after ``FLOAT_ITER_CAP``
iterations the solver raises SolveError.
"""
from __future__ import annotations

import math
from fractions import Fraction

from .core import (
    BADS,
    GOODS,
    FractionalAllocation,
    Instance,
    IntegralAllocation,
    InputError,
    KindMismatchError,
    ONE,
    SolveError,
    ZERO,
    ZeroUtilityError,
    _Frozen,
)
from .decomp import _MaxFlow
from .properties import PropertyVerdict

THETA = 1e-3  # an edge's float rate is within this relative gap of its item's best
THETA_HALF_LIFE = 4096  # iterations per halving of the second, finer cut
CERTIFY_EVERY = 64
FLOAT_ITER_CAP = 60_000


class MnwSolution(_Frozen):
    """An exact Nash-welfare-maximizing allocation with its equilibrium prices."""

    _fields = ("allocation", "utilities", "prices", "log_nash_welfare")
    allocation: FractionalAllocation
    utilities: tuple[Fraction, ...]
    prices: tuple[Fraction, ...]
    log_nash_welfare: float

    def __init__(
        self,
        allocation: FractionalAllocation,
        utilities: tuple[Fraction, ...],
        prices: tuple[Fraction, ...],
        log_nash_welfare: float,
    ) -> None:
        object.__setattr__(self, "allocation", allocation)
        object.__setattr__(self, "utilities", utilities)
        object.__setattr__(self, "prices", prices)
        object.__setattr__(self, "log_nash_welfare", log_nash_welfare)


def _active_agents(instance: Instance) -> list[int]:
    return [i for i in range(instance.n) if any(v != 0 for v in instance.values[i])]


def _certificate(
    rows: list[list[Fraction]], rates: list[list[float]], theta: float
) -> list[list[Fraction]] | None:
    """Exact equilibrium shares x[a][g] on the near-tied structure of ``rates``, or None.

    ``rows`` are the active agents' values, each summing to 1, and ``rates`` the
    float values per unit of utility. Prices come from a BFS over each component
    of the near-tied edges, scaled so a component's prices sum to its number of
    agents; once no agent gets more than her rate alpha anywhere, the exactly
    tight edges carry the budgets by an integer max flow.
    """
    k, m = len(rows), len(rows[0])
    cut = [max(column) * (1.0 - theta) for column in zip(*rates)]
    edge = [[rows[a][g] > 0 and rates[a][g] >= cut[g] for g in range(m)] for a in range(k)]
    alpha: list[Fraction] = [ZERO] * k
    price: list[Fraction] = [ZERO] * m
    for root in range(k):
        if alpha[root]:
            continue
        alpha[root] = ONE
        agents, goods = [root], []
        for a in agents:  # grows while it is walked: a BFS in index order
            for g in range(m):
                if edge[a][g] and not price[g]:
                    price[g] = rows[a][g] / alpha[a]
                    goods.append(g)
                    for h in range(k):
                        if edge[h][g] and not alpha[h]:
                            alpha[h] = rows[h][g] / price[g]
                            agents.append(h)
        if not goods:
            return None
        scale = len(agents) / sum(price[g] for g in goods)
        for g in goods:
            price[g] *= scale
        for a in agents:
            alpha[a] /= scale
    tight = []  # an item left at price zero fails here: someone values it
    for a in range(k):
        for g in range(m):
            if rows[a][g] > 0:
                bought = alpha[a] * price[g]
                if rows[a][g] > bought:
                    return None
                if rows[a][g] == bought:
                    tight.append((a, g))

    denominator = math.lcm(*(p.denominator for p in price))
    src, snk = k + m, k + m + 1
    flow = _MaxFlow(k + m + 2)
    for a in range(k):
        flow.add(src, a, denominator)
    arcs = [flow.add(a, k + g, denominator) for a, g in tight]
    for g in range(m):
        flow.add(k + g, snk, int(price[g] * denominator))
    if flow.solve(src, snk) != k * denominator:
        return None
    shares = [[ZERO] * m for _ in range(k)]
    for (a, g), eid in zip(tight, arcs):
        shares[a][g] = Fraction(flow.cap[eid ^ 1], denominator) / price[g]
    return shares


def _equilibrium_shares(rows: list[list[Fraction]]) -> list[list[Fraction]]:
    """Proportional response on the float rows until the exact certificate holds."""
    values = [[float(v) for v in row] for row in rows]
    spend = values
    for it in range(FLOAT_ITER_CAP):
        prices = [sum(column) for column in zip(*spend)]
        gains = [
            [v * s / p if p else 0.0 for v, s, p in zip(vrow, srow, prices)]
            for vrow, srow in zip(values, spend)
        ]
        utils = [sum(row) for row in gains]
        spend = [[gain / u for gain in row] for row, u in zip(gains, utils)]
        if it % CERTIFY_EVERY == 0:
            rates = [[v / u for v in row] for row, u in zip(values, utils)]
            # rates tied closer than THETA at equilibrium need the finer cut
            for theta in sorted({THETA, THETA / 2 ** (it // THETA_HALF_LIFE)}, reverse=True):
                shares = _certificate(rows, rates, theta)
                if shares is not None:
                    return shares
    raise SolveError(f"no equilibrium certificate within {FLOAT_ITER_CAP} float iterations")


def solve_mnw(instance: Instance) -> MnwSolution:
    """Maximize the product of agents' utilities over complete fractional allocations.

    Only goods instances are supported. Agents with all-zero value rows are left
    out of the product and receive nothing. The returned allocation is an exact
    equilibrium (it passes ``ceei_verify`` with zero slack). Utilities and prices
    are unique; where several allocations attain them, the one returned is the
    Edmonds-Karp flow in agent/item index order on the equality graph of those
    prices, so it does not depend on the float stage.

    >>> sol = solve_mnw(Instance.from_rows([[1, 2], [1, 3]]))
    >>> [[str(v) for v in row] for row in sol.allocation.matrix]
    [['1', '1/4'], ['0', '3/4']]
    """
    if instance.kind != GOODS:
        raise KindMismatchError("solve_mnw handles goods instances only")
    n, m = instance.n, instance.m
    active = _active_agents(instance)
    if m == 0 or not active:
        empty = FractionalAllocation(tuple(tuple([ZERO] * m) for _ in range(n)))
        if m > 0:
            raise InputError("a goods instance with items needs at least one interested agent")
        return MnwSolution(empty, (ZERO,) * n, (), 0.0)

    rows = []
    for i in active:
        total = instance.total_value(i)
        rows.append([Fraction(v) / total for v in instance.values[i]])
    shares = _equilibrium_shares(rows)
    matrix = [[ZERO] * m for _ in range(n)]
    for a, i in enumerate(active):
        matrix[i] = shares[a]
    x = FractionalAllocation(tuple(tuple(row) for row in matrix))

    utilities = tuple(
        instance.utility(i, x.row(i)) if i in active else ZERO for i in range(n)
    )
    prices = tuple(
        max(Fraction(instance.values[h][g]) / utilities[h] for h in active)
        for g in range(m)
    )
    # logs of the integer parts: a float of the utility itself may overflow
    log_nw = sum(math.log(utilities[i].numerator) - math.log(utilities[i].denominator) for i in active)
    return MnwSolution(x, utilities, prices, log_nw)


def ceei_verify(
    instance: Instance,
    x: FractionalAllocation,
    slack: Fraction | int = 0,
    kind: str | None = None,
) -> PropertyVerdict:
    """Check the competitive-equilibrium condition on a complete allocation.

    Goods: every held unit must deliver the market-best value per unit of spending,
    v_i(g)/v_i(X_i) >= v_h(g)/v_h(X_h) - slack whenever X_{i,g} > 0. Bads mirror it
    with <= and +slack. Agents with all-zero value rows are outside the condition.
    """
    kind = instance.kind if kind is None else kind
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
        bundle_values[i] = instance.utility(i, alloc.fractional_row(i))
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
