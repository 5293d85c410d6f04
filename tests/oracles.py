"""Brute-force and Fraction reference oracles, for the tests only."""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from fairlot.core import (
    ONE,
    ZERO,
    FractionalAllocation,
    InputError,
    Instance,
    IntegralAllocation,
    Lottery,
)
from fairlot.decomp import _MaxFlow, bvn_decompose
from fairlot.eating import EatingState
from fairlot.properties import check_envy, enumerate_integral_allocations


def nash_product(instance: Instance, alloc: FractionalAllocation) -> Fraction:
    """Product of utilities over agents that value something; zero-value rows are skipped."""
    product = ONE
    for i in range(instance.n):
        if any(v != 0 for v in instance.values[i]):
            product *= instance.utility(i, alloc.matrix[i])
    return product


def integral_nash_argmax(
    instance: Instance,
) -> tuple[Fraction, list[IntegralAllocation]]:
    """Best Nash product over complete integral allocations, with all argmaxes."""
    best: Fraction | None = None
    argmax: list[IntegralAllocation] = []
    for alloc in enumerate_integral_allocations(instance):
        p = nash_product(instance, alloc)
        if best is None or p > best:
            best, argmax = p, [alloc]
        elif p == best:
            argmax.append(alloc)
    if best is None:  # pragma: no cover - zero goods
        raise InputError("no allocations to enumerate")
    return best, argmax


def enumerate_ef1_allocations(instance: Instance) -> list[IntegralAllocation]:
    """All complete integral EF1 allocations (kind-routed)."""
    return [
        a
        for a in enumerate_integral_allocations(instance)
        if check_envy(instance, a, "ef1").holds
    ]


def fractional_row(alloc: IntegralAllocation, i: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(x) for x in alloc.matrix[i])


def to_fractional(alloc: IntegralAllocation) -> FractionalAllocation:
    return FractionalAllocation(tuple(tuple(Fraction(x) for x in row) for row in alloc.matrix))


def lottery_marginal(lottery: Lottery) -> FractionalAllocation:
    """``Lottery.marginal`` by Fraction sums, one part weight at a time in each cell."""
    acc = [[ZERO] * lottery.m for _ in range(lottery.n)]
    for w, alloc in lottery.support:
        for i, row in enumerate(alloc.matrix):
            for j, x in enumerate(row):
                if x:
                    acc[i][j] += w
    return FractionalAllocation(tuple(tuple(row) for row in acc))


def expected_utility(lottery: Lottery, instance: Instance, i: int) -> Fraction:
    return instance.utility(i, lottery.marginal.row(i))


# ---------------------------------------------------------------------------
# The Fraction eating protocol and stage path the integer ones replaced.
# ---------------------------------------------------------------------------


def eating_targets(state: EatingState) -> tuple[int | None, ...]:
    """The item each agent currently eats: her best-ranked item with mass left."""
    return tuple(next((j for j in order if state.remaining[j] > 0), None) for order in state.prefs)


def eating_exhausted(state: EatingState) -> bool:
    """Whether no item has mass left."""
    return all(r == 0 for r in state.remaining)


def eating_step(state: EatingState, until: Fraction) -> EatingState:
    """Advance to the next exhaustion event or to time ``until``, whichever is first."""
    if state.clock >= until or eating_exhausted(state):
        return state
    eaters: dict[int, list[int]] = {}
    for i, j in enumerate(eating_targets(state)):
        if j is not None:
            eaters.setdefault(j, []).append(i)
    delta = until - state.clock
    for j, who in eaters.items():
        delta = min(delta, state.remaining[j] / len(who))
    remaining = list(state.remaining)
    eaten = [list(row) for row in state.eaten]
    for j, who in eaters.items():
        for i in who:
            eaten[i][j] += delta
        remaining[j] -= delta * len(who)
    return EatingState(
        prefs=state.prefs,
        remaining=tuple(remaining),
        eaten=tuple(tuple(row) for row in eaten),
        clock=state.clock + delta,
    )


def eating_run(state: EatingState, duration: Fraction) -> EatingState:
    """``EatingState.run`` by repeated Fraction events."""
    until = state.clock + duration
    while state.clock < until and not eating_exhausted(state):
        state = eating_step(state, until)
    return state


def stage_expand(
    prefs: Sequence[Sequence[int]], mask: frozenset[int]
) -> tuple[tuple[Fraction, tuple[tuple[int, int], ...], frozenset[int]], ...]:
    """``rps._StageEngine.expand`` on the Fraction path: Fraction eating events,
    a FractionalAllocation of the eaten columns, a ``bvn_decompose`` Lottery,
    then each part's cells mapped back to item indices."""
    items = sorted(mask)
    local = {j: k for k, j in enumerate(items)}
    local_prefs = [[local[j] for j in order if j in local] for order in prefs]
    eaten = eating_run(EatingState.start(local_prefs, (ONE,) * len(items)), ONE).eaten
    cols = [k for k in range(len(items)) if any(row[k] != ZERO for row in eaten)]
    stage = FractionalAllocation(tuple(tuple(row[k] for k in cols) for row in eaten))
    parts = []
    for weight, alloc in bvn_decompose(stage).support:
        cells = tuple((i, items[cols[k]]) for i, row in enumerate(alloc.matrix) for k, x in enumerate(row) if x)
        parts.append((weight, cells, mask - frozenset(j for _, j in cells)))
    return tuple(parts)


# ---------------------------------------------------------------------------
# The Fraction MNW price rounds the integer ones replaced.
# ---------------------------------------------------------------------------


def mnw_spend(
    k: int, m: int, agents: list[int], edges: list[tuple[int, int]], price: dict[int, Fraction]
) -> tuple[_MaxFlow, list[int], int, Fraction]:
    """Route unit budgets of ``agents`` along ``edges`` to the items priced in ``price``.

    Nodes are agents 0..k-1, items k..k+m-1, then source and sink; capacities are
    scaled by the common denominator of the prices. Returns the solved network,
    the arc of each edge, that denominator and the value left unsold.
    """
    denominator = math.lcm(*(p.denominator for p in price.values()))
    src, snk = k + m, k + m + 1
    flow = _MaxFlow(k + m + 2)
    for a in agents:
        flow.add(src, a, denominator)
    arcs = [flow.add(a, k + g, denominator) for a, g in edges]
    for g, p in price.items():
        flow.add(k + g, snk, int(p * denominator))
    sold = Fraction(flow.solve(src, snk), denominator)
    return flow, arcs, denominator, sum(price.values()) - sold


def mnw_equilibrium_shares(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[Fraction]]:
    """``mnw._equilibrium_shares`` in Fractions, on rows normalised to sum to 1."""
    k, m = len(rows), len(rows[0])
    alpha = [m * max(row) for row in rows]  # value per unit of price of a best buy
    price = [max(row[g] / best for row, best in zip(rows, alpha)) for g in range(m)]
    while True:
        edges = [(a, g) for a in range(k) for g in range(m) if rows[a][g] == alpha[a] * price[g]]
        flow, arcs, denominator, unsold = mnw_spend(k, m, list(range(k)), edges, dict(enumerate(price)))
        if unsold:
            raise RuntimeError("ascending prices left an item unsold")
        if sum(price) == k:
            shares = [[ZERO] * m for _ in range(k)]
            for (a, g), eid in zip(edges, arcs):
                shares[a][g] = Fraction(flow.cap[eid ^ 1], denominator) / price[g]
            return shares, price
        live_agents = [a for a in range(k) if flow.reach[a] != -1]
        live_items = {g for g in range(m) if flow.reach[k + g] != -1}
        live_edges = [(a, g) for a, g in edges if flow.reach[a] != -1]
        tight = live_items
        while True:  # min |buyers(S)| / price(S) over live S, by shrinking the violated set
            x = len({a for a, g in live_edges if g in tight}) / sum(price[g] for g in tight)
            raised = {g: x * price[g] for g in live_items}
            flow, _, _, unsold = mnw_spend(k, m, live_agents, live_edges, raised)
            if not unsold:
                break
            tight = {g for g in live_items if flow.reach[k + g] == -1}
        for a in live_agents:
            for g, value in enumerate(rows[a]):
                if value and g not in live_items:
                    x = min(x, alpha[a] * price[g] / value)
        for a in live_agents:
            alpha[a] /= x
        for g in live_items:
            price[g] *= x
