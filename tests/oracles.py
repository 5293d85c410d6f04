"""Brute-force and Fraction reference oracles, for the tests only."""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Sequence

from fairlot.core import (
    BADS,
    GOODS,
    MIXED,
    ONE,
    ZERO,
    FractionalAllocation,
    InputError,
    Instance,
    IntegralAllocation,
    KindMismatchError,
    Lottery,
    PropertyVerdict,
    SizeLimitError,
    exact_draw,
    ordinal_preferences,
    sd_dominates,
)
from fairlot.decomp import _MaxFlow, bvn_decompose, caratheodory_weights
from fairlot.eating import EatingState
from fairlot.properties import ENVY_NOTIONS, _as_integral, check_envy, enumerate_integral_allocations
from fairlot.rps import POLY_SUPPORT, SAMPLE, _StageEngine


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


def check_envy_reference(
    instance: Instance,
    alloc: FractionalAllocation,
    notion: str,
    k: int | None = None,
) -> PropertyVerdict:
    """``check_envy`` as it was before its notions shared one pair loop: a
    separate double loop per notion, kept verbatim as the reference."""
    if notion not in ENVY_NOTIONS:
        raise InputError(f"unknown envy notion: {notion}")
    if alloc.n != instance.n or alloc.m != instance.m:
        raise InputError("allocation shape does not match instance")
    n = instance.n
    label = f"ef{k}" if notion == "efk" else notion

    if notion == "ef":
        for i in range(n):
            own = instance.utility(i, alloc.matrix[i])
            for h in range(n):
                if h != i and own < instance.utility(i, alloc.matrix[h]):
                    return PropertyVerdict(
                        "ef",
                        False,
                        {
                            "envious": i,
                            "envied": h,
                            "own": str(own),
                            "other": str(instance.utility(i, alloc.matrix[h])),
                        },
                    )
        return PropertyVerdict("ef", True)

    if notion == "sd_ef":
        for i in range(n):
            for h in range(n):
                if h != i and not sd_dominates(instance.prefs, i, alloc.matrix[i], alloc.matrix[h]):
                    return PropertyVerdict("sd_ef", False, {"envious": i, "envied": h})
        return PropertyVerdict("sd_ef", True)

    if notion == "wef1":
        a = _as_integral(alloc, notion)
        for i in range(n):
            row = instance.values[i]
            worth = [[row[j] for j in bundle] for bundle in a.bundles]
            # the best single removals: i's worst own bad, and i's best good of h's
            own = sum(worth[i], ZERO) - min([ZERO, *worth[i]])
            for h in range(n):
                if h != i and own < sum(worth[h], ZERO) - max([ZERO, *worth[h]]):
                    return PropertyVerdict("wef1", False, {"envious": i, "envied": h})
        return PropertyVerdict("wef1", True)

    if notion in ("ef1", "efk"):
        steps = 1 if notion == "ef1" else k
        if steps is None or steps < 1:
            raise InputError("efk requires k >= 1")
        if instance.kind == MIXED:
            raise KindMismatchError("ef1/efk are kind-specific; use wef1 for mixed instances")
        a = _as_integral(alloc, label)
        for i in range(n):
            own = instance.bundle_value(i, a.bundles[i])
            for h in range(n):
                if h == i:
                    continue
                other = instance.bundle_value(i, a.bundles[h])
                if instance.kind == GOODS:
                    if not a.bundles[h]:
                        continue
                    # removing the k goods i values most is optimal
                    drops = sorted((instance.values[i][j] for j in a.bundles[h]), reverse=True)
                    if own >= other - sum(drops[:steps], ZERO):
                        continue
                else:
                    drops = sorted(instance.values[i][j] for j in a.bundles[i])
                    if own - sum(drops[:steps], ZERO) >= other:
                        continue
                return PropertyVerdict(
                    label,
                    False,
                    {
                        "envious": i,
                        "envied": h,
                        "own": str(own),
                        "other": str(other),
                    },
                )
        return PropertyVerdict(label, True)

    if notion == "sd_ef1":
        if instance.kind != GOODS:
            raise KindMismatchError("sd_ef1 is defined for goods instances")
        a = _as_integral(alloc, notion)
        prefs = instance.prefs
        for i in range(n):
            for h in range(n):
                if h == i or not a.bundles[h]:
                    continue
                # removing h's item that i ranks first lowers every prefix sum the most
                reduced = list(a.matrix[h])
                reduced[next(j for j in prefs[i] if reduced[j])] = 0
                if not sd_dominates(prefs, i, a.matrix[i], reduced):
                    return PropertyVerdict("sd_ef1", False, {"envious": i, "envied": h})
        return PropertyVerdict("sd_ef1", True)

    if notion == "ef11_goods":
        if instance.kind != GOODS:
            raise KindMismatchError("ef11_goods applies to goods instances")
        a = _as_integral(alloc, notion)
        for i in range(n):
            own = instance.bundle_value(i, a.bundles[i])
            outside = [instance.values[i][j] for j in range(instance.m) if a.matrix[i][j] == 0]
            for h in range(n):
                if h == i or not a.bundles[h]:
                    continue
                other = instance.bundle_value(i, a.bundles[h])
                gain = max(outside) if outside else ZERO
                drop = max(instance.values[i][j] for j in a.bundles[h])
                if own + gain < other - drop:
                    return PropertyVerdict(
                        "ef11_goods",
                        False,
                        {
                            "envious": i,
                            "envied": h,
                            "own_plus_best": str(own + gain),
                            "other_minus_best": str(other - drop),
                        },
                    )
        return PropertyVerdict("ef11_goods", True)

    if notion == "ef11_bads":
        if instance.kind != BADS:
            raise KindMismatchError("ef11_bads applies to bads instances")
        a = _as_integral(alloc, notion)
        for i in range(n):
            if not a.bundles[i]:
                continue
            own = instance.bundle_value(i, a.bundles[i])
            drop = min(instance.values[i][j] for j in a.bundles[i])
            for h in range(n):
                if h == i:
                    continue
                other = instance.bundle_value(i, a.bundles[h])
                added = [instance.values[i][j] for j in range(instance.m) if a.matrix[h][j] == 0]
                gain = min(added) if added else ZERO
                if own - drop < other + gain:
                    return PropertyVerdict(
                        "ef11_bads",
                        False,
                        {
                            "envious": i,
                            "envied": h,
                            "own_minus_worst": str(own - drop),
                            "other_plus_worst": str(other + gain),
                        },
                    )
        return PropertyVerdict("ef11_bads", True)

    raise InputError(f"unknown envy notion: {notion}")  # pragma: no cover


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


def point_lottery(alloc: IntegralAllocation) -> Lottery:
    """The lottery that draws ``alloc`` with probability 1."""
    return Lottery(((ONE, alloc),))


def reduce_support(lottery: Lottery) -> Lottery:
    """Shrink a lottery's support to at most n*m + 1 allocations, keeping the
    marginal exactly equal, using only allocations already in the support."""
    if len(lottery.support) <= 1:
        return lottery
    columns = [[v for row in alloc.matrix for v in row] for _, alloc in lottery.support]
    weights = caratheodory_weights(columns, [w for w, _ in lottery.support])
    return Lottery(tuple((w, alloc) for w, (_, alloc) in zip(weights, lottery.support) if w > 0))


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


# ---------------------------------------------------------------------------
# The RPS stage loop before sample mode shared it: full and poly mode on
# frontiers keyed by matrix alone, sample mode as a separate walk, and the
# padding columns stripped from the finished result.
# ---------------------------------------------------------------------------


def _unassigned(mat: tuple[tuple[int, ...], ...]) -> frozenset[int]:
    return frozenset(j for j in range(len(mat[0])) if all(row[j] == 0 for row in mat))


def rps_distribution(engine: _StageEngine, trim: bool) -> dict[tuple[tuple[int, ...], ...], Fraction]:
    """``_StageEngine.distribution`` in full (``trim`` false) or poly mode."""
    cap = engine.n * engine.m + 1
    frontier = {tuple((0,) * engine.m for _ in range(engine.n)): ONE}
    for _ in range(engine.stages()):
        expanded: dict[tuple[tuple[int, ...], ...], Fraction] = {}
        for mat, weight in frontier.items():
            for w, cells, _ in engine.expand(_unassigned(mat)):
                rows = [list(r) for r in mat]
                for i, j in cells:
                    rows[i][j] = 1
                key = tuple(tuple(r) for r in rows)
                expanded[key] = expanded.get(key, ZERO) + weight * w
        if not trim and len(expanded) > 50_000:
            raise SizeLimitError(f"support grew to {len(expanded)} allocations; use poly_support mode")
        if trim and len(expanded) > cap:
            keys = list(expanded)
            columns = []
            for mat in keys:
                sub = engine.marginal(_unassigned(mat))
                columns.append([mat[i][j] + sub[i][j] for i in range(engine.n) for j in range(engine.m)])
            weights = caratheodory_weights(columns, [expanded[mat] for mat in keys])
            expanded = {mat: w for mat, w in zip(keys, weights) if w > 0}
        frontier = expanded
    return frontier


def rps_sample_walk(engine: _StageEngine, rng: random.Random) -> tuple[tuple[int, ...], ...]:
    """One seeded branch, drawn stage by stage until no item is left."""
    rows = [[0] * engine.m for _ in range(engine.n)]
    mask = frozenset(range(engine.m))
    while mask:
        _, cells, mask = exact_draw(engine.expand(mask), rng)
        for i, j in cells:
            rows[i][j] = 1
    return tuple(tuple(r) for r in rows)


def rps_reference(instance: Instance, padded: bool, mode: str, seed: int) -> Lottery | IntegralAllocation:
    """``rps`` (``padded`` false) or ``rps_bads``/``rps_mixed`` (true) without
    their kind checks: padded instances get zero-valued dummies up to a multiple
    of n items, and the dummy columns are cut from the built result."""
    pad = (-instance.m) % instance.n if padded else 0
    prefs = ordinal_preferences([tuple(row) + (ZERO,) * pad for row in instance.values])
    engine = _StageEngine(prefs, instance.m + pad)
    if mode == SAMPLE:
        result: Lottery | IntegralAllocation = IntegralAllocation(rps_sample_walk(engine, random.Random(seed)))
    else:
        table = rps_distribution(engine, trim=mode == POLY_SUPPORT)
        result = Lottery(tuple((w, IntegralAllocation(mat)) for mat, w in table.items()))
    if not pad:
        return result
    if isinstance(result, IntegralAllocation):
        return IntegralAllocation(tuple(row[: instance.m] for row in result.matrix))
    return Lottery(
        tuple((w, IntegralAllocation(tuple(row[: instance.m] for row in alloc.matrix))) for w, alloc in result.support)
    )
