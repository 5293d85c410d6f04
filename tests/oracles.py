"""Brute-force and Fraction reference oracles, for the tests only."""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from typing import Sequence

from fairlot import lp
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
    SolveError,
    ZeroUtilityError,
    _Frozen,
    exact_draw,
    sd_dominates,
)
from fairlot.decomp import _MaxFlow, _extract, bvn_decompose, caratheodory_weights
from fairlot.eating import EatingState
from fairlot.mnw import solve_mnw
from fairlot.properties import (
    ENVY_NOTIONS,
    SHARE_NOTIONS,
    _as_integral,
    check_envy,
    enumerate_integral_allocations,
)
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


def ordinal_preferences_reference(rows: Sequence[Sequence[Fraction]]) -> tuple[tuple[int, ...], ...]:
    """Per-agent item orders keyed on Fraction values, as ``core.ordinal_preferences``
    sorted before it read int rows: value descending, ties by ascending item index."""
    return tuple(tuple(sorted(range(len(row)), key=lambda j: (-Fraction(row[j]), j))) for row in rows)


def check_envy_reference(
    instance: Instance,
    alloc: FractionalAllocation,
    notion: str,
    k: int | None = None,
) -> PropertyVerdict:
    """``check_envy`` as it was before its notions shared one pair loop: a
    separate double loop per notion on Fraction cells and Fraction-keyed orders.
    ``sd_ef`` follows the corrected definition: the goods test when no value is
    negative, its mirror when none is positive, and no verdict on mixed values."""
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
        bads = any(v < 0 for row in instance.values for v in row)
        if bads and any(v > 0 for row in instance.values for v in row):
            raise KindMismatchError("sd_ef is defined for goods or bads instances")
        prefs = ordinal_preferences_reference(instance.values)
        mass = lambda row, items: sum((row[j] for j in items), ZERO)
        for i in range(n):
            for h in range(n):
                if h == i:
                    continue
                # goods: on no head of i's order (its best items) does i hold less
                # mass than h; bads: on no tail (its worst items) does i hold more
                order, own, other = prefs[i], alloc.matrix[i], alloc.matrix[h]
                if bads:
                    envious = any(mass(own, order[k:]) > mass(other, order[k:]) for k in range(len(order)))
                else:
                    envious = any(mass(own, order[:k]) < mass(other, order[:k]) for k in range(1, len(order) + 1))
                if envious:
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
        prefs = ordinal_preferences_reference(instance.values)
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


def check_share_reference(
    instance: Instance,
    alloc: FractionalAllocation,
    notion: str,
    strict: bool = False,
) -> PropertyVerdict:
    """``check_share`` as it was before ``prop1_goods`` and ``prop1_bads``
    compared ints: Fraction bundle values, shares and one-item adjustments."""
    if notion not in SHARE_NOTIONS:
        raise InputError(f"unknown share notion: {notion}")
    alloc.check_shape(instance)
    if notion == "prop":
        for i in range(instance.n):
            value = instance.utility(i, alloc.matrix[i])
            share = instance.proportional_share(i)
            if value < share:
                return PropertyVerdict(
                    "prop",
                    False,
                    {"agent": i, "value": str(value), "share": str(share)},
                )
        return PropertyVerdict("prop", True)

    kind = GOODS if notion == "prop1_goods" else BADS
    if instance.kind != kind:
        raise KindMismatchError(f"{notion} applies to {kind} instances, got {instance.kind}")
    a = _as_integral(alloc, notion)
    for i in range(instance.n):
        own = instance.bundle_value(i, a.bundles[i])
        share = instance.proportional_share(i)
        if own >= share:
            continue
        if kind == GOODS:
            candidates = [j for j in range(instance.m) if a.matrix[i][j] == 0]
            adjusted = [(own + instance.values[i][j], j) for j in candidates]
        else:
            adjusted = [(own - instance.values[i][j], j) for j in a.bundles[i]]
        best = max(adjusted, default=None)
        passes = best is not None and (best[0] > share if strict else best[0] >= share)
        if not passes:
            witness = {"agent": i, "value": str(own), "share": str(share)}
            if best is not None:
                witness["best_item"] = best[1]
                witness["best_value"] = str(best[0])
            return PropertyVerdict(notion, False, witness)
    return PropertyVerdict(notion, True)


def fpo_lp_reference(instance: Instance, alloc: FractionalAllocation) -> PropertyVerdict:
    """The fpo verdict from one exact LP: the most total utility over complete
    fractional allocations that leave every agent at least its current utility.
    The allocation is fPO iff that optimum is its own total; otherwise the
    optimum is the dominator witness."""
    n, m = instance.n, instance.m
    current = [instance.utility(i, alloc.matrix[i]) for i in range(n)]
    objective = [instance.values[i][j] for i in range(n) for j in range(m)]
    # every item fully assigned; every agent keeps at least its current utility
    assigned = [
        ([ONE if jj == j else ZERO for i in range(n) for jj in range(m)], ONE) for j in range(m)
    ]
    keeps = [
        ([instance.values[i][j] if ii == i else ZERO for ii in range(n) for j in range(m)], current[i])
        for i in range(n)
    ]
    sol = lp.solve(objective, assigned, keeps)
    assert sol.status == lp.OPTIMAL  # the current allocation is feasible
    if sol.objective_value == sum(current, ZERO):
        return PropertyVerdict("fpo", True)
    dominator = [[str(sol.values[i * m + j]) for j in range(m)] for i in range(n)]
    return PropertyVerdict("fpo", False, {"dominator": dominator})


def certify_standard_reference(
    a0: list[list[Fraction]],
    b0: list[Fraction],
    cost: list[Fraction],
    basis: Sequence[int],
    values: Sequence[Fraction],
) -> None:
    """Exact strong-duality check for min{c.x : Ax=b, x>=0}; raises on failure.

    ``tests/conftest.py`` runs it on every optimal return of ``lp._solve_standard``,
    so a wrong pivot cannot silently produce a wrong optimum anywhere in the suite.
    """
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


def lottery_check_reference(support: Sequence[tuple[Fraction, IntegralAllocation]]) -> tuple:
    """``Lottery._check`` as it was before it summed int numerators: the same errors
    in the same order, the merged weights summed as Fractions. Returns the
    canonical support that a valid lottery stores."""
    if not support:
        raise InputError("lottery needs a nonempty support")
    n, m = support[0][1].n, support[0][1].m
    merged: dict[tuple[tuple[int, ...], ...], Fraction] = {}
    first: dict[tuple[tuple[int, ...], ...], IntegralAllocation] = {}
    for w, alloc in support:
        if alloc.n != n or alloc.m != m:
            raise InputError("lottery allocations have inconsistent shapes")
        if w <= 0:
            raise InputError(f"lottery weight {w} not positive")
        merged[alloc.matrix] = merged.get(alloc.matrix, ZERO) + w
        first.setdefault(alloc.matrix, alloc)
    total = sum(merged.values(), ZERO)
    if total != 1:
        raise InputError(f"lottery weights sum to {total}, expected 1")
    return tuple((merged[mat], first[mat]) for mat in sorted(merged))


def expected_utility(lottery: Lottery, instance: Instance, i: int) -> Fraction:
    return instance.utility(i, lottery.marginal.row(i))


# ---------------------------------------------------------------------------
# The Fraction utilities and equilibrium check the integer rows replaced.
# ---------------------------------------------------------------------------


def utility_reference(instance: Instance, i: int, bundle: Sequence[Fraction]) -> Fraction:
    """``Instance.utility`` as a Fraction sum, one term at a time."""
    row = instance.values[i]
    if len(bundle) != len(row):
        raise InputError("bundle length does not match item count")
    return sum((row[j] * x for j, x in enumerate(bundle)), ZERO)


def bundle_value_reference(instance: Instance, i: int, items: Sequence[int]) -> Fraction:
    row = instance.values[i]
    return sum((row[j] for j in items), ZERO)


def allocation_check_reference(matrix: Sequence[Sequence[object]], integral: bool = False) -> None:
    """The Fraction validation of ``FractionalAllocation`` (and, with ``integral``,
    of ``IntegralAllocation``) that the integer form replaced: the same errors in
    the same order, from two Fraction comparisons per cell and a Fraction sum per
    column, whose type catches a cell that is no int or Fraction."""
    if integral:
        for row in matrix:
            for x in row:
                if x not in (0, 1):
                    raise InputError(f"integral allocation cell {x} not 0/1")
    if not matrix:
        raise InputError("allocation needs at least one agent row")
    m = len(matrix[0])
    for row in matrix:
        if len(row) != m:
            raise InputError("allocation rows have inconsistent lengths")
        for x in row:
            if x < 0 or x > 1:
                raise InputError(f"allocation cell {x} outside [0, 1]")
    sums = [sum(column, 0) for column in zip(*matrix)]
    if not {int, Fraction}.issuperset(map(type, sums)):
        raise InputError("allocation has a cell that is not an int or a Fraction")
    for j, s in enumerate(sums):
        if s > 1:
            raise InputError(f"column {j} allocates more than the whole item ({s})")


def total_value_reference(instance: Instance, i: int) -> Fraction:
    return sum(instance.values[i], ZERO)


def proportional_share_reference(instance: Instance, i: int) -> Fraction:
    return total_value_reference(instance, i) / instance.n


def ceei_verify_reference(
    instance: Instance, x: FractionalAllocation, slack: Fraction | int = 0
) -> PropertyVerdict:
    """``mnw.ceei_verify`` with every rival's rate recomputed per holder, in Fractions."""
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
    active = [i for i in range(instance.n) if any(v != 0 for v in instance.values[i])]
    utils = {i: utility_reference(instance, i, x.row(i)) for i in active}
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


def priced_at_one_reference(
    instance: Instance, x: FractionalAllocation, current: Sequence[Fraction]
) -> bool:
    """``check_gf``'s price certificate as a price vector: whether every u_i > 0
    and every bundle costs 1 at p_g = max_h v_hg / u_h."""
    if any(u <= 0 for u in current):
        return False
    prices = [max(row[g] / u for row, u in zip(instance.values, current)) for g in range(instance.m)]
    return all(sum((p * c for p, c in zip(prices, row) if c), ZERO) == 1 for row in x.matrix)


def mnw_deviation_witness_reference(
    instance: Instance, alloc: IntegralAllocation
) -> tuple[int, int, tuple[Fraction, ...]] | None:
    """``mnw.mnw_deviation_witness`` as a search over the Fraction gap of each
    held item's holder and rival, with the transfer's gain tested per pair."""
    if alloc.n != instance.n or alloc.m != instance.m:
        raise InputError("allocation shape does not match instance")
    if not alloc.complete:
        raise InputError("deviation search needs a complete allocation")
    active = [i for i in range(instance.n) if any(v != 0 for v in instance.values[i])]
    z = solve_mnw(instance)
    bundle_values = {i: utility_reference(instance, i, alloc.row(i)) for i in active}
    a_product = z_product = ONE
    for i in active:
        a_product *= bundle_values[i]
        z_product *= z.utilities[i]
    if a_product >= z_product:
        return None
    for g in range(instance.m):
        holders = [i for i in active if alloc.matrix[i][g] == 1]
        if not holders:
            continue
        i = holders[0]
        for j in active:
            if j == i:
                continue
            gap = instance.values[j][g] * bundle_values[i] - instance.values[i][g] * bundle_values[j]
            if gap <= 0:
                continue
            cross = instance.values[j][g] * instance.values[i][g]
            eps = ONE if cross == 0 else min(ONE, gap / (2 * cross))
            vi_slice = eps * instance.values[i][g]
            vj_slice = eps * instance.values[j][g]
            if vj_slice * (bundle_values[i] - vi_slice) > bundle_values[j] * vi_slice:
                return (i, j, tuple(eps if gg == g else ZERO for gg in range(instance.m)))
    raise SolveError("allocation is below the Nash optimum but no transfer was found")


# ---------------------------------------------------------------------------
# The Fraction rounding checkers the integer rows replaced.
# ---------------------------------------------------------------------------


def utility_guarantee_reference(
    instance: Instance, x: FractionalAllocation, part: IntegralAllocation
) -> PropertyVerdict:
    """``rounding.check_utility_guarantee`` with every utility, bundle value and
    one-item adjustment a Fraction, added and compared term by term."""
    if x.n != instance.n or x.m != instance.m:
        raise InputError("allocation shape does not match instance")
    if part.n != x.n or part.m != x.m:
        raise InputError("part shape does not match allocation")
    kind = instance.kind
    if kind not in (GOODS, BADS):
        raise KindMismatchError(f"utility guarantee applies to goods or bads, got {kind}")
    for i in range(instance.n):
        have = bundle_value_reference(instance, i, part.bundles[i])
        want = utility_reference(instance, i, x.row(i))
        if have == want:
            continue
        gains = [
            instance.values[i][j]
            for j in range(instance.m)
            if part.matrix[i][j] == 0 and x.matrix[i][j] > 0
        ]
        drops = [instance.values[i][j] for j in part.bundles[i] if x.matrix[i][j] < 1]
        if have < want:
            ok = (
                any(have + v > want for v in gains)
                if kind == GOODS
                else any(have - v > want for v in drops)
            )
        else:
            ok = (
                any(have - v < want for v in drops)
                if kind == GOODS
                else any(have + v < want for v in gains)
            )
        if not ok:
            witness = {
                "agent": i,
                "case": "deficit" if have < want else "surplus",
                "value": str(have),
                "target": str(want),
            }
            return PropertyVerdict("utility_guarantee", False, witness)
    return PropertyVerdict("utility_guarantee", True)


def adjusted_envy_chain_reference(
    instance: Instance, x: FractionalAllocation, part: IntegralAllocation
) -> PropertyVerdict:
    """``rounding.check_adjusted_envy_chain`` in Fractions, with each rival's view
    of a bundle summed again per pair."""
    if instance.kind != GOODS:
        raise KindMismatchError(f"envy chain applies to goods instances, got {instance.kind}")
    if x.n != instance.n or x.m != instance.m:
        raise InputError("allocation shape does not match instance")
    if part.n != x.n or part.m != x.m:
        raise InputError("part shape does not match allocation")
    n = instance.n
    fractional = [utility_reference(instance, i, x.row(i)) for i in range(n)]
    held = [bundle_value_reference(instance, i, part.bundles[i]) for i in range(n)]
    for h in range(n):
        if held[h] < fractional[h]:
            recoverable = any(
                part.matrix[h][j] == 0
                and x.matrix[h][j] > 0
                and held[h] + instance.values[h][j] > fractional[h]
                for j in range(instance.m)
            )
            if not recoverable:
                return PropertyVerdict("adjusted_envy_chain", False, {"agent": h, "case": "own_deficit"})
        for i in range(n):
            if i == h:
                continue
            rival_view = bundle_value_reference(instance, h, part.bundles[i])
            if held[i] <= fractional[i]:
                ok = rival_view <= fractional[h]
            else:
                ok = any(
                    x.matrix[i][j] < 1
                    and held[i] - instance.values[i][j] < fractional[i]
                    and rival_view - instance.values[h][j] < fractional[h]
                    for j in part.bundles[i]
                )
            if not ok:
                witness = {"agent": h, "rival": i, "case": "reduced_rival"}
                return PropertyVerdict("adjusted_envy_chain", False, witness)
    return PropertyVerdict("adjusted_envy_chain", True)


# ---------------------------------------------------------------------------
# Round-robin with each pick as a max over the remaining items.
# ---------------------------------------------------------------------------


def round_robin_reference(instance: Instance, mode: str = "exact", seed: int = 0) -> Lottery | IntegralAllocation:
    """``rps.randomized_round_robin`` without its checks: each agent picks the
    remaining item of highest value, the lowest index among ties."""

    def once(order: Sequence[int]) -> tuple[tuple[int, ...], ...]:
        rows = [[0] * instance.m for _ in range(instance.n)]
        remaining = set(range(instance.m))
        for turn in range(instance.m):
            agent = order[turn % len(order)]
            best = max(remaining, key=lambda j: (instance.values[agent][j], -j))
            rows[agent][best] = 1
            remaining.remove(best)
        return tuple(tuple(r) for r in rows)

    if mode == SAMPLE:
        order = list(range(instance.n))
        random.Random(seed).shuffle(order)
        return IntegralAllocation(once(order))
    orders = list(itertools.permutations(range(instance.n)))
    table: dict[tuple[tuple[int, ...], ...], Fraction] = {}
    for order in orders:
        mat = once(order)
        table[mat] = table.get(mat, ZERO) + Fraction(1, len(orders))
    return Lottery(tuple((w, IntegralAllocation(mat)) for mat, w in table.items()))


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


def mnw_live_reference(
    k: int, m: int, agents: list[int], edges: list[tuple[int, int]], budget: int, room: list[int]
) -> tuple[set[int], set[int], int, list[list[int]], bool]:
    """``mnw._live`` by the Edmonds-Karp ``_MaxFlow`` network, which every price
    round solved before ``_live`` took them all: nodes are agents 0..k-1, items
    k..k+m-1, then source and sink, with arcs added source -> agent, agent -> item
    in ``edges`` order, then item -> sink.

    Returns the live agents and items (``reach``), the capacity left unsold, the
    ``k x m`` flow read from the reverse of each agent -> item arc, and whether
    some agent sent its whole positive budget along one edge.
    """
    src, snk = k + m, k + m + 1
    flow = _MaxFlow(k + m + 2)
    for a in agents:
        flow.add(src, a, budget)
    arcs = [flow.add(a, k + g, budget) for a, g in edges]
    for g, c in enumerate(room):
        flow.add(k + g, snk, c)
    unsold = sum(room) - flow.solve(src, snk)
    live_agents = {a for a in range(k) if flow.reach[a] != -1}
    live_items = {g for g in range(m) if flow.reach[k + g] != -1}
    sent = [[0] * m for _ in range(k)]
    for (a, g), e in zip(edges, arcs):
        sent[a][g] = flow.cap[e ^ 1]
    return live_agents, live_items, unsold, sent, budget > 0 and any(flow.cap[e] == 0 for e in arcs)


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
    prefs = ordinal_preferences_reference([tuple(row) + (ZERO,) * pad for row in instance.values])
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


# ---------------------------------------------------------------------------
# The general bihierarchy front end: any two laminar families of quota sets,
# validated and compiled through their forests to a plan for ``decomp._extract``.
# The library compiles its two quota shapes straight to plans (``_bvn_plan`` and
# ``_prefix_plan``); this is the reference both are checked against.
# ---------------------------------------------------------------------------


class ConstraintSet(_Frozen):
    """A set of matrix cells whose total must stay within [lower, upper] in every part."""

    cells: frozenset[tuple[int, int]]
    lower: int
    upper: int

    def _check(self) -> None:
        cells = frozenset(self.cells)
        if cells is not self.cells:
            self._store("cells", cells)
        lower, upper = self.lower, self.upper
        if not cells:
            raise InputError("constraint set must cover at least one cell")
        if not isinstance(lower, int) or not isinstance(upper, int):
            raise InputError("quotas must be integers")
        if lower > upper:
            raise InputError(f"quota lower bound {lower} exceeds upper bound {upper}")


def _forest(sets: Sequence[frozenset]) -> tuple[list[int | None], dict] | None:
    """The laminar forest of distinct ``sets``: each set's parent (its smallest strict
    superset, else None) and each cell's innermost set, as indices into ``sets``.

    Sets are claimed largest first, so a set is laminar with every larger one iff
    all its cells have the same innermost earlier set (or none). Returns None when
    the family is not laminar.
    """
    parent: list[int | None] = [None] * len(sets)
    owner: dict = {}
    for k in sorted(range(len(sets)), key=lambda k: -len(sets[k])):
        holders = {owner.get(cell) for cell in sets[k]}
        if len(holders) > 1:
            return None
        (parent[k],) = holders
        for cell in sets[k]:
            owner[cell] = k
    return parent, owner


def _laminar_forest(family: Sequence[ConstraintSet], name: str) -> tuple[list[int | None], dict]:
    seen: set[frozenset] = set()
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
        if {cs.cells for cs in h1} & {cs.cells for cs in h2}:
            raise InputError("a constraint set appears in both hierarchies")

    def all_sets(self) -> tuple[ConstraintSet, ...]:
        return self.h1 + self.h2


def _floor_ceil(cells, total: Fraction) -> ConstraintSet:
    return ConstraintSet(frozenset(cells), math.floor(total), math.ceil(total))


def bvn_constraints(x: FractionalAllocation) -> Bihierarchy:
    """The quotas of ``bvn_decompose``: every part keeps each row sum and column sum
    within the floor/ceiling of its value in ``x``. H1 is the rows, H2 the columns,
    each in index order; a row or column of one cell is not built."""
    n, m = x.n, x.m
    rows = [sum(row, ZERO) for row in x.matrix] if m > 1 else []
    den, r = x.scaled
    cols = [Fraction(sum(col), den) for col in zip(*r)] if n > 1 else ()
    h1 = [_floor_ceil(((i, j) for j in range(m)), s) for i, s in enumerate(rows)]
    h2 = [_floor_ceil(((i, j) for i in range(n)), s) for j, s in enumerate(cols)]
    return Bihierarchy(h1, h2)


def prefix_constraints(
    instance: Instance, x: FractionalAllocation, prefs: Sequence[Sequence[int]] | None = None
) -> Bihierarchy:
    """The quotas of ``bihierarchy_decompose``: each prefix of each agent's order
    (``instance.prefs`` by default) keeps its cumulative share within floor/ceiling,
    and every column is fully assigned. H1 is the prefixes, shortest first and agents
    in index order within a length, and H2 the columns; one-item prefixes and
    one-cell columns are not built."""
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


def general_bihierarchy_decompose(x: FractionalAllocation, hierarchy: Bihierarchy) -> Lottery:
    """``x`` as an exact lottery over integral matrices obeying every quota of
    ``hierarchy``, which ``x`` must satisfy: the forests compiled to a plan and run
    on the library's extraction engine."""
    n, m = x.n, x.m
    for cs in hierarchy.all_sets():
        for i, j in cs.cells:
            if not (0 <= i < n and 0 <= j < m):
                raise InputError(f"constraint cell {(i, j)} outside the matrix")
    den, rows = x.scaled
    r = [list(row) for row in rows]  # _extract consumes r
    for cs in hierarchy.all_sets():
        total = sum(r[i][j] for i, j in cs.cells)
        if total < cs.lower * den or total > cs.upper * den:
            raise InputError(f"allocation violates quota [{cs.lower}, {cs.upper}] on {sorted(cs.cells)}")

    # Once the quotas hold, a singleton set only restates the [0, 1] bounds of its
    # cell; larger sets become arcs of two forests whose roots are nodes 0 and 1.
    # A singleton is a leaf of its family's forest, so its cell belongs to the
    # singleton's parent, or to the root when it has none.
    inner: list[dict] = []
    sets: list = []
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
