"""Implementing fractional allocations over integral parts with utility guarantees.

A complete fractional allocation is decomposed into a lottery whose parts obey
per-agent ordinal prefix quotas.  Those quotas keep every agent within a single
item of her fractional utility in either direction, which is enough to carry
proportionality (up to one item) and, for Nash-optimal inputs, envy-freeness up
to one item more-and-less onto every part.
"""

from __future__ import annotations

from fractions import Fraction

from .core import (
    BADS,
    GOODS,
    FractionalAllocation,
    InputError,
    Instance,
    IntegralAllocation,
    KindMismatchError,
    Lottery,
    PropertyVerdict,
    ordinal_preferences,
)
from .decomp import bihierarchy_decompose
from .mnw import solve_mnw


def implement_with_utility_guarantee(instance: Instance, x: FractionalAllocation) -> Lottery:
    """Decompose a complete fractional allocation so that every part stays
    within one item of each agent's fractional utility.

    The parts satisfy the exact one-sided bounds of check_utility_guarantee:
    an agent falling short of her fractional utility recovers it strictly by
    adding one item she partially held, and an agent exceeding it drops
    strictly below by removing one item she did not fully hold.

    >>> inst = Instance.from_rows([[1, 2], [1, 3]])
    >>> x = FractionalAllocation.from_rows([["1", "5/12"], ["0", "7/12"]])
    >>> [(str(w), a.bundles) for w, a in implement_with_utility_guarantee(inst, x).support]
    [('7/12', ((0,), (1,))), ('5/12', ((0, 1), ()))]
    """
    x.check_shape(instance)
    return bihierarchy_decompose(x, instance.prefs)


def check_utility_guarantee(
    instance: Instance,
    x: FractionalAllocation,
    part: IntegralAllocation,
) -> PropertyVerdict:
    """Exact one-item bounds between an integral part and its fractional reference.

    For goods: an agent below her fractional utility must strictly recover it by
    adding a single item g not in her bundle with X_{i,g} > 0, and an agent above
    it must land strictly below by removing a single held item with X_{i,g} < 1.
    For bads the adjustments swap (remove an owned bad / add a missing bad).
    Both kinds try every such one-item move, since a move toward the wrong side
    never crosses the fractional utility. Each bound compares ints over agent
    i's scale times x's common denominator. Below, agent 0 holds 4/3, and
    dropping either item lands on her 2/3, not strictly below it:

    >>> inst = Instance.from_rows([["2/3", "2/3"], ["1/4", "1/6"]])
    >>> x = FractionalAllocation.from_rows([["1/2", "1/2"], ["1/2", "1/2"]])
    >>> part = IntegralAllocation.from_bundles(2, 2, [(0, 1), ()])
    >>> check_utility_guarantee(inst, x, part).witness
    {'agent': 0, 'case': 'surplus', 'value': '4/3', 'target': '2/3'}
    """
    x.check_shape(instance)
    if part.n != x.n or part.m != x.m:
        raise InputError("part shape does not match allocation")
    kind = instance.kind
    if kind not in (GOODS, BADS):
        raise KindMismatchError(f"utility guarantee applies to goods or bads, got {kind}")
    den, xr = x.scaled
    for i, (scale, row) in enumerate(instance.scaled):
        have = sum([row[j] for j in part.bundles[i]]) * den
        gap = sum([v * c for v, c in zip(row, xr[i]) if c]) - have
        if gap == 0:
            continue
        # one-item moves limited to items the part actually rounded
        moves = [row[j] * den for j in range(instance.m) if part.matrix[i][j] == 0 and xr[i][j] > 0]
        moves += [-row[j] * den for j in part.bundles[i] if xr[i][j] < den]
        if not any(d > gap if gap > 0 else d < gap for d in moves):
            witness = {
                "agent": i,
                "case": "deficit" if gap > 0 else "surplus",
                "value": str(Fraction(have, scale * den)),
                "target": str(Fraction(have + gap, scale * den)),
            }
            return PropertyVerdict("utility_guarantee", False, witness)
    return PropertyVerdict("utility_guarantee", True)


def check_adjusted_envy_chain(
    instance: Instance,
    x: FractionalAllocation,
    part: IntegralAllocation,
) -> PropertyVerdict:
    """Pairwise envy bridge through the fractional utilities of a goods part.

    For every ordered pair (h, i): h's value of i's bundle, reduced by one item
    whose removal also puts i strictly under her own fractional utility, must
    fall strictly under v_h(X_h); and v_h(X_h) must in turn fall strictly under
    h's bundle plus one recoverable item.  Whenever the adjustment item does not
    exist because the agent already sits weakly on the favorable side of her
    fractional utility, the corresponding leg is checked weakly instead.
    Each leg compares ints of one agent, over her scale times x's common denominator.
    """
    if instance.kind != GOODS:
        raise KindMismatchError(f"envy chain applies to goods instances, got {instance.kind}")
    x.check_shape(instance)
    if part.n != x.n or part.m != x.m:
        raise InputError("part shape does not match allocation")
    n, bundles = instance.n, part.bundles
    den, xr = x.scaled
    rows = [row for _, row in instance.scaled]
    fractional = [sum([v * c for v, c in zip(row, cells) if c]) for row, cells in zip(rows, xr)]
    held = [sum([row[j] for j in bundle]) * den for row, bundle in zip(rows, bundles)]
    for h in range(n):
        row_h = rows[h]
        if held[h] < fractional[h]:
            recoverable = any(
                part.matrix[h][j] == 0
                and xr[h][j] > 0
                and held[h] + row_h[j] * den > fractional[h]
                for j in range(instance.m)
            )
            if not recoverable:
                return PropertyVerdict(
                    "adjusted_envy_chain",
                    False,
                    {"agent": h, "case": "own_deficit"},
                )
        for i in range(n):
            if i == h:
                continue
            rival_view = sum([row_h[j] for j in bundles[i]]) * den
            if held[i] <= fractional[i]:
                # no removable surplus item; the reduced-bundle leg weakens to a tie
                ok = rival_view <= fractional[h]
            else:
                ok = any(
                    xr[i][j] < den
                    and held[i] - rows[i][j] * den < fractional[i]
                    and rival_view - row_h[j] * den < fractional[h]
                    for j in bundles[i]
                )
            if not ok:
                return PropertyVerdict(
                    "adjusted_envy_chain",
                    False,
                    {"agent": h, "rival": i, "case": "reduced_rival"},
                )
    return PropertyVerdict("adjusted_envy_chain", True)


def prop1_lottery(instance: Instance, x: FractionalAllocation) -> Lottery:
    """Implement a proportional fractional allocation of goods over parts that
    are each proportional up to one good, in the strict sense checked by
    check_share(..., strict=True).
    """
    if instance.kind != GOODS:
        raise KindMismatchError(f"prop1_lottery needs a goods instance, got {instance.kind}")
    from .properties import check_share  # its one use, so the other lotteries never load the checkers

    verdict = check_share(instance, x, "prop")
    if not verdict.holds:
        w = verdict.witness
        raise InputError(
            f"allocation is not proportional: agent {w['agent']}"
            f" gets {w['value']}, needs {w['share']}"
        )
    return implement_with_utility_guarantee(instance, x)


def gf_lottery(instance: Instance) -> Lottery:
    """Lottery whose marginal is a Nash-optimal allocation and whose parts are
    each proportional up to one good, envy-free up to one good more-and-less,
    and fractionally Pareto optimal.

    The marginal is group fair when every agent values some item. An agent who
    values nothing keeps an empty bundle and can still join a deviating
    coalition S, which raises its |S|/|T| scale, so the marginal can fail GF.
    """
    solution = solve_mnw(instance)
    return implement_with_utility_guarantee(instance, solution.allocation)


def prop1_ef11_lottery_bads(instance: Instance, x: FractionalAllocation) -> Lottery:
    """Implement a fractional allocation of bads.

    Parts are proportional up to one bad whenever x is proportional, and
    additionally envy-free up to one bad more-and-less when x is a competitive
    equilibrium for bads.  Only the decomposition order flips sign; every
    guarantee is stated and checked on the original disutilities.
    """
    if instance.kind != BADS:
        raise KindMismatchError(f"bads rounding needs a bads instance, got {instance.kind}")
    x.check_shape(instance)
    flipped = ordinal_preferences([[-v for v in row] for _, row in instance.scaled])
    return bihierarchy_decompose(x, flipped)


def __getattr__(name: str) -> object:
    # rounding.check_share stays reachable by name, as when this module imported it,
    # without loading the checkers until something asks for it
    if name == "check_share":
        from .properties import check_share

        return check_share
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
