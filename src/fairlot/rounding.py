"""Implementing fractional allocations over integral parts with utility guarantees.

A complete fractional allocation is decomposed into a lottery whose parts obey
per-agent ordinal prefix quotas.  Those quotas keep every agent within a single
item of her fractional utility in either direction, which is enough to carry
proportionality (up to one item) and, for Nash-optimal inputs, envy-freeness up
to one item more-and-less onto every part.
"""

from __future__ import annotations

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
from .decomp import bihierarchy_decompose, prefix_constraints
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
    return bihierarchy_decompose(x, prefix_constraints(instance, x))


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
    """
    if x.n != instance.n or x.m != instance.m:
        raise InputError("allocation shape does not match instance")
    if part.n != x.n or part.m != x.m:
        raise InputError("part shape does not match allocation")
    kind = instance.kind
    if kind not in (GOODS, BADS):
        raise KindMismatchError(f"utility guarantee applies to goods or bads, got {kind}")
    for i in range(instance.n):
        have = instance.bundle_value(i, part.bundles[i])
        want = instance.utility(i, x.row(i))
        if have == want:
            continue
        # one-item adjustments limited to items the part actually rounded
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
            return PropertyVerdict(
                "utility_guarantee",
                False,
                {
                    "agent": i,
                    "case": "deficit" if have < want else "surplus",
                    "value": str(have),
                    "target": str(want),
                },
            )
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
    """
    if instance.kind != GOODS:
        raise KindMismatchError(f"envy chain applies to goods instances, got {instance.kind}")
    if x.n != instance.n or x.m != instance.m:
        raise InputError("allocation shape does not match instance")
    if part.n != x.n or part.m != x.m:
        raise InputError("part shape does not match allocation")
    n = instance.n
    fractional = [instance.utility(i, x.row(i)) for i in range(n)]
    held = [instance.bundle_value(i, part.bundles[i]) for i in range(n)]
    for h in range(n):
        if held[h] < fractional[h]:
            recoverable = any(
                part.matrix[h][j] == 0
                and x.matrix[h][j] > 0
                and held[h] + instance.values[h][j] > fractional[h]
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
            rival_view = instance.bundle_value(h, part.bundles[i])
            if held[i] <= fractional[i]:
                # no removable surplus item; the reduced-bundle leg weakens to a tie
                ok = rival_view <= fractional[h]
            else:
                ok = any(
                    x.matrix[i][j] < 1
                    and held[i] - instance.values[i][j] < fractional[i]
                    and rival_view - instance.values[h][j] < fractional[h]
                    for j in part.bundles[i]
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
    flipped = ordinal_preferences(tuple(tuple(-v for v in row) for row in instance.values))
    return bihierarchy_decompose(x, prefix_constraints(instance, x, prefs=flipped))


def __getattr__(name: str) -> object:
    # rounding.check_share stays reachable by name, as when this module imported it,
    # without loading the checkers until something asks for it
    if name == "check_share":
        from .properties import check_share

        return check_share
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
