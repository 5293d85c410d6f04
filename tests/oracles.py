"""Brute-force and Fraction reference oracles, for the tests only."""

from __future__ import annotations

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
from fairlot.decomp import bvn_decompose
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


def expected_utility(lottery: Lottery, instance: Instance, i: int) -> Fraction:
    return instance.utility(i, lottery.marginal.row(i))


# ---------------------------------------------------------------------------
# The Fraction eating protocol and stage path the integer ones replaced.
# ---------------------------------------------------------------------------


def eating_targets(state: EatingState) -> tuple[int | None, ...]:
    """The item each agent currently eats: her best-ranked item with mass left."""
    return tuple(next((j for j in order if state.remaining[j] > 0), None) for order in state.prefs)


def eating_step(state: EatingState, until: Fraction) -> EatingState:
    """Advance to the next exhaustion event or to time ``until``, whichever is first."""
    if state.clock >= until or state.exhausted:
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
    while state.clock < until and not state.exhausted:
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
