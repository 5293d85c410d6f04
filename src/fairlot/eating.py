"""Simultaneous eating protocol with exact event-driven simulation.

All agents eat at unit speed. At every moment each agent eats her single
best-ranked item that still has mass (ordinal rank: value descending, ties broken
toward the lower index, so nothing is ever split between equally ranked items of
one agent). Time advances in exact rational jumps to the next exhaustion event,
never in discretized steps.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .core import (
    FractionalAllocation,
    Instance,
    InputError,
    ZERO,
    _Frozen,
    parse_rational,
)


class EatingState(_Frozen):
    """Snapshot of the protocol between events: remaining mass, eaten mass, clock."""

    prefs: tuple[tuple[int, ...], ...]
    remaining: tuple[Fraction, ...]
    eaten: tuple[tuple[Fraction, ...], ...]
    clock: Fraction

    @classmethod
    def start(
        cls, prefs: Sequence[Sequence[int]], available: Sequence[Fraction]
    ) -> "EatingState":
        n = len(prefs)
        m = len(available)
        avail = tuple(parse_rational(a) for a in available)
        for a in avail:
            if a < 0 or a > 1:
                raise InputError(f"available mass {a} outside [0, 1]")
        return cls(
            prefs=tuple(tuple(p) for p in prefs),
            remaining=avail,
            eaten=tuple((ZERO,) * m for _ in range(n)),
            clock=ZERO,
        )

    @property
    def exhausted(self) -> bool:
        return all(r == 0 for r in self.remaining)

    def targets(self) -> tuple[int | None, ...]:
        """The item each agent currently eats: her best-ranked item with mass left."""
        out = []
        for order in self.prefs:
            out.append(next((j for j in order if self.remaining[j] > 0), None))
        return tuple(out)

    def step(self, until: Fraction) -> "EatingState":
        """Advance to the next exhaustion event or to time ``until``, whichever is first."""
        if self.clock >= until or self.exhausted:
            return self
        targets = self.targets()
        eaters: dict[int, list[int]] = {}
        for i, j in enumerate(targets):
            if j is not None:
                eaters.setdefault(j, []).append(i)
        delta = until - self.clock
        for j, who in eaters.items():
            delta = min(delta, self.remaining[j] / len(who))
        remaining = list(self.remaining)
        eaten = [list(row) for row in self.eaten]
        for j, who in eaters.items():
            for i in who:
                eaten[i][j] += delta
            remaining[j] -= delta * len(who)
        return EatingState(
            prefs=self.prefs,
            remaining=tuple(remaining),
            eaten=tuple(tuple(row) for row in eaten),
            clock=self.clock + delta,
        )

    def run(self, duration: Fraction) -> "EatingState":
        state = self
        until = state.clock + duration
        while state.clock < until and not state.exhausted:
            state = state.step(until)
        return state


def eat(
    instance: Instance,
    available: Sequence[Fraction],
    duration: Fraction | int | str,
    prefs: Sequence[Sequence[int]] | None = None,
) -> FractionalAllocation:
    """Run the protocol for ``duration`` time units over the given item masses.

    Stops early if everything is exhausted. Returns the eaten (partial fractional)
    allocation; each agent's row sums to min(duration, time of total exhaustion)
    whenever any mass was available.

    >>> inst = Instance.from_rows([[3, 1], [3, 2]])
    >>> eat(inst, [1, 1], 1).matrix
    ((Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 2), Fraction(1, 2)))
    """
    if len(available) != instance.m:
        raise InputError("available vector length does not match item count")
    dur = parse_rational(duration)
    if dur < 0:
        raise InputError("duration must be nonnegative")
    state = EatingState.start(prefs if prefs is not None else instance.prefs, available)
    return FractionalAllocation(state.run(dur).eaten)


def eat_full(
    instance: Instance,
    available: Sequence[Fraction] | None = None,
    prefs: Sequence[Sequence[int]] | None = None,
) -> FractionalAllocation:
    """Eat until everything is gone: runs ceil(total mass / n) units of time.

    On a full instance this is the classic probabilistic serial outcome.
    """
    avail = (
        [parse_rational(a) for a in available]
        if available is not None
        else [Fraction(1)] * instance.m
    )
    total = sum(avail, ZERO)
    duration = Fraction(math.ceil(total / instance.n))
    return eat(instance, avail, duration, prefs=prefs)
