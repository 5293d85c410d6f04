"""Simultaneous eating protocol with exact event-driven simulation.

All agents eat at unit speed. At every moment each agent eats her single
best-ranked item that still has mass (ordinal rank: value descending, ties broken
toward the lower index, so nothing is ever split between equally ranked items of
one agent). Time advances in exact rational jumps to the next exhaustion event,
never in discretized steps.

The one event loop, ``_eat``, runs in integers: masses, eaten shares and the clock
sit over one common denominator, which is rescaled when a jump needs a finer one.
``EatingState.run`` converts its Fractions to that form and back; the stage engine
in ``rps`` calls the loop directly and keeps the integers.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .core import InputError, ZERO, _Frozen, parse_rational


def _eat(
    prefs: Sequence[Sequence[int]],
    den: int,
    mass: list[int],
    eaten: list[list[int]],
    clock: int,
    until: int,
) -> tuple[int, list[int], list[list[int]], int]:
    """Eat from ``clock`` to ``until``, or until nothing is left, all over ``den``.

    Returns ``(den, mass, eaten, clock)`` over the final denominator. An agent's
    target only moves down her order, since masses only shrink, so each agent
    keeps a cursor into it.
    """
    cursor = [0] * len(prefs)
    while clock < until:
        targets: list[tuple[int, int]] = []
        eaters: dict[int, int] = {}
        for i, order in enumerate(prefs):
            k = cursor[i]
            while k < len(order) and not mass[order[k]]:
                k += 1
            cursor[i] = k
            if k < len(order):
                targets.append((i, order[k]))
                eaters[order[k]] = eaters.get(order[k], 0) + 1
        if not targets and not any(mass):
            break
        # The jump is num / dnm units over den: the least of the time left and
        # each eaten item's mass over its number of eaters.
        num, dnm = until - clock, 1
        for j, count in eaters.items():
            if mass[j] * dnm < num * count:
                num, dnm = mass[j], count
        g = math.gcd(num, dnm)
        step, scale = num // g, dnm // g
        if scale > 1:
            den, clock, until = den * scale, clock * scale, until * scale
            mass = [v * scale for v in mass]
            eaten = [[v * scale for v in row] for row in eaten]
        for i, j in targets:
            eaten[i][j] += step
            mass[j] -= step
        clock += step
    return den, mass, eaten, clock


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
        if any(not 0 <= j < m for p in prefs for j in p):
            raise InputError(f"a preference order names an item outside the {m} masses")
        return cls(
            prefs=tuple(tuple(p) for p in prefs),
            remaining=avail,
            eaten=tuple((ZERO,) * m for _ in range(n)),
            clock=ZERO,
        )

    def run(self, duration: Fraction | int | str) -> "EatingState":
        """Eat for ``duration`` time units, or until everything is exhausted.

        >>> EatingState.start([[0, 1], [0, 1]], [1, 1]).run(1).eaten
        ((Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 2), Fraction(1, 2)))
        """
        duration = parse_rational(duration)
        if duration < 0:
            raise InputError("duration must be nonnegative")
        n, m = len(self.eaten), len(self.remaining)
        flat = [self.clock, self.clock + duration, *self.remaining, *(v for row in self.eaten for v in row)]
        den = math.lcm(*(v.denominator for v in flat))
        clock, until, *ints = [v.numerator * (den // v.denominator) for v in flat]
        eaten = [ints[m * (i + 1) : m * (i + 2)] for i in range(n)]
        den, mass, eaten, clock = _eat(self.prefs, den, ints[:m], eaten, clock, until)
        return EatingState(
            self.prefs,
            tuple(Fraction(v, den) for v in mass),
            tuple(tuple(Fraction(v, den) for v in row) for row in eaten),
            Fraction(clock, den),
        )
