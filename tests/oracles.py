"""Brute-force oracles over complete integral allocations, for the tests only."""

from __future__ import annotations

from fractions import Fraction

from fairlot.core import ONE, FractionalAllocation, InputError, Instance, IntegralAllocation
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
