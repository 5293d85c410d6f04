"""Exact fairness and efficiency checkers with re-checkable violation witnesses.

Every verdict is computed in rational arithmetic; a failing verdict carries a
witness that re-evaluates to a violation using nothing but the defining
inequality. Brute-force enumerators for small instances live here too, as
oracles for tests and for the deviation machinery.
"""
from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterator, Sequence

from . import lp
from .core import (
    BADS,
    GOODS,
    MIXED,
    FractionalAllocation,
    Instance,
    IntegralAllocation,
    InputError,
    KindMismatchError,
    Lottery,
    ONE,
    SizeLimitError,
    ZERO,
    _Frozen,
    sd_dominates,
)

PO_LIMIT = 2_000_000
# check_gf falls back to (2^n - 1)^2 exact LPs when its price certificate does
# not apply: 3,969 at 6 agents, 16,129 at 7. The cap comes before the
# certificate, so whether `check --ex-ante gf` exits 3 depends on n alone.
GF_AGENT_LIMIT = 6

SHARE_NOTIONS = ("prop", "prop1_goods", "prop1_bads")
ENVY_NOTIONS = ("ef", "sd_ef", "ef1", "sd_ef1", "efk", "ef11_goods", "ef11_bads", "wef1")
EFFICIENCY_NOTIONS = ("po_integral", "fpo")


class PropertyVerdict(_Frozen):
    property: str
    holds: bool
    witness: dict | None = None

    def _check(self) -> None:
        if not self.holds and self.witness is None:
            raise InputError("failing verdict requires a witness")

    def to_json(self) -> dict:
        out: dict = {"property": self.property, "holds": self.holds}
        if self.witness is not None:
            out["witness"] = self.witness
        return out


def _as_integral(alloc: IntegralAllocation | FractionalAllocation, notion: str) -> IntegralAllocation:
    if isinstance(alloc, IntegralAllocation):
        return alloc
    if alloc.is_integral:
        return alloc.to_integral()
    raise InputError(f"{notion} is defined for integral allocations only")


# ---------------------------------------------------------------------------
# Share-based notions.
# ---------------------------------------------------------------------------


def check_share(
    instance: Instance,
    alloc: IntegralAllocation | FractionalAllocation,
    notion: str,
    strict: bool = False,
) -> PropertyVerdict:
    """Proportionality and its up-to-one-item relaxations.

    ``strict=True`` demands that the one-item adjustment land *strictly* above
    the proportional share, the form actually guaranteed for rounded Prop
    allocations; the plain definitional check uses weak inequality.
    """
    if notion not in SHARE_NOTIONS:
        raise InputError(f"unknown share notion: {notion}")
    if alloc.n != instance.n or alloc.m != instance.m:
        raise InputError("allocation shape does not match instance")
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


# ---------------------------------------------------------------------------
# Envy-based notions.
# ---------------------------------------------------------------------------


def check_envy(
    instance: Instance,
    alloc: IntegralAllocation | FractionalAllocation,
    notion: str,
    k: int | None = None,
) -> PropertyVerdict:
    """Envy-freeness and its relaxations, exact, routed by instance kind."""
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
            for h in range(n):
                if h == i:
                    continue
                own = instance.bundle_value(i, a.bundles[i])
                other = instance.bundle_value(i, a.bundles[h])
                ok = False
                for o_i in (None, *a.bundles[i]):
                    for o_h in (None, *a.bundles[h]):
                        left = own - (instance.values[i][o_i] if o_i is not None else ZERO)
                        right = other - (instance.values[i][o_h] if o_h is not None else ZERO)
                        if left >= right:
                            ok = True
                            break
                    if ok:
                        break
                if not ok:
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
        for i in range(n):
            mine = a.matrix[i]
            for h in range(n):
                if h == i or not a.bundles[h]:
                    continue
                ok = False
                for j in a.bundles[h]:
                    reduced = list(a.matrix[h])
                    reduced[j] = 0
                    if sd_dominates(instance.prefs, i, mine, reduced):
                        ok = True
                        break
                if not ok:
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


# ---------------------------------------------------------------------------
# Efficiency.
# ---------------------------------------------------------------------------


def check_efficiency(
    instance: Instance,
    alloc: IntegralAllocation | FractionalAllocation,
    notion: str,
) -> PropertyVerdict:
    """Pareto optimality against integral (brute force) or fractional (exact LP) rivals."""
    if notion not in EFFICIENCY_NOTIONS:
        raise InputError(f"unknown efficiency notion: {notion}")
    if alloc.n != instance.n or alloc.m != instance.m:
        raise InputError("allocation shape does not match instance")
    n, m = instance.n, instance.m

    if notion == "po_integral":
        a = _as_integral(alloc, notion)
        current = [instance.bundle_value(i, a.bundles[i]) for i in range(n)]
        for rival in enumerate_integral_allocations(instance):
            values = [instance.bundle_value(i, rival.bundles[i]) for i in range(n)]
            if all(values[i] >= current[i] for i in range(n)) and any(
                values[i] > current[i] for i in range(n)
            ):
                return PropertyVerdict(
                    "po_integral", False, {"dominator_bundles": [list(b) for b in rival.bundles]}
                )
        return PropertyVerdict("po_integral", True)

    if not alloc.complete:
        raise InputError("fpo requires a complete allocation")
    current = [instance.utility(i, alloc.matrix[i]) for i in range(n)]
    # max total utility subject to every agent keeping her current utility
    objective = [instance.values[i][j] for i in range(n) for j in range(m)]
    # every item fully assigned; every agent keeps at least her current utility
    assigned = [
        ([ONE if jj == j else ZERO for i in range(n) for jj in range(m)], ONE) for j in range(m)
    ]
    keeps = [
        ([instance.values[i][j] if ii == i else ZERO for ii in range(n) for j in range(m)], current[i])
        for i in range(n)
    ]
    sol = lp.solve(objective, assigned, keeps)
    if sol.status != lp.OPTIMAL:  # pragma: no cover - current allocation is feasible
        raise InputError("fpo comparison program did not solve")
    if sol.objective_value == sum(current, ZERO):
        return PropertyVerdict("fpo", True)
    dominator = [
        [str(sol.values[i * m + j]) for j in range(m)] for i in range(n)
    ]
    return PropertyVerdict("fpo", False, {"dominator": dominator})


# ---------------------------------------------------------------------------
# Group fairness.
# ---------------------------------------------------------------------------


def check_gf(instance: Instance, x: FractionalAllocation, restrict: str = "full") -> PropertyVerdict:
    """Group fairness: no coalition S can take the pool held by any coalition T,
    scale by |S|/|T|, and make all of S weakly better off, one strictly.

    ``restrict="s_le_t"`` checks only pairs with |S| <= |T| (the for-less variant).

    A price certificate decides "holds" in O(n*m): with utilities u_i > 0 and
    prices p_g = max_h v_hg / u_h (the prices ``solve_mnw`` reports), every
    v_ig <= p_g * u_i. If every bundle costs exactly 1 at p, a Y that leaves
    each member of S weakly better off spends at least |T|/|S| per member, so
    at least |T| in all; the pool of T costs exactly |T|, so every inequality
    is tight and nobody in S is strictly better off. The argument holds for
    any value signs and both restrictions. It covers every ``solve_mnw``
    allocation in which each agent values some item.

    Otherwise (a zero or negative utility, or a bundle off budget) one exact
    LP runs per (S, T) pair, in coalition-size order; x is a violation iff
    some optimum is positive, and the first such pair is the witness. Above
    ``GF_AGENT_LIMIT`` agents the check raises SizeLimitError before either.
    """
    if restrict not in ("full", "s_le_t"):
        raise InputError(f"unknown restriction: {restrict}")
    if x.n != instance.n or x.m != instance.m:
        raise InputError("allocation shape does not match instance")
    if not x.complete:
        raise InputError("group fairness needs a complete allocation")
    n, m = instance.n, instance.m
    if n > GF_AGENT_LIMIT:
        raise SizeLimitError(f"group fairness sweep caps at {GF_AGENT_LIMIT} agents")
    label = "gf" if restrict == "full" else "gf_for_less"
    current = [instance.utility(i, x.row(i)) for i in range(n)]
    if _priced_at_one(instance, x, current):
        return PropertyVerdict(label, True)
    agents = list(range(n))
    for s_size in range(1, n + 1):
        for s_tuple in itertools.combinations(agents, s_size):
            for t_size in range(1, n + 1):
                if restrict == "s_le_t" and s_size > t_size:
                    continue
                for t_tuple in itertools.combinations(agents, t_size):
                    verdict = _gf_pair(instance, x, current, s_tuple, t_tuple, label)
                    if verdict is not None:
                        return verdict
    return PropertyVerdict(label, True)


def _priced_at_one(
    instance: Instance, x: FractionalAllocation, current: Sequence[Fraction]
) -> bool:
    """Whether every u_i > 0 and every bundle costs 1 at p_g = max_h v_hg / u_h."""
    if any(u <= 0 for u in current):
        return False
    prices = [max(row[g] / u for row, u in zip(instance.values, current)) for g in range(instance.m)]
    return all(sum((p * c for p, c in zip(prices, row) if c), ZERO) == 1 for row in x.matrix)


def _gf_pair(
    instance: Instance,
    x: FractionalAllocation,
    current: Sequence[Fraction],
    s_tuple: tuple[int, ...],
    t_tuple: tuple[int, ...],
    label: str,
) -> PropertyVerdict | None:
    m = instance.m
    pool = [sum((x.matrix[i][j] for i in t_tuple), ZERO) for j in range(m)]
    items = [j for j in range(m) if pool[j] > 0]
    scale = Fraction(len(s_tuple), len(t_tuple))
    # variables: Y[i][j] for i in S, j in items, then one delta per member of S
    ny = len(s_tuple) * len(items)
    nvars = ny + len(s_tuple)
    shares = []
    for col, j in enumerate(items):
        coeffs = [ZERO] * nvars
        for a in range(len(s_tuple)):
            coeffs[a * len(items) + col] = ONE
        shares.append((coeffs, pool[j]))
    gains = []
    for a, i in enumerate(s_tuple):
        coeffs = [ZERO] * nvars
        for col, j in enumerate(items):
            coeffs[a * len(items) + col] = scale * instance.values[i][j]
        coeffs[ny + a] = -ONE
        gains.append((coeffs, current[i]))
    objective = [ZERO] * ny + [ONE] * len(s_tuple)
    sol = lp.solve(objective, shares, gains)
    if sol.status != lp.OPTIMAL or sol.objective_value <= 0:
        return None
    y_full = [[ZERO] * m for _ in s_tuple]
    for a in range(len(s_tuple)):
        for col, j in enumerate(items):
            y_full[a][j] = sol.values[a * len(items) + col]
    return PropertyVerdict(
        label,
        False,
        {
            "S": list(s_tuple),
            "T": list(t_tuple),
            "Y": [[str(v) for v in row] for row in y_full],
            "delta": [str(sol.values[ny + a]) for a in range(len(s_tuple))],
        },
    )


# ---------------------------------------------------------------------------
# Lottery audits.
# ---------------------------------------------------------------------------

def _run_named_check(
    instance: Instance, alloc: IntegralAllocation | FractionalAllocation, name: str
) -> PropertyVerdict:
    kind = instance.kind
    if name == "prop":
        return check_share(instance, alloc, "prop")
    if name == "prop1":
        if kind == MIXED:
            raise KindMismatchError("prop1 is kind-specific; mixed instances are not supported")
        return check_share(instance, alloc, "prop1_goods" if kind == GOODS else "prop1_bads")
    if name == "ef":
        return check_envy(instance, alloc, "ef")
    if name == "sdef":
        return check_envy(instance, alloc, "sd_ef")
    if name == "ef1":
        return check_envy(instance, alloc, "ef1")
    if name == "sdef1":
        return check_envy(instance, alloc, "sd_ef1")
    if name == "ef2":
        return check_envy(instance, alloc, "efk", k=2)
    if name == "ef11":
        if kind == MIXED:
            raise KindMismatchError("ef11 is kind-specific; mixed instances are not supported")
        return check_envy(instance, alloc, "ef11_goods" if kind == GOODS else "ef11_bads")
    if name == "wef1":
        return check_envy(instance, alloc, "wef1")
    if name == "po":
        return check_efficiency(instance, alloc, "po_integral")
    if name == "fpo":
        return check_efficiency(instance, alloc, "fpo")
    if name in ("gf", "gfless"):
        if not isinstance(alloc, FractionalAllocation):
            alloc = alloc.to_fractional()
        return check_gf(instance, alloc, "full" if name == "gf" else "s_le_t")
    raise InputError(f"unknown property name: {name}")


class AuditReport(_Frozen):
    ex_ante: dict[str, PropertyVerdict]
    ex_post: dict[str, tuple[PropertyVerdict, ...]]

    @property
    def ok(self) -> bool:
        return all(v.holds for v in self.ex_ante.values()) and all(
            v.holds for parts in self.ex_post.values() for v in parts
        )

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "ex_ante": {name: v.to_json() for name, v in self.ex_ante.items()},
            "ex_post": {
                name: {
                    "holds": all(v.holds for v in parts),
                    "parts": [v.to_json() for v in parts],
                }
                for name, parts in self.ex_post.items()
            },
        }


def audit_lottery(
    instance: Instance,
    lottery: Lottery,
    ex_ante: Sequence[str] = (),
    ex_post: Sequence[str] = (),
) -> AuditReport:
    """Check ex-ante properties on the marginal and ex-post properties on every
    support allocation."""
    marginal = lottery.marginal
    ante = {name: _run_named_check(instance, marginal, name) for name in ex_ante}
    post = {
        name: tuple(_run_named_check(instance, alloc, name) for _, alloc in lottery.support)
        for name in ex_post
    }
    return AuditReport(ante, post)


# ---------------------------------------------------------------------------
# Brute-force oracles.
# ---------------------------------------------------------------------------


def enumerate_integral_allocations(instance: Instance) -> Iterator[IntegralAllocation]:
    """All n^m complete integral allocations, item-major order."""
    n, m = instance.n, instance.m
    if n**m > PO_LIMIT:
        raise SizeLimitError(f"{n}^{m} allocations exceed the enumeration cap")
    for owners in itertools.product(range(n), repeat=m):
        matrix = tuple(
            tuple(1 if owners[j] == i else 0 for j in range(m)) for i in range(n)
        )
        yield IntegralAllocation(matrix)


def nash_product(instance: Instance, alloc: IntegralAllocation | FractionalAllocation) -> Fraction:
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
