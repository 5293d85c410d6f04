"""Exact fairness and efficiency checkers with re-checkable violation witnesses.

Every verdict is computed in rational arithmetic; a failing verdict carries a
witness that re-evaluates to a violation using nothing but the defining
inequality. The eight envy notions share one pair loop: each defines whether
agent i envies agent h beyond its allowance, and the loop tries i, then h, in
index order, so the witness is the first envious pair in that order. The
``check`` names map onto the checkers through one table. The enumerator of
complete integral allocations lives here too, as the rivals that ``po``
compares against when its certificate fails.
"""
from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterator, Sequence

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
    PropertyVerdict,
    SizeLimitError,
    ZERO,
    _Frozen,
    outbid,
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


def _as_integral(alloc: FractionalAllocation, notion: str) -> IntegralAllocation:
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
    alloc: FractionalAllocation,
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


# ---------------------------------------------------------------------------
# Envy-based notions.
# ---------------------------------------------------------------------------


def check_envy(
    instance: Instance,
    alloc: FractionalAllocation,
    notion: str,
    k: int | None = None,
) -> PropertyVerdict:
    """Envy-freeness and its relaxations, exact, routed by instance kind.

    Each notion validates its input (the k of ``efk``, then the instance kind,
    then integrality), computes what it needs once per agent, and defines
    ``envies(i, h)``: None unless agent i envies h beyond the notion's allowance,
    else the notion's extra witness fields. One pair loop runs it over i, then
    h != i, in index order; the first envious pair fails the check with the
    witness ``{"envious": i, "envied": h, **extra}``.
    """
    if notion not in ENVY_NOTIONS:
        raise InputError(f"unknown envy notion: {notion}")
    alloc.check_shape(instance)
    n, values, rows = instance.n, instance.values, alloc.matrix
    label = f"ef{k}" if notion == "efk" else notion

    if notion == "ef":
        own = [instance.utility(i, rows[i]) for i in range(n)]

        def envies(i: int, h: int) -> dict | None:
            other = instance.utility(i, rows[h])
            return {"own": str(own[i]), "other": str(other)} if own[i] < other else None

    elif notion == "sd_ef":
        # by the values' signs, not the kind, which rejects an unvalued goods column
        signs = {v > 0 for _, row in instance.scaled for v in row if v}
        if len(signs) == 2:
            raise KindMismatchError("sd_ef is defined for goods or bads instances")
        bads = signs == {False}
        prefs = tuple([order[::-1] for order in instance.prefs]) if bads else instance.prefs
        _, rows = alloc.scaled

        def envies(i: int, h: int) -> dict | None:
            # bads: along i's order worst first, i holds at most as much as h
            p, q = (rows[h], rows[i]) if bads else (rows[i], rows[h])
            return None if sd_dominates(prefs, i, p, q) else {}

    else:
        if notion in ("ef1", "efk"):
            steps = 1 if notion == "ef1" else k
            if steps is None or steps < 1:
                raise InputError("efk requires k >= 1")
            if instance.kind == MIXED:
                raise KindMismatchError("ef1/efk are kind-specific; use wef1 for mixed instances")
        elif notion == "sd_ef1" and instance.kind != GOODS:
            raise KindMismatchError("sd_ef1 is defined for goods instances")
        elif notion == "ef11_goods" and instance.kind != GOODS:
            raise KindMismatchError("ef11_goods applies to goods instances")
        elif notion == "ef11_bads" and instance.kind != BADS:
            raise KindMismatchError("ef11_bads applies to bads instances")
        a = _as_integral(alloc, label)
        rows, bundles = a.matrix, a.bundles

        def worth(i: int, h: int) -> list[Fraction]:
            row = values[i]
            return [row[j] for j in bundles[h]]

        def outside(i: int, h: int) -> list[Fraction]:
            return [v for v, x in zip(values[i], rows[h]) if not x]

        if notion == "sd_ef1":
            prefs = instance.prefs

            def envies(i: int, h: int) -> dict | None:
                if not bundles[h]:
                    return None
                # removing h's item that i ranks first lowers every prefix sum the most
                reduced = list(rows[h])
                reduced[next(j for j in prefs[i] if reduced[j])] = 0
                return None if sd_dominates(prefs, i, rows[i], reduced) else {}

        elif notion == "wef1":
            # the best single removals: i's worst own bad, and i's best good of h's
            kept = [sum(w, ZERO) - min([ZERO, *w]) for w in (worth(i, i) for i in range(n))]

            def envies(i: int, h: int) -> dict | None:
                theirs = worth(i, h)
                return {} if kept[i] < sum(theirs, ZERO) - max([ZERO, *theirs]) else None

        elif notion == "ef11_goods":
            plus_best = [sum(worth(i, i), ZERO) + max(outside(i, i), default=ZERO) for i in range(n)]

            def envies(i: int, h: int) -> dict | None:
                theirs = worth(i, h)
                if not theirs:
                    return None
                minus_best = sum(theirs, ZERO) - max(theirs)
                if plus_best[i] >= minus_best:
                    return None
                return {"own_plus_best": str(plus_best[i]), "other_minus_best": str(minus_best)}

        elif notion == "ef11_bads":
            minus_worst = [sum(w, ZERO) - min(w) if w else None for w in (worth(i, i) for i in range(n))]

            def envies(i: int, h: int) -> dict | None:
                if minus_worst[i] is None:
                    return None
                plus_worst = sum(worth(i, h), ZERO) + min(outside(i, h), default=ZERO)
                if minus_worst[i] >= plus_worst:
                    return None
                return {"own_minus_worst": str(minus_worst[i]), "other_plus_worst": str(plus_worst)}

        else:
            own = [sum(worth(i, i), ZERO) for i in range(n)]
            goods = instance.kind == GOODS
            # goods: i drops the k goods of h's it values most; bads: i drops its k worst own bads
            kept = own if goods else [own[i] - sum(sorted(worth(i, i))[:steps], ZERO) for i in range(n)]

            def envies(i: int, h: int) -> dict | None:
                theirs = worth(i, h)
                if goods and not theirs:
                    return None
                other = sum(theirs, ZERO)
                allowed = other - sum(sorted(theirs, reverse=True)[:steps], ZERO) if goods else other
                return {"own": str(own[i]), "other": str(other)} if kept[i] < allowed else None

    for i in range(n):
        for h in range(n):
            if h != i:
                extra = envies(i, h)
                if extra is not None:
                    return PropertyVerdict(label, False, {"envious": i, "envied": h, **extra})
    return PropertyVerdict(label, True)


# ---------------------------------------------------------------------------
# Efficiency.
# ---------------------------------------------------------------------------


def check_efficiency(
    instance: Instance,
    alloc: FractionalAllocation,
    notion: str,
) -> PropertyVerdict:
    """Pareto optimality against complete integral (``po_integral``) or
    fractional (``fpo``) rivals.

    Both first run the exact trading-cycle test of ``_fpo_trade``, which
    decides goods, bads and mixed items alike. As fPO implies PO, an allocation
    it finds no trade for holds for either. Else ``fpo`` applies the trade to x
    for the dominator witness, and ``po_integral`` reports the first of its n^m
    rivals that dominates; above ``PO_LIMIT`` rivals it raises SizeLimitError
    before the test.
    """
    if notion not in EFFICIENCY_NOTIONS:
        raise InputError(f"unknown efficiency notion: {notion}")
    alloc.check_shape(instance)

    if notion == "po_integral":
        a = _as_integral(alloc, notion)
        rivals = enumerate_integral_allocations(instance)  # raises above the cap
        if a.complete and _fpo_trade(instance, a) is None:
            return PropertyVerdict("po_integral", True)
        n = instance.n
        current = [instance.bundle_value(i, a.bundles[i]) for i in range(n)]
        for rival in rivals:
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
    trade = _fpo_trade(instance, alloc)
    if trade is None:
        return PropertyVerdict("fpo", True)
    dominator = [list(row) for row in alloc.matrix]
    for giver, taker, g, amount in trade:
        dominator[giver][g] -= amount
        dominator[taker][g] += amount
    return PropertyVerdict("fpo", False, {"dominator": [[str(c) for c in row] for row in dominator]})


def _fpo_trade(
    instance: Instance, x: FractionalAllocation
) -> list[tuple[int, int, int, Fraction]] | None:
    """None if the complete allocation x is fPO, else the moves (giver, taker,
    item, amount) of a trade that leaves nobody worse off and someone better off.

    x is fPO iff some lambda > 0 makes it maximise sum lambda_i u_i
    (Sandomirskiy and Segal-Halevi, arXiv 1908.01669; Bogomolnaia et al.,
    Econometrica 2017, for mixed manna), that is iff lambda_i v_ig >= lambda_h
    v_hg wherever x_ig > 0. By sign, for h != i: v_ig, v_hg > 0 give the arc
    i -> h of weight v_hg / v_ig, and v_ig, v_hg < 0 the arc h -> i of weight
    v_ig / v_hg (an arc a -> b of weight w reads lambda_a >= w lambda_b);
    v_ig <= 0 <= v_hg, not both 0, fails, and i hands h its whole share of g;
    the rest bind nothing. Such lambda exist iff no cycle's product exceeds 1
    (an exact max-product Floyd-Warshall). Weights are int pairs (num, den)
    over the rows of ``instance.scaled``: arc a -> b's weights all carry
    scale_a / scale_b, which keeps its argmax and cancels around a cycle.

    Each unit of an arc a -> b's item costs a |v_ag| and gains b |v_bg|: a good
    moves along the arc, a bad against it. Around a cycle of product above 1,
    the amounts pay back every agent but the first exactly, so the first gains;
    they are then scaled so that the largest move is its holder's whole share.
    """
    rows = [row for _, row in instance.scaled]
    n = instance.n
    num = [[0] * n for _ in range(n)]
    den = [[1] * n for _ in range(n)]
    item = [[0] * n for _ in range(n)]  # each arc's argmax item
    for i, held in enumerate(x.matrix):
        for g, share in enumerate(held):
            if not share:
                continue
            own = rows[i][g]
            for h in range(n):
                other = rows[h][g]
                if h == i or own >= 0 >= other:
                    continue  # lambda_i v_ig >= 0 >= lambda_h v_hg for every lambda
                if own <= 0 <= other:
                    return [(i, h, g, share)]  # helps one of the two, hurts neither
                # both positive, or both negative: the arc of the weight ratio
                a, b, p, q = (i, h, other, own) if own > 0 else (h, i, -own, -other)
                if p * den[a][b] > num[a][b] * q:
                    num[a][b], den[a][b], item[a][b] = p, q, g
    hop = [list(range(n)) for _ in range(n)]  # the first hop of each best walk
    for k in range(n):
        # (num, den)[k][k] is the best cycle through k and lower vertices; with
        # none above 1 so far, every weight is a simple path's, so none grows unbounded
        if num[k][k] > den[k][k]:
            break
        via_num, via_den = num[k], den[k]
        for row_num, row_den, row_hop in zip(num, den, hop):
            p, q = row_num[k], row_den[k]
            if p:
                for h in range(n):
                    pv, qv = p * via_num[h], q * via_den[h]
                    if pv * row_den[h] > row_num[h] * qv:
                        row_num[h], row_den[h], row_hop[h] = pv, qv, row_hop[k]
    else:
        return None
    # the best cycle through k, by first hops: simple, as none among lower vertices exceeds 1
    cycle = [k]
    while (a := hop[cycle[-1]][k]) != k:
        cycle.append(a)
    moves, amount, paid = [], ONE, None
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        g = item[a][b]
        if paid is not None:  # a is paid back exactly for what it gained on the arc before
            amount *= Fraction(abs(rows[a][paid]), abs(rows[a][g]))
        moves.append((a, b, g, amount) if rows[a][g] > 0 else (b, a, g, amount))
        paid = g
    scale = min(x.matrix[giver][g] / amount for giver, _, g, amount in moves)
    return [(giver, taker, g, amount * scale) for giver, taker, g, amount in moves]


# ---------------------------------------------------------------------------
# Group fairness.
# ---------------------------------------------------------------------------


def check_gf(instance: Instance, x: FractionalAllocation, restrict: str = "full") -> PropertyVerdict:
    """Group fairness: no coalition S can take the pool held by any coalition T,
    scale by |S|/|T|, and make all of S weakly better off, one strictly.

    ``restrict="s_le_t"`` checks only pairs with |S| <= |T| (the for-less variant).

    A price certificate decides "holds" without an LP: every u_i > 0 and no held
    cell is ``outbid``. At prices p_g = max_h v_hg / u_h (the prices ``solve_mnw``
    reports) every v_ig <= p_g * u_i, so bundle i costs at least
    sum_g x_ig * v_ig / u_i = 1, with equality iff no held cell is outbid. A Y
    that leaves each member of S weakly better off then spends at least |T|/|S|
    per member, so at least |T| in all; the pool of T costs exactly |T|, so
    every inequality is tight and nobody in S is strictly better off. The
    argument holds for any value signs and both restrictions. It covers every
    ``solve_mnw`` allocation in which each agent values some item.

    Otherwise (a zero or negative utility, or an outbid cell) one exact
    LP runs per (S, T) pair, in coalition-size order; x is a violation iff
    some optimum is positive, and the first such pair is the witness. Above
    ``GF_AGENT_LIMIT`` agents the check raises SizeLimitError before either.
    """
    if restrict not in ("full", "s_le_t"):
        raise InputError(f"unknown restriction: {restrict}")
    x.check_shape(instance)
    if not x.complete:
        raise InputError("group fairness needs a complete allocation")
    n, m = instance.n, instance.m
    if n > GF_AGENT_LIMIT:
        raise SizeLimitError(f"group fairness sweep caps at {GF_AGENT_LIMIT} agents")
    label = "gf" if restrict == "full" else "gf_for_less"
    current = [instance.utility(i, x.row(i)) for i in range(n)]
    if all(u > 0 for u in current) and outbid(instance, x, range(n), current) is None:
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
    from . import lp  # imported where an LP runs, so a command that runs none never loads it

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

def _run_named_check(instance: Instance, alloc: FractionalAllocation, name: str) -> PropertyVerdict:
    kind = None
    if name in ("prop1", "ef11"):
        kind = instance.kind  # read only where the notion depends on it
        if kind == MIXED:
            raise KindMismatchError(f"{name} is kind-specific; mixed instances are not supported")
    side = "goods" if kind == GOODS else "bads"
    # built per call, so a checker wrapped after import (the benchmark's tracer) is the one run
    checks = {
        "prop": (check_share, "prop"),
        "prop1": (check_share, f"prop1_{side}"),
        "ef": (check_envy, "ef"),
        "sdef": (check_envy, "sd_ef"),
        "ef1": (check_envy, "ef1"),
        "sdef1": (check_envy, "sd_ef1"),
        "ef2": (check_envy, "efk", 2),
        "ef11": (check_envy, f"ef11_{side}"),
        "wef1": (check_envy, "wef1"),
        "po": (check_efficiency, "po_integral"),
        "fpo": (check_efficiency, "fpo"),
        "gf": (check_gf, "full"),
        "gfless": (check_gf, "s_le_t"),
    }
    if name not in checks:
        raise InputError(f"unknown property name: {name}")
    checker, *args = checks[name]
    return checker(instance, alloc, *args)


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
# Integral enumeration.
# ---------------------------------------------------------------------------


def enumerate_integral_allocations(instance: Instance) -> Iterator[IntegralAllocation]:
    """All n^m complete integral allocations, item-major order; above
    ``PO_LIMIT`` the call itself raises SizeLimitError."""
    n, m = instance.n, instance.m
    if n**m > PO_LIMIT:
        raise SizeLimitError(f"{n}^{m} allocations exceed the enumeration cap")
    return (
        IntegralAllocation(tuple(tuple(1 if owner == i else 0 for owner in owners) for i in range(n)))
        for owners in itertools.product(range(n), repeat=m)
    )
