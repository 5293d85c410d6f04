"""Lottery-producing allocation rules built on eating plus stagewise decomposition.

The recursive rule runs in stages: every agent eats one unit of probability mass in
preference order from the items a branch has left, the stage matrix is decomposed
on its eaten columns (the items someone ate in that stage) into integral stage
assignments, and the rule recurses on the items a branch leaves unassigned. A
stage's cost therefore shrinks as items run out. Three modes share the stage engine:

- ``full_distribution`` expands every branch and merges branches that reach the
  same partial allocation, stage by stage, into one exact lottery;
- ``poly_support`` keeps the branch list no larger than n*m + 1 by re-solving for
  weights that pin every branch's contribution to the final marginal, so the
  trimmed lottery implements exactly the same fractional allocation;
- ``sample`` walks a single seeded branch and returns one integral allocation.

Bads and mixed items run the same engine ordinally after padding the instance with
zero-valued dummy items until the item count divides evenly among agents; dummies
are eaten where their value ranks them (after goods, before bads) and stripped from
the output. Randomized round-robin, the simpler picking-order rule, lives here too.
"""
from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from typing import Sequence

from .core import (
    BADS,
    GOODS,
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
    ordinal_preferences,
)
from .decomp import bvn_decompose, caratheodory_weights
from .eating import EatingState

FULL_DISTRIBUTION = "full_distribution"
POLY_SUPPORT = "poly_support"
SAMPLE = "sample"
_MODES = (FULL_DISTRIBUTION, POLY_SUPPORT, SAMPLE)

Matrix = tuple[tuple[int, ...], ...]


class RpsConfig(_Frozen):
    mode: str = FULL_DISTRIBUTION
    seed: int = 0
    max_support: int = 50_000

    def _check(self) -> None:
        if self.mode not in _MODES:
            raise InputError(f"unknown mode: {self.mode}")
        if self.max_support < 1:
            raise InputError("max_support must be at least 1")


def _uniform(rng: random.Random) -> Fraction:
    # 63 fair bits against exact cumulative weights keeps draws platform-stable
    return Fraction(rng.getrandbits(63), 2**63)


class _StageEngine:
    """Stage expansion, memoized per remaining-item set, over fixed ordinal prefs."""

    def __init__(self, prefs: Sequence[Sequence[int]], m: int, max_support: int) -> None:
        self.prefs = tuple(tuple(p) for p in prefs)
        self.n = len(self.prefs)
        self.m = m
        self.max_support = max_support
        self._parts: dict[frozenset[int], tuple[tuple[Fraction, tuple[tuple[int, int], ...], frozenset[int]], ...]] = {}
        self._marginals: dict[frozenset[int], tuple[tuple[Fraction, ...], ...]] = {}

    def stages(self) -> int:
        return math.ceil(self.m / self.n) if self.m else 0

    def expand(
        self, mask: frozenset[int]
    ) -> tuple[tuple[Fraction, tuple[tuple[int, int], ...], frozenset[int]], ...]:
        """One stage from ``mask``: (weight, assigned cells, remaining items) per branch.

        The agents eat the items of ``mask`` only, and the stage matrix handed to
        ``bvn_decompose`` keeps only its eaten columns (those with a nonzero cell),
        in item order. A zero column would add only fixed arcs with no max-flow
        edge, so the extracted parts are the full-width parts without those
        columns; each part's cells are mapped back to item indices.
        """
        cached = self._parts.get(mask)
        if cached is not None:
            return cached
        items = sorted(mask)
        local = {j: k for k, j in enumerate(items)}
        prefs = tuple(tuple(local[j] for j in order if j in local) for order in self.prefs)
        eaten = EatingState.start(prefs, (ONE,) * len(items)).run(ONE).eaten
        cols = [k for k in range(len(items)) if any(row[k] for row in eaten)]
        stage = FractionalAllocation(tuple(tuple(row[k] for k in cols) for row in eaten))
        parts = []
        for weight, alloc in bvn_decompose(stage).support:
            cells = tuple(
                (i, items[cols[k]]) for i, row in enumerate(alloc.matrix) for k, x in enumerate(row) if x
            )
            taken = frozenset(j for _, j in cells)
            parts.append((weight, cells, mask - taken))
        result = tuple(parts)
        self._parts[mask] = result
        return result

    def marginal(self, mask: frozenset[int]) -> tuple[tuple[Fraction, ...], ...]:
        """Expected final allocation of the subgame on ``mask``, exact."""
        cached = self._marginals.get(mask)
        if cached is not None:
            return cached
        if not mask:
            result = tuple((ZERO,) * self.m for _ in range(self.n))
        else:
            acc = [[ZERO] * self.m for _ in range(self.n)]
            for weight, cells, rest in self.expand(mask):
                for i, j in cells:
                    acc[i][j] += weight
                sub = self.marginal(rest)
                for i in range(self.n):
                    for j in rest:
                        acc[i][j] += weight * sub[i][j]
            result = tuple(tuple(row) for row in acc)
        self._marginals[mask] = result
        return result

    def distribution(self, trim: bool) -> dict[Matrix, Fraction]:
        """The branch distribution, expanded one stage at a time.

        Branches that reach the same partial matrix merge before the next stage.
        Without ``trim`` the result is the exact full distribution, and a frontier
        above ``max_support`` entries raises SizeLimitError. With ``trim`` every
        frontier above n*m + 1 entries is re-solved for branch weights that keep
        each branch's final contribution (assigned part plus the exact marginal of
        its remaining subgame) fixed, so the implemented fractional allocation
        never moves.
        """
        cap = self.n * self.m + 1
        zero: Matrix = tuple((0,) * self.m for _ in range(self.n))
        frontier: dict[Matrix, Fraction] = {zero: ONE}
        for _ in range(self.stages()):
            expanded: dict[Matrix, Fraction] = {}
            for mat, weight in frontier.items():
                mask = self._unassigned(mat)
                for w, cells, _rest in self.expand(mask):
                    rows = [list(r) for r in mat]
                    for i, j in cells:
                        rows[i][j] = 1
                    key: Matrix = tuple(tuple(r) for r in rows)
                    expanded[key] = expanded.get(key, ZERO) + weight * w
            if not trim and len(expanded) > self.max_support:
                raise SizeLimitError(
                    f"support grew to {len(expanded)} allocations; use poly_support mode"
                )
            frontier = self._trim(expanded) if trim and len(expanded) > cap else expanded
        return frontier

    def _unassigned(self, mat: Matrix) -> frozenset[int]:
        return frozenset(
            j for j in range(self.m) if all(mat[i][j] == 0 for i in range(self.n))
        )

    def _trim(self, branches: dict[Matrix, Fraction]) -> dict[Matrix, Fraction]:
        keys = list(branches)
        columns = []
        for mat in keys:
            sub = self.marginal(self._unassigned(mat))
            columns.append([mat[i][j] + sub[i][j] for i in range(self.n) for j in range(self.m)])
        weights = caratheodory_weights(columns, [branches[mat] for mat in keys])
        return {mat: w for mat, w in zip(keys, weights) if w > 0}

    def sample_walk(
        self, rng: random.Random
    ) -> tuple[Matrix, list[tuple[tuple[tuple[int, int], ...], frozenset[int]]]]:
        """One seeded branch: the final matrix plus the per-stage trace."""
        rows = [[0] * self.m for _ in range(self.n)]
        mask = frozenset(range(self.m))
        trace = []
        while mask:
            parts = self.expand(mask)
            draw = _uniform(rng)
            cumulative = ZERO
            chosen = parts[-1]
            for part in parts:
                cumulative += part[0]
                if draw < cumulative:
                    chosen = part
                    break
            _, cells, rest = chosen
            for i, j in cells:
                rows[i][j] = 1
            trace.append((cells, rest))
            mask = rest
        return tuple(tuple(r) for r in rows), trace


def _run_engine(
    prefs: Sequence[Sequence[int]], m: int, cfg: RpsConfig
) -> Lottery | IntegralAllocation:
    engine = _StageEngine(prefs, m, cfg.max_support)
    if cfg.mode == SAMPLE:
        matrix, _ = engine.sample_walk(random.Random(cfg.seed))
        return IntegralAllocation(matrix)
    table = engine.distribution(trim=cfg.mode == POLY_SUPPORT)
    return Lottery(tuple((w, IntegralAllocation(mat)) for mat, w in table.items()))


def _strip_columns(result: Lottery | IntegralAllocation, m: int) -> Lottery | IntegralAllocation:
    if isinstance(result, IntegralAllocation):
        return IntegralAllocation(tuple(row[:m] for row in result.matrix))
    return Lottery(
        tuple(
            (w, IntegralAllocation(tuple(row[:m] for row in alloc.matrix)))
            for w, alloc in result.support
        )
    )


def _padded_prefs(instance: Instance, pad: int) -> tuple[tuple[int, ...], ...]:
    rows = [tuple(row) + (ZERO,) * pad for row in instance.values]
    return ordinal_preferences(rows)


def rps(instance: Instance, cfg: RpsConfig = RpsConfig()) -> Lottery | IntegralAllocation:
    """Recursive serial rule for goods: eat one unit per stage, decompose, recurse.

    The full lottery's marginal is ordinally envy-free and every support
    allocation is ordinally envy-free up to one good.
    """
    if instance.kind != GOODS:
        raise KindMismatchError("rps expects a goods instance")
    return _run_engine(instance.prefs, instance.m, cfg)


def rps_bads(instance: Instance, cfg: RpsConfig = RpsConfig()) -> Lottery | IntegralAllocation:
    """The rule for bads: pad with zero-valued dummies to divisibility, run
    ordinally, strip. Padding upgrades the per-part guarantee from envy-free up
    to two bads to envy-free up to one bad."""
    if instance.kind != BADS:
        raise KindMismatchError("rps_bads expects a bads instance")
    pad = (-instance.m) % instance.n
    result = _run_engine(_padded_prefs(instance, pad), instance.m + pad, cfg)
    return _strip_columns(result, instance.m) if pad else result


def rps_mixed(instance: Instance, cfg: RpsConfig = RpsConfig()) -> Lottery | IntegralAllocation:
    """The rule for mixed goods and bads; parts are weakly envy-free up to one item.

    Accepts any kind: with only goods or only bads it degrades to the matching
    specialized guarantee.
    """
    pad = (-instance.m) % instance.n
    result = _run_engine(_padded_prefs(instance, pad), instance.m + pad, cfg)
    return _strip_columns(result, instance.m) if pad else result


ROUND_ROBIN_EXACT_LIMIT = 8


def _round_robin_once(instance: Instance, order: Sequence[int]) -> Matrix:
    rows = [[0] * instance.m for _ in range(instance.n)]
    remaining = set(range(instance.m))
    turn = 0
    while remaining:
        agent = order[turn % len(order)]
        best = max(remaining, key=lambda j: (instance.values[agent][j], -j))
        rows[agent][best] = 1
        remaining.remove(best)
        turn += 1
    return tuple(tuple(r) for r in rows)


def randomized_round_robin(
    instance: Instance, mode: str = "exact", seed: int = 0
) -> Lottery | IntegralAllocation:
    """Agents pick their favorite remaining good in a uniformly random order.

    ``exact`` enumerates all n! orders (n <= 8); ``sample`` draws one order.
    """
    if instance.kind != GOODS:
        raise KindMismatchError("randomized_round_robin expects a goods instance")
    if mode == "sample":
        order = list(range(instance.n))
        random.Random(seed).shuffle(order)
        return IntegralAllocation(_round_robin_once(instance, order))
    if mode != "exact":
        raise InputError(f"unknown mode: {mode}")
    if instance.n > ROUND_ROBIN_EXACT_LIMIT:
        raise SizeLimitError(
            f"exact round-robin enumerates n! orders; n capped at {ROUND_ROBIN_EXACT_LIMIT}"
        )
    weight = Fraction(1, math.factorial(instance.n))
    table: dict[Matrix, Fraction] = {}
    for order in itertools.permutations(range(instance.n)):
        key = _round_robin_once(instance, order)
        table[key] = table.get(key, ZERO) + weight
    return Lottery(tuple((w, IntegralAllocation(mat)) for mat, w in table.items()))
