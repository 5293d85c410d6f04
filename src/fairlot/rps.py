"""Lottery-producing allocation rules built on eating plus stagewise decomposition.

The recursive rule runs in stages: every agent eats one unit of probability mass in
preference order from the items a branch has left, the stage matrix is decomposed
on its eaten columns (the items someone ate in that stage) into integral stage
assignments, and the rule recurses on the items a branch leaves unassigned. A
stage's cost therefore shrinks as items run out. A stage runs in integers from the
eating (``eating._eat``) through the decomposition (``decomp._bvn_plan`` and
``decomp._extract``); Fractions appear only in the branch weights. Three modes share
the stage engine:

- ``full_distribution`` expands every branch and merges branches that reach the
  same partial allocation, stage by stage, into one exact lottery of at most
  ``MAX_SUPPORT`` allocations;
- ``poly_support`` keeps the branch list no larger than n*m + 1 by re-solving for
  weights that pin every branch's contribution to the final marginal, so the
  trimmed lottery implements exactly the same fractional allocation;
- ``sample`` keeps one seeded branch per stage and returns its integral allocation.

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
    Instance,
    IntegralAllocation,
    InputError,
    KindMismatchError,
    Lottery,
    ONE,
    SizeLimitError,
    ZERO,
    _Frozen,
    exact_draw,
    ordinal_preferences,
)
# bvn_decompose is not called here: the stage engine runs its plan directly. The
# name stays because perfbench/tracing.py wraps the function at rps.bvn_decompose.
from .decomp import _bvn_plan, _extract, bvn_decompose, caratheodory_weights
from .eating import _eat

FULL_DISTRIBUTION = "full_distribution"
POLY_SUPPORT = "poly_support"
SAMPLE = "sample"
_MODES = (FULL_DISTRIBUTION, POLY_SUPPORT, SAMPLE)

Matrix = tuple[tuple[int, ...], ...]
Branch = tuple[Matrix, frozenset[int]]  # a partial matrix and the items it leaves
# full mode raises SizeLimitError when a stage leaves more branches than this
MAX_SUPPORT = 50_000


class RpsConfig(_Frozen):
    mode: str = FULL_DISTRIBUTION
    seed: int = 0

    def _check(self) -> None:
        if self.mode not in _MODES:
            raise InputError(f"unknown mode: {self.mode}")


class _StageEngine:
    """Stage expansion, memoized per remaining-item set, over fixed ordinal prefs."""

    def __init__(self, prefs: Sequence[Sequence[int]], m: int) -> None:
        self.prefs = tuple(tuple(p) for p in prefs)
        self.n = len(self.prefs)
        self.m = m
        self._parts: dict[frozenset[int], tuple[tuple[Fraction, tuple[tuple[int, int], ...], frozenset[int]], ...]] = {}
        self._marginals: dict[frozenset[int], tuple[tuple[Fraction, ...], ...]] = {}

    def stages(self) -> int:
        return math.ceil(self.m / self.n) if self.m else 0

    def expand(
        self, mask: frozenset[int]
    ) -> tuple[tuple[Fraction, tuple[tuple[int, int], ...], frozenset[int]], ...]:
        """One stage from ``mask``: (weight, assigned cells, remaining items) per branch.

        The agents eat the items of ``mask`` only, in integers over one
        denominator, and the stage matrix decomposed on ``bvn_decompose``'s plan
        keeps only its eaten columns (those with a nonzero cell), in item order.
        A zero column would add only fixed arcs with no max-flow edge, so the
        extracted parts are the full-width parts without those columns. The parts
        are distinct and sorted by matrix, the order ``Lottery`` gives them, and
        each part's cells are mapped back to item indices.
        """
        cached = self._parts.get(mask)
        if cached is not None:
            return cached
        items = sorted(mask)
        local = {j: k for k, j in enumerate(items)}
        prefs = tuple(tuple(local[j] for j in order if j in local) for order in self.prefs)
        zero = [[0] * len(items) for _ in range(self.n)]
        den, _, eaten, _ = _eat(prefs, 1, [1] * len(items), zero, 0, 1)
        cols = [k for k in range(len(items)) if any(row[k] for row in eaten)]
        r = [[row[k] for k in cols] for row in eaten]
        extracted = _extract(den, r, len(cols), *_bvn_plan(den, r, len(cols)))
        parts = []
        for weight, rows in sorted(extracted, key=lambda part: part[1]):
            cells = tuple((i, items[cols[k]]) for i, row in enumerate(rows) for k, x in enumerate(row) if x)
            parts.append((weight, cells, mask - frozenset(j for _, j in cells)))
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

    def distribution(self, mode: str, rng: random.Random) -> dict[Branch, Fraction]:
        """The branch distribution, expanded one stage at a time, keyed by each
        branch's partial matrix and the items it leaves.

        Branches that reach the same partial matrix merge before the next stage.
        Full mode keeps every branch, and a frontier above ``MAX_SUPPORT`` entries
        raises SizeLimitError. Poly mode re-solves every frontier above n*m + 1
        entries for branch weights that keep each branch's final contribution
        (assigned part plus the exact marginal of its remaining subgame) fixed, so
        the implemented fractional allocation never moves. Sample mode keeps one
        branch per stage, drawn exactly from the stage's parts with ``rng``.
        """
        cap = self.n * self.m + 1
        zero: Matrix = tuple((0,) * self.m for _ in range(self.n))
        frontier = {(zero, frozenset(range(self.m))): ONE}
        for _ in range(self.stages()):
            expanded: dict[Branch, Fraction] = {}
            for (mat, mask), weight in frontier.items():
                parts = self.expand(mask)
                if mode == SAMPLE:
                    parts = (exact_draw(parts, rng),)
                for w, cells, rest in parts:
                    rows = [list(r) for r in mat]
                    for i, j in cells:
                        rows[i][j] = 1
                    key = (tuple(tuple(r) for r in rows), rest)
                    expanded[key] = expanded.get(key, ZERO) + weight * w
            if mode == FULL_DISTRIBUTION and len(expanded) > MAX_SUPPORT:
                raise SizeLimitError(f"support grew to {len(expanded)} allocations; use poly_support mode")
            frontier = self._trim(expanded) if mode == POLY_SUPPORT and len(expanded) > cap else expanded
        return frontier

    def _trim(self, branches: dict[Branch, Fraction]) -> dict[Branch, Fraction]:
        keys = list(branches)
        columns = []
        for mat, rest in keys:
            sub = self.marginal(rest)
            columns.append([mat[i][j] + sub[i][j] for i in range(self.n) for j in range(self.m)])
        weights = caratheodory_weights(columns, [branches[key] for key in keys])
        return {key: w for key, w in zip(keys, weights) if w > 0}


def _run_engine(
    prefs: Sequence[Sequence[int]], m: int, cfg: RpsConfig, width: int
) -> Lottery | IntegralAllocation:
    """The rule over ``m`` ranked items, keeping the first ``width`` columns of
    each allocation: the columns past ``width`` are padding."""
    table = _StageEngine(prefs, m).distribution(cfg.mode, random.Random(cfg.seed))
    mats = [(w, tuple(row[:width] for row in mat)) for (mat, _), w in table.items()]
    parts = tuple((w, IntegralAllocation._from_scaled(mat, 1, mat)) for w, mat in mats)
    return parts[0][1] if cfg.mode == SAMPLE else Lottery(parts)


def _run_padded(instance: Instance, cfg: RpsConfig) -> Lottery | IntegralAllocation:
    """Pad with zero-valued dummies until the item count divides evenly among
    the agents, run ordinally, strip the dummies."""
    pad = (-instance.m) % instance.n
    prefs = ordinal_preferences([row + (0,) * pad for _, row in instance.scaled])
    return _run_engine(prefs, instance.m + pad, cfg, instance.m)


def rps(instance: Instance, cfg: RpsConfig = RpsConfig()) -> Lottery | IntegralAllocation:
    """Recursive serial rule for goods: eat one unit per stage, decompose, recurse.

    The full lottery's marginal is ordinally envy-free and every support
    allocation is ordinally envy-free up to one good. Full mode stops with
    SizeLimitError once a stage leaves more than ``MAX_SUPPORT`` branches; sample
    mode draws one branch per stage and returns its integral allocation.
    """
    if instance.kind != GOODS:
        raise KindMismatchError("rps expects a goods instance")
    return _run_engine(instance.prefs, instance.m, cfg, instance.m)


def rps_bads(instance: Instance, cfg: RpsConfig = RpsConfig()) -> Lottery | IntegralAllocation:
    """The rule for bads: pad with zero-valued dummies to divisibility, run
    ordinally, strip. Padding upgrades the per-part guarantee from envy-free up
    to two bads to envy-free up to one bad."""
    if instance.kind != BADS:
        raise KindMismatchError("rps_bads expects a bads instance")
    return _run_padded(instance, cfg)


def rps_mixed(instance: Instance, cfg: RpsConfig = RpsConfig()) -> Lottery | IntegralAllocation:
    """The rule for mixed goods and bads; parts are weakly envy-free up to one item.

    Accepts any kind: with only goods or only bads it degrades to the matching
    specialized guarantee.
    """
    return _run_padded(instance, cfg)


ROUND_ROBIN_EXACT_LIMIT = 8


def _round_robin_once(instance: Instance, order: Sequence[int]) -> Matrix:
    rows = [[0] * instance.m for _ in range(instance.n)]
    remaining = set(range(instance.m))
    turn = 0
    while remaining:
        agent = order[turn % len(order)]
        best = next(j for j in instance.prefs[agent] if j in remaining)
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
        part = _round_robin_once(instance, order)
        return IntegralAllocation._from_scaled(part, 1, part)
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
    return Lottery(tuple((w, IntegralAllocation._from_scaled(mat, 1, mat)) for mat, w in table.items()))
