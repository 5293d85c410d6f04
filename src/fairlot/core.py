"""Exact-rational data model: instances, allocations, lotteries, verdicts and JSON forms.

Everything in this module is immutable and arithmetically exact (``fractions.Fraction``).
The value types here and in the other layers are plain classes on one immutable
base, ``_Frozen``: each declares its fields once, as class annotations, and gets a
constructor compiled once per class at import; the library imports no
``dataclasses`` or ``inspect``. An ``IntegralAllocation`` is a ``FractionalAllocation``
with int 0/1 cells. Instance values and allocation cells are ints or Fractions;
a float is an ``InputError``. The JSON loaders parse decimal literals
digit-exactly, so ``0.6`` becomes 3/5, not the nearest binary float. An
``Instance`` scales each agent's value row to ints once, so a utility, bundle
value or share is one int sum wrapped in a single Fraction; an allocation is
validated once, as int rows over the lcm of its cells' denominators.
"""
from __future__ import annotations

import itertools
import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Iterable, NoReturn, Sequence

GOODS = "goods"
BADS = "bads"
MIXED = "mixed"

ZERO = Fraction(0)
ONE = Fraction(1)

# support x n x m cells a lottery file may ask for; the densest n x n BvN
# decomposition (n^2 - 2n + 2 parts) stays under it up to n = 45
LOTTERY_CELL_LIMIT = 4_000_000


class FairlotError(Exception):
    """Base class for all library errors."""


class InputError(FairlotError):
    """Malformed or inconsistent input (parse errors, dimension mismatches, bad matrices)."""


class ZeroUtilityError(InputError):
    """A utility-ratio condition is undefined because an agent's bundle value has the wrong sign."""


class KindMismatchError(FairlotError):
    """A property notion or solver was applied to an instance kind it is not defined for."""


class SizeLimitError(FairlotError):
    """An enumeration or support cap was exceeded."""


class SolveError(FairlotError):
    """An exact solve failed: the simplex hit its iteration cap or phase one failed,
    an MNW price round did not raise the live prices, or a deviation search below
    the Nash optimum found no transfer."""


class _Frozen:
    """Base of the library's immutable value types.

    A subclass declares its fields once, as class annotations, in order, after any
    its base declared; a class attribute with a field's name is that field's
    default. ``__init_subclass__`` records the names in ``_fields`` and compiles,
    once per class at import, an ``__init__`` whose parameters are the fields: it
    stores them with ``_store`` and then calls the class's ``_check``, which
    validates and may normalise a field through ``self._store``. Equality
    (same class only), hashing and repr run over the fields in order; every
    assignment or deletion raises AttributeError. A value derived from the fields
    is a ``_computed_once`` attribute, stored with ``_store`` on first read.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        cls._fields = fields = (*cls._fields, *cls.__annotations__)
        params = ", ".join(f"{f}=_d.{f}" if hasattr(cls, f) else f for f in fields)
        body = [f"_store(self, {f!r}, {f})" for f in fields]
        if cls._check is not _Frozen._check:
            body.append("self._check()")
        namespace = {"_d": cls, "_store": _Frozen._store}
        exec(f"def __init__(self, {params}):\n    " + "\n    ".join(body), namespace)
        init = cls.__init__ = namespace["__init__"]
        init.__qualname__ = f"{cls.__qualname__}.__init__"
        init.__module__ = cls.__module__

    # The one way to set a field: a store through __dict__ would materialise the
    # instance dict, and on CPython 3.11+ every later field read would be slower.
    _store = object.__setattr__

    def _check(self) -> None:
        """Validate (and normalise) the fields just stored; the base accepts any."""

    def __setattr__(self, name: str, value: object) -> NoReturn:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> NoReturn:
        raise AttributeError(f"cannot delete field {name!r}")

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"


class _computed_once:
    """A method read as an attribute: computed on the first read, then stored with
    ``_Frozen._store``, which shadows this non-data descriptor. Unlike
    ``functools.cached_property`` it never materialises the instance ``__dict__``,
    which would slow every later field read."""

    def __init__(self, method: Callable) -> None:
        self.method = method
        self.name = method.__name__
        self.__doc__ = method.__doc__

    def __get__(self, obj: object, owner: type | None = None) -> Any:
        if obj is None:
            return self
        value = self.method(obj)
        _Frozen._store(obj, self.name, value)
        return value


def parse_rational(value: int | str | Fraction) -> Fraction:
    """Parse an exact rational from an int, a ``"p/q"`` string, or a decimal string.

    A decimal exponent may not exceed ``sys.get_int_max_str_digits()`` in
    magnitude, the limit Python already puts on the digits of an int literal:
    ``"1e3000000"`` would otherwise cost seconds, and more without bound.

    >>> parse_rational("3/5"), parse_rational("0.6"), parse_rational(2)
    (Fraction(3, 5), Fraction(3, 5), Fraction(2, 1))
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise InputError(f"not a rational value: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        # Floats should not appear (the JSON loaders intercept them); go through the
        # repr so a stray 0.6 still means 3/5 rather than its binary neighbour, and
        # nan or inf fail like any other string that is not a rational.
        value = repr(value)
    if isinstance(value, str):
        _, _, exponent = value.lower().partition("e")
        limit = sys.get_int_max_str_digits()
        try:
            if exponent and limit and abs(int(exponent)) > limit:
                raise InputError(f"decimal exponent above {limit} in magnitude: {value[:40]!r}")
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"not a rational value: {value!r}") from exc
    raise InputError(f"not a rational value: {value!r}")


def ordinal_preferences(rows: Sequence[Sequence[int | Fraction]]) -> tuple[tuple[int, ...], ...]:
    """Per-agent item orders: by value descending, ties by ascending item index.
    Rows may be ints or Fractions; a row times a positive scale sorts the same."""
    return tuple(
        tuple(sorted(range(len(row)), key=lambda j: (-row[j], j))) for row in rows
    )


class Instance(_Frozen):
    """A fair-division instance: additive valuations of n agents over m items.

    Values are ints or Fractions. The kind is derived from the signs of the
    values: all nonnegative means goods (and then every item must have at least
    one agent valuing it positively), all nonpositive means bads, anything else
    is mixed manna. Utilities, bundle values and shares sum the integer rows of
    ``scaled`` into one Fraction; a bundle's cells must be ints or Fractions.
    """

    values: tuple[tuple[Fraction, ...], ...]

    def _check(self) -> None:
        values = self.values
        if not values:
            raise InputError("instance needs at least one agent")
        m = len(values[0])
        for row in values:
            if len(row) != m:
                raise InputError("value rows have inconsistent lengths")
            for v in row:
                if not isinstance(v, (int, Fraction)):
                    raise InputError(f"value {v!r} is not an int or a Fraction")

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int | str | Fraction]]) -> "Instance":
        return cls(tuple(tuple(parse_rational(v) for v in row) for row in rows))

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def m(self) -> int:
        return len(self.values[0])

    @_computed_once
    def kind(self) -> str:
        rows = [row for _, row in self.scaled]  # a positive scale keeps each sign
        has_pos = any(max(row, default=0) > 0 for row in rows)
        has_neg = any(min(row, default=0) < 0 for row in rows)
        if has_neg and has_pos:
            return MIXED
        if has_neg:
            return BADS
        # goods: every column must have a strictly positive entry
        for j, column in enumerate(zip(*rows)):
            if not any(column):
                raise InputError(f"goods instance has no agent valuing item {j} positively")
        return GOODS

    @_computed_once
    def prefs(self) -> tuple[tuple[int, ...], ...]:
        """Ordinal preferences induced by the values (value-descending, index tie-break),
        sorted on the int rows of ``scaled``."""
        return ordinal_preferences([row for _, row in self.scaled])

    @_computed_once
    def scaled(self) -> tuple[tuple[int, tuple[int, ...]], ...]:
        """Per agent, ``(scale, row)``: the lcm of the value row's denominators,
        and the row times it as ints."""
        out = []
        for row in self.values:
            scale = math.lcm(*[v.denominator for v in row])
            out.append((scale, tuple([v.numerator * (scale // v.denominator) for v in row])))
        return tuple(out)

    def utility(self, i: int, bundle: Sequence[Fraction]) -> Fraction:
        """Additive value of agent i for a (possibly fractional) bundle row: the
        int row against the cells' numerators over their common denominator."""
        scale, row = self.scaled[i]
        if len(bundle) != len(row):
            raise InputError("bundle length does not match item count")
        cells = [x.as_integer_ratio() for x in bundle]
        den = math.lcm(*[d for _, d in cells])
        total = sum([v * num * (den // d) for v, (num, d) in zip(row, cells) if num])
        return Fraction(total, den * scale)

    def bundle_value(self, i: int, items: Iterable[int]) -> Fraction:
        scale, row = self.scaled[i]
        return Fraction(sum([row[j] for j in items]), scale)

    def proportional_share(self, i: int) -> Fraction:
        scale, row = self.scaled[i]
        return Fraction(sum(row), scale * self.n)


def sd_dominates(
    prefs: Sequence[Sequence[int]], i: int, p: Sequence[Fraction], q: Sequence[Fraction]
) -> bool:
    """Whether bundle vector ``p`` stochastically dominates ``q`` for agent i.

    Prefix masses are compared along agent i's ordinal order: every prefix of p
    must carry at least as much mass as the same prefix of q. The sums start at
    int 0, so int rows (an allocation's ``scaled`` rows, all masses times one
    positive ``den``) compare in int arithmetic.
    """
    if len(p) != len(q) or len(p) != len(prefs[i]):
        raise InputError("bundle length does not match item count")
    cp = cq = 0
    for j in prefs[i]:
        cp += p[j]
        cq += q[j]
        if cp < cq:
            return False
    return True


def outbid(
    instance: Instance,
    x: "FractionalAllocation",
    agents: Iterable[int],
    utilities: Sequence[Fraction],
    sign: int = 1,
    slack: Fraction | int = 0,
) -> tuple[int, int, int] | None:
    """The first (item g, holder i, rival h), in g, then i, then h order over ``agents``,
    with x_ig > 0 and sign * (v_hg * u_i - v_ig * u_h) > slack * u_i * u_h, where u_i is
    ``utilities[i]``; else None. With u_i * u_h > 0 the rival's rate v_hg / u_h beats
    the holder's v_ig / u_i by more than the slack (sign 1, goods), or falls below it
    by more (sign -1, bads). Both sides are multiplied by the positive
    scale_i * scale_h * den(u_i) * den(u_h) * den(slack), so the test compares ints.
    """
    terms = []  # per agent: index, int row, num(u) * scale, den(u)
    for i in agents:
        (scale, row), u = instance.scaled[i], utilities[i]
        terms.append((i, row, u.numerator * scale, u.denominator))
    held = x.scaled[1]
    p, q = slack.numerator, sign * slack.denominator  # q carries the sign
    for g in range(instance.m):
        for i, row_i, num_i, den_i in terms:
            if held[i][g] > 0:
                for h, row_h, num_h, den_h in terms:
                    if q * (row_h[g] * num_i * den_h - row_i[g] * num_h * den_i) > p * num_i * num_h:
                        return g, i, h
    return None


class FractionalAllocation(_Frozen):
    """An n-by-m matrix of item shares; cell (i, j) is agent i's share of item j.

    Cells are ints or Fractions in [0, 1], and column sums never exceed 1. The
    allocation is complete when every column sums to exactly 1. Validation runs
    on ``scaled``: ``(den, rows)``, the lcm of the cells' denominators and the
    rows times it as ints. It is not a field, so equality, hashing and repr use
    ``matrix`` alone.

    ``_from_scaled(matrix, den, rows)`` stores an allocation the library built
    from ints with no check. Its caller keeps every cell of ``rows`` in [0, den]
    and every column sum at or below ``den``, passes ``den`` already reduced (so
    ``scaled`` is what ``_check`` would store) and ``matrix`` equal to
    ``rows / den``, and lets no input from outside the program reach it.
    """

    matrix: tuple[tuple[Fraction, ...], ...]

    def _check(self) -> None:
        matrix = self.matrix
        # a cell that is no int or Fraction (a float, nan included) meets the
        # bounds as itself, over den 1, and is an error only after every row's
        cell_types = set(map(type, itertools.chain.from_iterable(matrix)))
        exact = all([issubclass(t, (int, Fraction)) for t in cell_types])
        den = math.lcm(*[x.denominator for row in matrix for x in row]) if exact else 1
        rows = tuple([tuple([x.numerator * (den // x.denominator) for x in row]) for row in matrix]) if exact else matrix
        for row, scaled in zip(matrix, rows):
            if len(row) != len(matrix[0]):
                break  # _keep reports the shape first
            for x, r in zip(row, scaled):
                if r < 0 or r > den:
                    raise InputError(f"allocation cell {x} outside [0, 1]")
        self._keep(den, rows, exact)

    def _keep(self, den: int, rows: tuple[tuple[int, ...], ...], exact: bool) -> None:
        """Store ``(den, rows)`` as ``scaled``, once the shape, then the cell types,
        then every int column sum against ``den`` pass."""
        if not rows:
            raise InputError("allocation needs at least one agent row")
        if any([len(row) != len(rows[0]) for row in rows]):
            raise InputError("allocation rows have inconsistent lengths")
        if not exact:
            raise InputError("allocation has a cell that is not an int or a Fraction")
        for j, s in enumerate(map(sum, zip(*rows))):
            if s > den:
                raise InputError(f"column {j} allocates more than the whole item ({Fraction(s, den)})")
        self._store("scaled", (den, rows))

    @classmethod
    def _from_scaled(cls, matrix: tuple, den: int, rows: tuple[tuple[int, ...], ...]) -> "FractionalAllocation":
        self = cls.__new__(cls)
        _Frozen._store(self, "matrix", matrix)
        _Frozen._store(self, "scaled", (den, rows))
        return self

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int | str | Fraction]]) -> "FractionalAllocation":
        return cls(tuple(tuple(parse_rational(v) for v in row) for row in rows))

    @property
    def n(self) -> int:
        return len(self.matrix)

    @property
    def m(self) -> int:
        return len(self.matrix[0])

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self.matrix[i]

    def check_shape(self, instance: Instance) -> None:
        if self.n != instance.n or self.m != instance.m:
            raise InputError("allocation shape does not match instance")

    @property
    def complete(self) -> bool:
        den, rows = self.scaled
        return all([s == den for s in map(sum, zip(*rows))])

    @property
    def is_integral(self) -> bool:
        return self.scaled[0] == 1

    def to_integral(self) -> "IntegralAllocation":
        if not self.is_integral:
            raise InputError("allocation has fractional cells")
        return IntegralAllocation(self.scaled[1])


class IntegralAllocation(FractionalAllocation):
    """A fractional allocation with int 0/1 cells; each item goes to at most one agent.
    It declares no field. Its 0/1 test proves den = 1, so ``scaled`` is ``(1, matrix)``
    with no lcm and no bounds test; a bool or Fraction cell is copied to an int. The
    library builds its own parts with ``_from_scaled(rows, 1, rows)``, 0/1 int rows."""

    def _check(self) -> None:
        odd = False  # a cell that equals 0 or 1 but is no int: a bool, a Fraction or a float
        for row in self.matrix:
            for x in row:
                if x.__class__ is not int or x not in (0, 1):
                    if x not in (0, 1):
                        raise InputError(f"integral allocation cell {x} not 0/1")
                    odd = True
        if odd:  # the general check makes a bool or Fraction an int, and rejects a float
            super()._check()
        else:
            self._keep(1, self.matrix, True)

    @classmethod
    def from_bundles(cls, n: int, m: int, bundles: Sequence[Iterable[int]]) -> "IntegralAllocation":
        if len(bundles) != n:
            raise InputError(f"expected {n} bundles, got {len(bundles)}")
        matrix = [[0] * m for _ in range(n)]
        for i, bundle in enumerate(bundles):
            for j in bundle:
                if not isinstance(j, int) or isinstance(j, bool) or j < 0 or j >= m:
                    raise InputError(f"item index {j!r} out of range")
                matrix[i][j] = 1
        return cls(tuple(tuple(row) for row in matrix))

    @_computed_once
    def bundles(self) -> tuple[tuple[int, ...], ...]:
        return tuple(
            tuple(j for j in range(self.m) if row[j]) for row in self.matrix
        )


class Lottery(_Frozen):
    """A probability distribution over integral allocations.

    Construction canonicalizes: duplicate allocations are merged, weights must be
    positive and sum to one, and the support is sorted lexicographically by matrix
    so equal lotteries compare equal. The check looks each part's matrix up once,
    in one dict that holds its summed weight and the first allocation that has it,
    and keeps that allocation. Every stored weight is a ``Fraction``. The
    check runs on the library's own supports too; their parts, and every
    ``marginal``, come from ``_from_scaled``, under its contract (see
    ``FractionalAllocation``): cells in [0, den], column sums at most ``den``,
    ``den`` reduced, and no outside input.
    """

    support: tuple[tuple[Fraction, IntegralAllocation], ...]

    def _check(self) -> None:
        support = self.support
        if not support:
            raise InputError("lottery needs a nonempty support")
        n, m = support[0][1].n, support[0][1].m
        merged: dict[tuple[tuple[int, ...], ...], list] = {}  # [summed weight, first allocation]
        for w, alloc in support:
            if alloc.n != n or alloc.m != m:
                raise InputError("lottery allocations have inconsistent shapes")
            if not isinstance(w, (int, Fraction)):
                raise InputError(f"lottery weight {w!r} is not an int or a Fraction")
            if w <= 0:
                raise InputError(f"lottery weight {w} not positive")
            if w.__class__ is not Fraction:
                w = Fraction(w)
            entry = [w, alloc]
            seen = merged.setdefault(alloc.matrix, entry)
            if seen is not entry:  # weights are added only when a matrix repeats
                seen[0] += w
        weights = [w for w, _ in merged.values()]
        # the int numerators over the lcm of the weights' denominators
        den = math.lcm(*[w.denominator for w in weights])
        if sum([w.numerator * (den // w.denominator) for w in weights]) != den:
            raise InputError(f"lottery weights sum to {sum(weights, ZERO)}, expected 1")
        self._store("support", tuple([(w, alloc) for _, (w, alloc) in sorted(merged.items())]))

    @property
    def n(self) -> int:
        return self.support[0][1].n

    @property
    def m(self) -> int:
        return self.support[0][1].m

    def __len__(self) -> int:
        return len(self.support)

    @_computed_once
    def marginal(self) -> FractionalAllocation:
        """The expected allocation matrix of the lottery. Each agent's weights are
        summed per distinct row first, so each distinct 0/1 row is added to the
        agent's cells once: a dense lottery has far fewer distinct rows than parts."""
        # integer numerators over the lcm of the weights' denominators, then both
        # divided by their gcd: that quotient is the lcm of the cells' denominators
        den = math.lcm(*(w.denominator for w, _ in self.support))
        sums: list[dict[tuple[int, ...], int]] = [{} for _ in range(self.n)]
        for w, alloc in self.support:
            num = w.numerator * (den // w.denominator)
            for agent, row in zip(sums, alloc.matrix):
                agent[row] = agent.get(row, 0) + num
        acc = [[0] * self.m for _ in range(self.n)]
        for acc_row, agent in zip(acc, sums):
            for row, num in agent.items():
                for j in itertools.compress(range(self.m), row):
                    acc_row[j] += num
        g = math.gcd(den, *itertools.chain.from_iterable(acc))
        rows = tuple(tuple(v // g for v in row) for row in acc)
        den //= g
        matrix = tuple(tuple(Fraction(v, den) if v else ZERO for v in row) for row in rows)
        return FractionalAllocation._from_scaled(matrix, den, rows)


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


def exact_draw(entries: Sequence[tuple], rng: random.Random) -> tuple:
    """One entry by inverse CDF, where ``entry[0]`` is its weight and the weights
    sum to 1. The uniform is 63 fair bits over 2**63, so every comparison is exact
    and a seed draws the same entry on every platform. The draw is exact only for
    weights whose denominators divide 2**63: a weight of 1/3 is drawn with
    probability 1/3 + 1/(3 * 2**63) (ROADMAP item 20)."""
    r = Fraction(rng.getrandbits(63), 2**63)
    for entry in entries[:-1]:
        r -= entry[0]
        if r < 0:
            return entry
    return entries[-1]


# ---------------------------------------------------------------------------
# JSON serialization.
#
# Instance:   {"agents": n, "items": m, "values": [[int|decimal|"p/q", ...], ...]}
# Allocation: {"matrix": [["p/q", ...], ...]}
# Lottery:    {"agents": n, "items": m,
#              "support": [{"weight": "p/q", "bundles": [[item, ...], ...]}, ...]}
# ---------------------------------------------------------------------------


def _reject_constant(name: str) -> NoReturn:
    raise InputError(f"not a rational value: {name}")


def _loads(text: str) -> object:
    try:
        return json.loads(text, parse_float=parse_rational, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON: {exc}") from exc
    except ValueError as exc:  # an int literal past sys.get_int_max_str_digits()
        raise InputError(f"invalid numeric literal in JSON: {exc}") from exc
    except RecursionError as exc:
        raise InputError("invalid JSON: nested too deeply") from exc


def _read(path: str | Path) -> object:
    try:
        return _loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text: {exc}") from exc


def _require(obj: object, key: str, context: str) -> object:
    if not isinstance(obj, dict) or key not in obj:
        raise InputError(f"{context}: missing field {key!r}")
    return obj[key]


def instance_from_json(obj: object) -> Instance:
    agents = _require(obj, "agents", "instance")
    items = _require(obj, "items", "instance")
    values = _require(obj, "values", "instance")
    if any(not isinstance(k, int) or isinstance(k, bool) for k in (agents, items)):
        raise InputError("instance: 'agents' and 'items' must be integers")
    if not isinstance(values, list) or len(values) != agents:
        raise InputError(
            f"instance: expected {agents} value rows, got "
            f"{len(values) if isinstance(values, list) else type(values).__name__}"
        )
    rows = []
    for row in values:
        if not isinstance(row, list) or len(row) != items:
            raise InputError(f"instance: every value row must list {items} items")
        rows.append(tuple(parse_rational(v) for v in row))
    return Instance(tuple(rows))


def instance_to_json(instance: Instance) -> dict:
    return {
        "agents": instance.n,
        "items": instance.m,
        "values": [[str(v) for v in row] for row in instance.values],
    }


def allocation_from_json(obj: object) -> FractionalAllocation:
    matrix = _require(obj, "matrix", "allocation")
    if not isinstance(matrix, list) or not matrix:
        raise InputError("allocation: 'matrix' must be a nonempty list of rows")
    rows = []
    for row in matrix:
        if not isinstance(row, list):
            raise InputError("allocation: matrix rows must be lists")
        rows.append(tuple(parse_rational(v) for v in row))
    return FractionalAllocation(tuple(rows))


def allocation_to_json(alloc: FractionalAllocation) -> dict:
    return {"matrix": [[str(x) for x in row] for row in alloc.matrix]}


def _lottery_size(obj: dict, key: str, given: int | None) -> int | None:
    """The lottery's stated agent or item count, checked against the caller's."""
    if key not in obj:
        return given
    stated = obj[key]
    if not isinstance(stated, int) or isinstance(stated, bool) or stated < 0:
        raise InputError(f"lottery: {key!r} must be a nonnegative integer")
    if given is not None and stated != given:
        raise InputError(f"lottery: {key!r} is {stated}, expected {given}")
    return stated


def lottery_from_json(obj: object, n: int | None = None, m: int | None = None) -> Lottery:
    """Load a lottery. Its shape comes from the ``agents``/``items`` fields when
    present (they must agree with ``n``/``m`` when both are given), else from
    ``n``/``m``, else from the bundles, which cannot show a trailing item that no
    allocation assigns. Above ``LOTTERY_CELL_LIMIT`` cells it raises
    SizeLimitError before it builds any matrix."""
    support = _require(obj, "support", "lottery")
    if not isinstance(support, list) or not support:
        raise InputError("lottery: 'support' must be a nonempty list")
    n = _lottery_size(obj, "agents", n)
    m = _lottery_size(obj, "items", m)
    raw: list[tuple[Fraction, list[list[int]]]] = []
    for entry in support:
        weight = parse_rational(_require(entry, "weight", "lottery entry"))
        bundles = _require(entry, "bundles", "lottery entry")
        if not isinstance(bundles, list) or not all(isinstance(b, list) for b in bundles):
            raise InputError("lottery entry: 'bundles' must be a list of item lists, one per agent")
        raw.append((weight, bundles))
    if n is None:
        n = len(raw[0][1])
    if m is None:
        m = 0
        for _, bundles in raw:
            for bundle in bundles:
                for j in bundle:
                    if isinstance(j, int):
                        m = max(m, j + 1)
    if len(raw) * n * m > LOTTERY_CELL_LIMIT:
        raise SizeLimitError(f"lottery: {len(raw)} x {n} x {m} cells exceed the cap of {LOTTERY_CELL_LIMIT}")
    entries = [
        (w, IntegralAllocation.from_bundles(n, m, bundles)) for w, bundles in raw
    ]
    return Lottery(tuple(entries))


def lottery_to_json(lottery: Lottery) -> dict:
    return {
        "agents": lottery.n,
        "items": lottery.m,
        "support": [
            {
                "weight": str(w),
                "bundles": [list(b) for b in alloc.bundles],
            }
            for w, alloc in lottery.support
        ],
    }


def load_instance(path: str | Path) -> Instance:
    return instance_from_json(_read(path))


def load_allocation(path: str | Path) -> FractionalAllocation:
    return allocation_from_json(_read(path))


def load_lottery(path: str | Path, n: int | None = None, m: int | None = None) -> Lottery:
    return lottery_from_json(_read(path), n=n, m=m)


def dump_json(obj: dict, path: str | Path | None = None) -> str:
    text = json.dumps(obj, indent=2) + "\n"
    if path is not None:
        Path(path).write_text(text)
    return text
