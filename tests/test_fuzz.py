"""Hostile JSON through the in-process CLI: every loader ends in a documented exit
code (0-3), never in a traceback, and stdout holds JSON only on success.

Each example draws a well-formed instance, allocation and lottery of one shape (at
most 3 agents x 4 items), then breaks each file at most once: one value, row or
field replaced by junk, one field or list entry dropped, or the whole file junk.
Well-formed goods instances with near-tied values must solve: the Nash-welfare
commands exit 0 on them.
"""

from __future__ import annotations

import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from fairlot.cli import main
from fairlot.core import Instance, allocation_from_json
from fairlot.mnw import ceei_verify

# JSON a hostile file can hold where a number or a list belongs; the floats are
# written as NaN, Infinity and -Infinity, which json.loads accepts
JUNK = st.one_of(
    st.booleans(),
    st.none(),
    st.sampled_from(["", "x", "1/0", "0.5.5", "1e3", "-1/2", "1e400", "inf", "nan"]),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), 0.5, -2.5]),
    st.integers(-10**6, 10**6),
)
NESTED = st.recursive(
    JUNK,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.sampled_from(["agents", "items", "weight", "x"]), inner, max_size=2),
    max_leaves=6,
)
# mostly goods, so that the kind-specific checks run too
VALUE = st.one_of(st.integers(1, 9), st.integers(0, 9), st.integers(-3, 3), st.sampled_from(["1/2", "0.25", "7/3"]))
# ways to split one item: shares handed to distinct agents in a drawn order
SPLITS = ((), ("1",), ("1",), ("1/2", "1/2"), ("1/3", "2/3"), ("1/4",), ("1/3", "1/3", "1/3"))
WEIGHTS = (("1",), ("1/2", "1/2"), ("1/3", "2/3"), ("1/4", "1/4", "1/2"))

FUZZ = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def _slots(obj: object) -> list[tuple[object, object]]:
    """Every (container, key) of a dict value or list entry, nested ones too."""
    if isinstance(obj, dict):
        items = list(obj.items())
    elif isinstance(obj, list):
        items = list(enumerate(obj))
    else:
        return []
    out: list[tuple[object, object]] = []
    for key, value in items:
        out.append((obj, key))
        out.extend(_slots(value))
    return out


@st.composite
def corrupted(draw, obj: object) -> object:
    """``obj`` half the time; else one entry replaced by junk or dropped, or junk whole."""
    kind = draw(st.integers(0, 5))
    slots = _slots(obj)
    if kind < 3 or not slots:
        return draw(NESTED) if kind == 5 else obj
    container, key = draw(st.sampled_from(slots))
    if kind == 3:
        container[key] = draw(NESTED)  # type: ignore[index]
    elif kind == 4:
        del container[key]  # type: ignore[attr-defined]
    else:
        return draw(NESTED)
    return obj


@st.composite
def cases(draw) -> tuple[object, object, object]:
    """An instance, an allocation and a lottery of one shape, each maybe broken."""
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    instance = {"agents": n, "items": m, "values": [[draw(VALUE) for _ in range(m)] for _ in range(n)]}
    matrix = [["0"] * m for _ in range(n)]
    for j in range(m):
        split = draw(st.sampled_from([s for s in SPLITS if len(s) <= n]))
        for i, share in zip(draw(st.permutations(range(n))), split):
            matrix[i][j] = share
    support = []
    for weight in draw(st.sampled_from(WEIGHTS)):
        owners = [draw(st.integers(-1, n - 1)) for _ in range(m)]
        bundles = [[j for j in range(m) if owners[j] == i] for i in range(n)]
        support.append({"weight": weight, "bundles": bundles})
    lottery: dict = {"support": support}
    if draw(st.booleans()):
        lottery.update(agents=n, items=m)
    return (
        draw(corrupted(instance)),
        draw(corrupted({"matrix": matrix})),
        draw(corrupted(lottery)),
    )


PROPERTIES = st.lists(
    st.sampled_from(["prop", "prop1", "ef", "sdef", "ef1", "sdef1", "ef2", "ef11", "wef1", "po", "fpo", "gf", "gfless"]),
    max_size=2,
).map(",".join)

RULES = st.sampled_from(
    [
        ["rps"],
        ["rps", "--mode", "poly"],
        ["rps", "--mode", "sample", "--seed", "3"],
        ["rps-bads"],
        ["rps-mixed"],
        ["round-robin"],
        ["round-robin", "--seed", "1"],
        ["mnw"],
        ["mnw-v"],
        ["gf-lottery"],
    ]
)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _write(workdir, name: str, obj: object) -> str:
    path = workdir / name
    path.write_text(json.dumps(obj))
    return str(path)


def _run(argv: list[str]) -> tuple[int, object]:
    """The exit code and, on 0 or 1, the JSON written to stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code in (0, 1):
        return code, json.loads(out.getvalue())
    assert out.getvalue() == ""
    assert err.getvalue().startswith("fairlot: ")
    return code, None


@FUZZ
@given(case=cases(), rule=RULES)
def test_instance_files(workdir, case, rule):
    _run([*rule[:1], _write(workdir, "instance.json", case[0]), *rule[1:]])


@st.composite
def near_ties(draw) -> dict:
    """Goods values within 10 of one power of ten up to 10**17: equilibrium rates
    that tie closer than a float can tell apart."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    base = 10 ** draw(st.integers(2, 17))
    return {"agents": n, "items": m, "values": [[base + draw(st.integers(0, 10)) for _ in range(m)] for _ in range(n)]}


@FUZZ
@given(instance=near_ties(), rule=st.sampled_from(["mnw", "mnw-v", "gf-lottery"]))
def test_near_tied_goods_solve(workdir, instance, rule):
    code, out = _run([rule, _write(workdir, "instance.json", instance)])
    assert code == 0
    if rule == "mnw":
        inst = Instance.from_rows(instance["values"])
        assert ceei_verify(inst, allocation_from_json(out), slack=0).holds


@FUZZ
@given(case=cases(), ex_ante=PROPERTIES, ex_post=PROPERTIES, bihierarchy=st.booleans())
def test_allocation_files(workdir, case, ex_ante, ex_post, bihierarchy):
    inst_path = _write(workdir, "instance.json", case[0])
    alloc_path = _write(workdir, "alloc.json", case[1])
    _run(["check", inst_path, "--alloc", alloc_path, "--ex-ante", ex_ante, "--ex-post", ex_post])
    _run(["decompose", alloc_path, "--instance", inst_path, "--bihierarchy" if bihierarchy else "--bvn"])


@FUZZ
@given(case=cases(), ex_ante=PROPERTIES, ex_post=PROPERTIES, seed=st.integers(0, 9))
def test_lottery_files(workdir, case, ex_ante, ex_post, seed):
    inst_path = _write(workdir, "instance.json", case[0])
    lot_path = _write(workdir, "lottery.json", case[2])
    _run(["check", inst_path, "--lottery", lot_path, "--ex-ante", ex_ante, "--ex-post", ex_post])
    _run(["sample", lot_path, "--seed", str(seed)])
