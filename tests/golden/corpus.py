"""The golden CLI corpus: every ``fairlot`` subcommand and mode, run in-process
through ``fairlot.cli.main`` on fixed inputs, each case recorded as its exit code
and the sha256 prefixes of its stdout and stderr.

The record lives next to this file in ``digests.txt``; ``tests/test_golden.py``
recomputes it and names each case that moved. To rewrite it, from the repository
root:

    PYTHONPATH=src python tests/golden/corpus.py > tests/golden/digests.txt

Cases pass their input files by relative name from one scratch directory, so no
path reaches the output. Argparse usage errors stay out: their wording changes
between Python versions.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile
from collections.abc import Iterator

# every name ``fairlot check`` accepts
CHECK_NAMES = (
    "prop", "ef", "sdef", "wef1", "po", "fpo", "gf", "gfless", "ef1", "sdef1", "ef2", "prop1", "ef11",
)
SEEDS = ("0", "1", str(2**40 + 3))
# test_rps.TRIM_ROWS and EARLY_TRIM_ROWS: poly mode trims the last and an earlier frontier
TRIM_ROWS = [[2, 6, 5, 6, 3, 0, 0], [3, 6, 3, 1, 6, 5, 2], [1, 1, 4, 6, 2, 0, 1]]
EARLY_TRIM_ROWS = [
    [9, 4, 8, 9, 8, 5, 7, 3, 6, 1, 6, 1, 8],
    [5, 2, 8, 6, 10, 3, 3, 3, 3, 3, 5, 0, 6],
    [4, 4, 0, 0, 8, 6, 4, 10, 8, 6, 9, 4, 9],
    [10, 2, 7, 7, 7, 4, 6, 0, 1, 7, 9, 5, 2],
]


def _instance(rows: list[list]) -> dict:
    return {"agents": len(rows), "items": len(rows[0]) if rows else 0, "values": rows}


def _lottery(n: int, m: int, parts: list[tuple[str, list[list[int]]]]) -> dict:
    return {"agents": n, "items": m, "support": [{"weight": w, "bundles": b} for w, b in parts]}


def _seeded() -> dict[str, list[list[int]]]:
    rng = random.Random(2020)
    rows = {}
    for k in range(6):
        n, m = rng.randint(2, 4), rng.randint(2, 7)
        rows[f"random-goods{k}"] = [[rng.randint(0, 9) for _ in range(m)] for _ in range(n)]
    for k in range(5):
        n, m = rng.randint(2, 3), rng.randint(2, 7)
        rows[f"random-bads{k}"] = [[-rng.randint(0, 9) for _ in range(m)] for _ in range(n)]
    for k in range(5):
        n, m = rng.randint(2, 3), rng.randint(2, 6)
        rows[f"random-mixed{k}"] = [[rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(m)] for _ in range(n)]
    for name, instance in rows.items():
        for j in range(len(instance[0])):  # every column valued, so the kind is defined
            if all(row[j] == 0 for row in instance):
                instance[0][j] = -1 if name.startswith("random-bads") else 1
    return rows


SEEDED = _seeded()
GOODS = {
    "swap4": [[8, 4, 2, 1], [8, 2, 4, 1]],
    "tilt2": [[1, 2], [1, 3]],
    "cycle3": [["11/10", "1", "3/5"], ["3/5", "11/10", "1"], ["11/10", "3/5", "1"]],
    "weak3": [[1, 0], [1, 0], [1, 1]],
    "shift4": [[10, 6, 4, 2], [2, 10, 6, 4]],
    "one-agent": [[3, 1, 2]],
    "one-item": [[1], [2]],
    "zero-row": [[0, 0, 0], [1, 2, 3]],
    "ties": [[1, 1, 1], [1, 1, 1]],
    "near-tie": [[10**17 + 1, 10**17 + 3, 10**17], [10**17 + 2, 10**17, 10**17 + 1], [10**17, 10**17 + 1, 10**17 + 1]],
    "trim": TRIM_ROWS,
    "early-trim": EARLY_TRIM_ROWS,
    **{k: v for k, v in SEEDED.items() if k.startswith("random-goods")},
}
BADS = {
    "bads3": [[-1, -2, -3], [-3, -2, -1]],
    "bads-divisible": [[-1, -2], [-2, -1]],
    "bads-zero-row": [[0, 0, 0, 0], [-1, -2, -3, -4], [-2, -2, -1, -1]],
    "bads-one-agent": [[-2, -1, -3]],
    **{k: v for k, v in SEEDED.items() if k.startswith("random-bads")},
}
MIXED = {
    "mixed4": [[2, -1, 1, -2], [-1, 2, -2, 1]],
    "mixed-contested": [[2, -1], [2, -1]],
    "mixed-padded": [[2, -1, 1, -2], [-1, 2, -2, 1], [1, 1, -1, -1]],
    **{k: v for k, v in SEEDED.items() if k.startswith("random-mixed")},
}

FILES: dict[str, dict | str] = {
    **{f"{name}.json": _instance(rows) for table in (GOODS, BADS, MIXED) for name, rows in table.items()},
    "no-items.json": {"agents": 2, "items": 0, "values": [[], []]},
    "unvalued.json": _instance([[0, 1], [0, 2]]),
    "nine.json": _instance([[1, 1]] * 9),
    "seven.json": _instance([[1] * 7 for _ in range(7)]),
    # allocations
    "halves.json": {"matrix": [["1/2", "1/2"], ["1/2", "1/2"]]},
    "tilt2-mnw.json": {"matrix": [["1", "1/4"], ["0", "3/4"]]},
    "tilt2-identity.json": {"matrix": [["1", "0"], ["0", "1"]]},
    "tilt2-swapped.json": {"matrix": [["0", "1"], ["1", "0"]]},
    "tilt2-partial.json": {"matrix": [["1", "0"], ["0", "0"]]},
    "shift4-x.json": {"matrix": [["3/5", "2/5", "2/5", "3/5"], ["2/5", "3/5", "3/5", "2/5"]]},
    "bads3-ceei.json": {"matrix": [["1", "1/2", "0"], ["0", "1/2", "1"]]},
    "bads3-integral.json": {"matrix": [["1", "1", "0"], ["0", "0", "1"]]},
    "bads3-lopsided.json": {"matrix": [["0", "0", "0"], ["1", "1", "1"]]},
    "mixed4-integral.json": {"matrix": [["1", "0", "1", "0"], ["0", "1", "0", "1"]]},
    "mixed4-frac.json": {"matrix": [["1/2", "1/2", "1", "0"], ["1/2", "1/2", "0", "1"]]},
    "seven-identity.json": {"matrix": [[str(int(i == j)) for j in range(7)] for i in range(7)]},
    "three-rows.json": {"matrix": [["1", "0"], ["0", "1"], ["0", "0"]]},
    # lotteries
    "tilt2-lottery.json": _lottery(2, 2, [("3/4", [[0], [1]]), ("1/4", [[0, 1], []])]),
    "tilt2-fair-lottery.json": _lottery(2, 2, [("3/4", [[0], [1]]), ("1/4", [[1], [0]])]),
    "tilt2-point.json": _lottery(2, 2, [("1", [[0], [1]])]),
    "swap4-lottery.json": _lottery(
        2, 4, [("1/4", [[1, 3], [0, 2]]), ("1/4", [[1, 2], [0, 3]]), ("1/4", [[0, 3], [1, 2]]), ("1/4", [[0, 1], [2, 3]])]
    ),
    "bads3-lottery.json": _lottery(2, 3, [("1/2", [[0, 1], [2]]), ("1/2", [[2], [0, 1]])]),
    "mixed4-lottery.json": _lottery(2, 4, [("1/3", [[0, 2], [1, 3]]), ("2/3", [[0, 1], [2, 3]])]),
    "unassigned-lottery.json": _lottery(2, 2, [("1", [[0], []])]),
    "short-lottery.json": {"support": [{"weight": "1/2", "bundles": [[0], [1]]}, {"weight": "1/2", "bundles": [[1], []]}]},
    "three-item-lottery.json": _lottery(2, 3, [("1", [[0], [1]])]),
    "non-list-lottery.json": {"support": [{"weight": "1", "bundles": [5, 6]}]},
    "underweight-lottery.json": _lottery(2, 2, [("1/3", [[0], [1]])]),
    "bool-lottery.json": _lottery(2, 2, [("1", [[True], [0]])]),
    # malformed files, written verbatim
    "broken.json": "{not json",
    "bool-agents.json": '{"agents": true, "items": 2, "values": [[1, 2]]}',
    "nan.json": '{"agents": 2, "items": 2, "values": [[1, NaN], [1, 1]]}',
    "exponent.json": '{"agents": 2, "items": 2, "values": [[1, "1e3000000"], [1, 1]]}',
    "huge.json": '{"agents": 2, "items": 2, "values": [[1, "1e400"], [1, 1]]}',
    "ragged.json": '{"agents": 2, "items": 3, "values": [[1, 2, 3], [1, 2]]}',
    "negative-cell.json": '{"matrix": [["-1/2", "1"], ["0", "0"]]}',
    "overfull.json": '{"matrix": [["1", "1"], ["1", "0"]]}',
}


def cases() -> Iterator[tuple[str, list[str]]]:
    """(case name, argv) for every case, argv naming files of ``FILES``."""
    yield "version", ["--version"]
    for command, table in (("rps", GOODS), ("rps-bads", BADS), ("rps-mixed", {**MIXED, **GOODS, **BADS})):
        for name in table:
            for mode in ("full", "poly"):
                yield f"{command} {name} {mode}", [command, f"{name}.json", "--mode", mode]
            for seed in SEEDS:
                argv = [command, f"{name}.json", "--mode", "sample", "--seed", seed]
                yield f"{command} {name} sample {seed}", argv
    yield "rps no-items", ["rps", "no-items.json"]
    yield "rps no-items sample", ["rps", "no-items.json", "--mode", "sample"]
    yield "rps-mixed no-items poly", ["rps-mixed", "no-items.json", "--mode", "poly"]
    yield "rps kind mismatch", ["rps", "bads3.json"]
    yield "rps-bads kind mismatch", ["rps-bads", "swap4.json", "--mode", "sample"]
    yield "rps unvalued column", ["rps", "unvalued.json"]
    yield "rps-mixed unvalued column", ["rps-mixed", "unvalued.json"]
    yield "rps -o", ["rps", "swap4.json", "-o", "out.json"]
    for name in ("cycle3", "swap4", "weak3", "one-agent", "random-goods0", "random-goods3"):
        yield f"round-robin {name}", ["round-robin", f"{name}.json"]
        yield f"round-robin {name} exact", ["round-robin", f"{name}.json", "--exact"]
        for seed in ("0", "3"):
            yield f"round-robin {name} seed {seed}", ["round-robin", f"{name}.json", "--seed", seed]
    yield "round-robin nine", ["round-robin", "nine.json"]
    yield "round-robin nine seed", ["round-robin", "nine.json", "--seed", "1"]
    yield "round-robin bads", ["round-robin", "bads3.json"]
    solved = ("tilt2", "cycle3", "weak3", "swap4", "one-agent", "one-item", "zero-row", "ties", "near-tie")
    for name in (*solved, "random-goods0", "random-goods1", "random-goods2"):
        for command in ("mnw", "mnw-v", "gf-lottery"):
            yield f"{command} {name}", [command, f"{name}.json"]
    for command in ("mnw", "mnw-v", "gf-lottery"):
        yield f"{command} no-items", [command, "no-items.json"]
        yield f"{command} bads", [command, "bads3.json"]
    yield "mnw huge", ["mnw", "huge.json"]
    for frac in ("tilt2-mnw", "tilt2-identity", "halves", "three-rows"):
        yield f"prop1-lottery tilt2 {frac}", ["prop1-lottery", "tilt2.json", "--frac", f"{frac}.json"]
    yield "prop1-lottery shift4", ["prop1-lottery", "shift4.json", "--frac", "shift4-x.json"]
    for frac in ("bads3-ceei", "bads3-integral", "halves", "bads3-lopsided"):
        yield f"bads-lottery bads3 {frac}", ["bads-lottery", "bads3.json", "--ceei", f"{frac}.json"]
    decompositions = (
        ("tilt2", "halves"), ("tilt2", "tilt2-mnw"), ("tilt2", "tilt2-partial"), ("shift4", "shift4-x"),
        ("bads3", "bads3-ceei"), ("tilt2", "shift4-x"), ("tilt2", "negative-cell"), ("tilt2", "overfull"),
    )
    for inst, alloc in decompositions:
        for flag in ((), ("--bvn",), ("--bihierarchy",)):
            argv = ["decompose", f"{alloc}.json", "--instance", f"{inst}.json", *flag]
            yield " ".join(("decompose", inst, alloc, *flag)), argv
    for inst, lottery, integral, fractional in (
        ("tilt2", "tilt2-lottery", "tilt2-identity", "tilt2-mnw"),
        ("tilt2", "tilt2-fair-lottery", "tilt2-swapped", "halves"),
        ("swap4", "swap4-lottery", None, None),
        ("bads3", "bads3-lottery", "bads3-integral", "bads3-ceei"),
        ("bads3", None, "bads3-lopsided", None),
        ("mixed4", "mixed4-lottery", "mixed4-integral", "mixed4-frac"),
        ("unvalued", "tilt2-point", "tilt2-identity", "halves"),
    ):
        for name in CHECK_NAMES:
            for side in ("--ex-ante", "--ex-post"):
                for flag, source in (("--lottery", lottery), ("--alloc", integral), ("--alloc", fractional)):
                    if source:
                        argv = ["check", f"{inst}.json", flag, f"{source}.json", side, name]
                        yield f"check {inst} {source} {side} {name}", argv
    many = ["--ex-ante", "prop,ef,sdef,gf,gfless", "--ex-post", "ef1,sdef1,prop1,ef11,po,fpo"]
    sources = (("--lottery", "tilt2-lottery.json"), ("--alloc", "tilt2-identity.json"), ("--alloc", "tilt2-mnw.json"))
    for flag, source in sources:
        check = ["check", "tilt2.json", flag, source]
        yield f"check tilt2 {source} many", [*check, *many]
        yield f"check tilt2 {source} none", check
        yield f"check tilt2 {source} unknown", [*check, "--ex-ante", "prop,karma"]
        yield f"check tilt2 {source} unknown ex-post", [*check, "--ex-ante", "ef", "--ex-post", "karma"]
    yield "check tilt2 three-rows", ["check", "tilt2.json", "--alloc", "three-rows.json", "--ex-ante", "prop"]
    yield "check tilt2 three-rows ex-post", ["check", "tilt2.json", "--alloc", "three-rows.json", "--ex-post", "ef1"]
    yield "check tilt2 shift4-x", ["check", "tilt2.json", "--alloc", "shift4-x.json", "--ex-ante", "ef"]
    yield "check seven gf", ["check", "seven.json", "--alloc", "seven-identity.json", "--ex-ante", "gf"]
    yield "check seven gf ex-post", ["check", "seven.json", "--alloc", "seven-identity.json", "--ex-post", "gf"]
    yield "check seven ef ex-post", ["check", "seven.json", "--alloc", "seven-identity.json", "--ex-post", "ef,prop1"]
    for lottery in ("three-item-lottery", "non-list-lottery", "underweight-lottery", "bool-lottery", "short-lottery"):
        yield f"check tilt2 {lottery}", ["check", "tilt2.json", "--lottery", f"{lottery}.json", "--ex-post", "ef1"]
    for lottery in ("tilt2-lottery", "swap4-lottery", "unassigned-lottery", "short-lottery", "non-list-lottery",
                    "underweight-lottery", "bool-lottery", "broken"):
        for seed in ("0", "3", "9"):
            yield f"sample {lottery} {seed}", ["sample", f"{lottery}.json", "--seed", seed]
    for name in ("broken", "bool-agents", "nan", "exponent", "ragged", "absent"):
        yield f"rps {name}", ["rps", f"{name}.json"]
        yield f"mnw {name}", ["mnw", f"{name}.json"]
    yield "check nan alloc", ["check", "tilt2.json", "--alloc", "nan.json", "--ex-ante", "prop"]
    yield "check absent alloc", ["check", "tilt2.json", "--alloc", "absent.json", "--ex-ante", "prop"]
    yield "decompose absent", ["decompose", "absent.json", "--instance", "tilt2.json"]


def write_files(directory: str) -> None:
    for name, content in FILES.items():
        with open(os.path.join(directory, name), "w") as handle:
            handle.write(content if isinstance(content, str) else json.dumps(content))


def run_case(argv: list[str]) -> tuple[int, str, str]:
    """``cli.main(argv)`` with its exit code, stdout and stderr."""
    from fairlot.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def digest_lines() -> list[str]:
    """One ``name|exit|stdout sha256|stderr sha256`` line per case, run in the
    current directory, which must hold ``FILES``."""
    lines = []
    for name, argv in cases():
        code, out, err = run_case(argv)
        lines.append(f"{name}|{code}|{_sha(out)}|{_sha(err)}")
    return lines


def main() -> None:
    with tempfile.TemporaryDirectory() as directory:
        cwd = os.getcwd()
        os.chdir(directory)
        try:
            write_files(directory)
            lines = digest_lines()
        finally:
            os.chdir(cwd)
    sys.stdout.write("".join(line + "\n" for line in lines))


if __name__ == "__main__":
    main()
