"""End-to-end command-line behavior: JSON in, JSON out, meaningful exit codes."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from fairlot import cli
from fairlot.cli import main
from fairlot.core import FractionalAllocation, dump_json, load_instance
from fairlot.mnw import ceei_verify

SWAP4 = {"agents": 2, "items": 4, "values": [[8, 4, 2, 1], [8, 2, 4, 1]]}
CYCLE3 = {
    "agents": 3,
    "items": 3,
    "values": [
        ["11/10", "1", "3/5"],
        ["3/5", "11/10", "1"],
        ["11/10", "3/5", "1"],
    ],
}
TILT2 = {"agents": 2, "items": 2, "values": [[1, 2], [1, 3]]}
WEAK3 = {"agents": 3, "items": 2, "values": [[1, 0], [1, 0], [1, 1]]}
BADS = {"agents": 2, "items": 3, "values": [[-1, -2, -3], [-3, -2, -1]]}
NO_ITEMS = {"agents": 2, "items": 0, "values": [[], []]}


@pytest.fixture
def files(tmp_path):
    def write(name, obj):
        path = tmp_path / name
        dump_json(obj, path)
        return str(path)

    return write


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fresh_python(*args):
    """Run ``python ARGS`` in a new interpreter on this checkout's sources, so
    the modules it loads are its own and not the test session's."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=60)


class TestBasics:
    def test_version(self, capsys):
        code, out, _ = run(capsys, "--version")
        assert code == 0
        assert out.strip() == "fairlot 0.1.0"

    def test_imports_leave_numpy_out(self):
        # the library runs on the standard library alone; a fresh interpreter
        # shows what loading every layer really imports. The value types are
        # plain classes, so dataclasses (and the inspect it loads) stay out too,
        # unless the interpreter had them before the library, as a site hook may.
        script = (
            "import sys\n"
            "before = set(sys.modules)\n"
            "import fairlot, fairlot.cli, fairlot.lp\n"
            "from fairlot import *\n"
            "layers = ('cli', 'core', 'decomp', 'eating', 'lp', 'mnw', 'properties', 'rounding', 'rps')\n"
            "assert all(f'fairlot.{m}' in sys.modules for m in layers)\n"
            "print('numpy' in sys.modules)\n"
            "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))"
        )
        child = fresh_python("-c", script)
        assert child.returncode == 0, child.stderr
        assert child.stdout.split("\n") == ["False", "[]", ""]

    def test_no_command_is_usage_error(self, capsys):
        code, _, err = run(capsys)
        assert code == 2
        assert "usage" in err

    def test_missing_file(self, capsys, tmp_path):
        code, out, err = run(capsys, "rps", str(tmp_path / "absent.json"))
        assert code == 2
        assert out == ""
        assert err.startswith("fairlot:")

    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "rps", str(path))
        assert code == 2
        assert "invalid JSON" in err

    @pytest.mark.parametrize("command", ["rps", "check", "sample"])
    def test_non_utf8_file_is_input_error(self, capsys, files, tmp_path, command):
        path = tmp_path / "utf16.json"
        path.write_bytes(b'\xff\xfe{"agents": 1}')
        argv = {
            "rps": ("rps", str(path)),
            "check": ("check", files("tilt2.json", TILT2), "--alloc", str(path), "--ex-ante", "prop"),
            "sample": ("sample", str(path)),
        }[command]
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith(f"fairlot: {path}: not UTF-8 text")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("literal", ['"1e3000000"', "1e3000000"], ids=["string", "number"])
    def test_huge_decimal_exponent_is_input_error(self, capsys, tmp_path, literal):
        path = tmp_path / "exponent.json"
        path.write_text(f'{{"agents": 2, "items": 2, "values": [[1, {literal}], [1, 1]]}}')
        start = time.perf_counter()
        code, out, err = run(capsys, "rps", str(path))
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == ""
        assert "exponent" in err

    @pytest.mark.parametrize(
        "reader, text, message",
        [
            ("rps", '{"agents": 0, "items": 0, "values": []}', "instance needs at least one agent"),
            # Python's own wording of the digit limit differs between versions
            ("rps", '{"agents": 2, "items": 2, "values": [[1, %s], [1, 1]]}' % ("7" * 5000),
             "invalid numeric literal in JSON:"),
            ("rps", '{"agents": 3, "items": 2, "values": [[1, 2], [3, 4]]}', "instance: expected 3 value rows, got 2"),
            ("check", '{"matrix": []}', "allocation: 'matrix' must be a nonempty list of rows"),
            ("check", '{"matrix": [1, 2]}', "allocation: matrix rows must be lists"),
            ("sample", '{"support": []}', "lottery: 'support' must be a nonempty list"),
            ("sample", '{"agents": 2, "items": 2, "support": [{"weight": "1", "bundles": [[0]]}]}',
             "expected 2 bundles, got 1"),
            # past the parser's recursion limit, which it reports as a RecursionError
            *((reader, "[" * 200_000, "invalid JSON: nested too deeply") for reader in ("rps", "check", "sample")),
        ],
        ids=[
            "no-agents", "long-int", "missing-row", "empty-matrix", "non-list-rows", "empty-support",
            "short-entry", "deep-rps", "deep-check", "deep-sample",
        ],
    )
    def test_input_errors_exit_two(self, capsys, files, tmp_path, reader, text, message):
        path = tmp_path / "input.json"
        path.write_text(text)
        argv = {
            "rps": ("rps", str(path)),
            "check": ("check", files("tilt2.json", TILT2), "--alloc", str(path), "--ex-ante", "prop"),
            "sample": ("sample", str(path)),
        }[reader]
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith(f"fairlot: {message}")
        assert err.count("\n") == 1 and err.endswith("\n")

    def test_boolean_agent_count_is_input_error(self, capsys, files):
        path = files("bool.json", {"agents": True, "items": 2, "values": [[1, 2]]})
        code, out, err = run(capsys, "rps", path)
        assert code == 2
        assert out == ""
        assert "integers" in err

    def test_oversized_lottery_exits_three(self, capsys, files):
        path = files("wide.json", {"support": [{"weight": "1", "bundles": [[10**8]]}]})
        code, out, err = run(capsys, "sample", path)
        assert code == 3
        assert out == ""
        assert err.startswith("fairlot: lottery: 1 x 1 x 100000001 cells exceed the cap")

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_constants_are_input_errors(self, capsys, files, tmp_path, literal):
        # an instance value, an allocation cell and a lottery weight
        def write(name, text):
            path = tmp_path / name
            path.write_text(text % literal)
            return str(path)

        instance = write("inst.json", '{"agents": 2, "items": 2, "values": [[1, %s], [1, 1]]}')
        tilt2 = files("tilt2.json", TILT2)
        alloc = write("alloc.json", '{"matrix": [["1", %s], ["0", "0"]]}')
        lottery = write("lot.json", '{"support": [{"weight": %s, "bundles": [[0], [1]]}]}')
        for argv in (
            ("rps", instance),
            ("mnw", instance),
            ("round-robin", instance),
            ("check", tilt2, "--alloc", alloc, "--ex-ante", "prop"),
            ("decompose", alloc, "--instance", tilt2),
            ("check", tilt2, "--lottery", lottery, "--ex-post", "ef1"),
            ("sample", lottery),
        ):
            code, out, err = run(capsys, *argv)
            assert code == 2, argv
            assert out == ""
            assert err == f"fairlot: not a rational value: {literal}\n"

    def test_unexpected_exception_exits_four(self, capsys, files, monkeypatch):
        def broken(args):
            raise RuntimeError("stage table\ncorrupt")

        monkeypatch.setitem(cli._DISPATCH, "rps", broken)
        code, out, err = run(capsys, "rps", files("swap4.json", SWAP4))
        assert code == 4
        assert out == ""
        assert err == "fairlot: internal error: RuntimeError: stage table corrupt\n"
        assert "Traceback" not in err

    def test_kind_mismatch(self, capsys, files):
        code, _, err = run(capsys, "rps", files("bads.json", BADS))
        assert code == 2
        assert "goods" in err


class TestRules:
    def test_rps_full(self, capsys, files):
        code, out, _ = run(capsys, "rps", files("swap4.json", SWAP4))
        assert code == 0
        payload = json.loads(out)
        assert len(payload["support"]) == 4
        assert all(entry["weight"] == "1/4" for entry in payload["support"])

    def test_rps_sample_reruns_byte_identical(self, capsys, files):
        path = files("swap4.json", SWAP4)
        first = run(capsys, "rps", path, "--mode", "sample", "--seed", "5")
        second = run(capsys, "rps", path, "--mode", "sample", "--seed", "5")
        assert first == second
        assert first[0] == 0
        assert "matrix" in json.loads(first[1])

    def test_rps_bads_strips_padding(self, capsys, files):
        code, out, _ = run(capsys, "rps-bads", files("bads.json", BADS))
        assert code == 0
        payload = json.loads(out)
        for entry in payload["support"]:
            assert all(j < 3 for bundle in entry["bundles"] for j in bundle)

    def test_rps_mixed(self, capsys, files):
        mixed = {"agents": 2, "items": 4, "values": [[2, -1, 1, -2], [-1, 2, -2, 1]]}
        code, out, _ = run(capsys, "rps-mixed", files("mixed.json", mixed))
        assert code == 0
        assert json.loads(out)["support"] == [
            {"weight": "1", "bundles": [[0, 2], [1, 3]]}
        ]

    def test_round_robin_exact_default(self, capsys, files):
        code, out, _ = run(capsys, "round-robin", files("cycle3.json", CYCLE3))
        assert code == 0
        weights = sorted(e["weight"] for e in json.loads(out)["support"])
        assert weights == ["1/2", "1/3", "1/6"]

    def test_round_robin_sampled(self, capsys, files):
        code, out, _ = run(capsys, "round-robin", files("cycle3.json", CYCLE3), "--seed", "3")
        assert code == 0
        assert "matrix" in json.loads(out)

    def test_round_robin_flags_conflict(self, capsys, files):
        code, _, err = run(
            capsys, "round-robin", files("cycle3.json", CYCLE3), "--exact", "--seed", "3"
        )
        assert code == 2
        assert "not allowed" in err

    def test_round_robin_size_cap(self, capsys, files):
        big = {"agents": 9, "items": 2, "values": [[1, 1]] * 9}
        code, _, err = run(capsys, "round-robin", files("big.json", big))
        assert code == 3
        assert "n!" in err


class TestSolvers:
    def test_mnw_output_and_diagnostics(self, capsys, files):
        code, out, err = run(capsys, "mnw", files("tilt2.json", TILT2))
        assert code == 0
        assert json.loads(out) == {"matrix": [["1", "1/4"], ["0", "3/4"]]}
        assert err.startswith("fairlot: log Nash welfare")

    def test_mnw_huge_value(self, capsys, files):
        path = files("huge.json", {"agents": 2, "items": 2, "values": [[1, "1e400"], [1, 1]]})
        code, out, _ = run(capsys, "mnw", path)
        assert code == 0
        x = FractionalAllocation.from_rows(json.loads(out)["matrix"])
        assert ceei_verify(load_instance(path), x, slack=0).holds

    @pytest.mark.parametrize("command", ["mnw", "gf-lottery"])
    def test_tol_flag_rejected(self, capsys, files, command):
        code, out, err = run(capsys, command, files("tilt2.json", TILT2), "--tol", "1e-9")
        assert code == 2
        assert out == ""
        assert "--tol" in err

    def test_mnw_v(self, capsys, files):
        code, out, _ = run(capsys, "mnw-v", files("weak3.json", WEAK3))
        assert code == 0
        assert json.loads(out) == {
            "matrix": [["1/3", "0"], ["1/3", "0"], ["1/3", "1"]]
        }

    def test_no_items(self, capsys, files):
        path = files("empty.json", NO_ITEMS)
        code, out, _ = run(capsys, "mnw", path)
        assert (code, out) == (0, '{\n  "matrix": [\n    [],\n    []\n  ]\n}\n')
        code, out, _ = run(capsys, "gf-lottery", path)
        assert code == 0
        assert out == (
            '{\n  "agents": 2,\n  "items": 0,\n  "support": [\n    {\n      "weight": "1",\n'
            '      "bundles": [\n        [],\n        []\n      ]\n    }\n  ]\n}\n'
        )

    def test_gf_lottery(self, capsys, files):
        code, out, _ = run(capsys, "gf-lottery", files("tilt2.json", TILT2))
        assert code == 0
        entries = {e["weight"]: e["bundles"] for e in json.loads(out)["support"]}
        assert entries == {"3/4": [[0], [1]], "1/4": [[0, 1], []]}

    def test_prop1_lottery_happy(self, capsys, files):
        code, out, _ = run(
            capsys,
            "prop1-lottery",
            files("tilt2.json", TILT2),
            "--frac",
            files("x.json", {"matrix": [["1", "1/4"], ["0", "3/4"]]}),
        )
        assert code == 0
        assert len(json.loads(out)["support"]) == 2

    def test_prop1_lottery_rejects_unfair_input(self, capsys, files):
        code, _, err = run(
            capsys,
            "prop1-lottery",
            files("tilt2.json", TILT2),
            "--frac",
            files("x.json", {"matrix": [["1", "0"], ["0", "1"]]}),
        )
        assert code == 2
        assert "not proportional" in err

    def test_bads_lottery(self, capsys, files):
        code, out, _ = run(
            capsys,
            "bads-lottery",
            files("bads.json", BADS),
            "--ceei",
            files("x.json", {"matrix": [["1", "1/2", "0"], ["0", "1/2", "1"]]}),
        )
        assert code == 0
        for entry in json.loads(out)["support"]:
            assert sorted(sum(entry["bundles"], [])) == [0, 1, 2]

    @pytest.mark.parametrize(
        "matrix, message",
        [
            # each agent holds the other's worst bad: a complete allocation, not an equilibrium
            (
                [["0", "1/2", "1"], ["1", "1/2", "0"]],
                "not a competitive equilibrium: agent 1 holds item 0 at rate 3/4, agent 0 at 1/4",
            ),
            # agent 0 holds no bad, so its utility is not negative
            ([["0", "0", "0"], ["1", "1", "1"]], "agent 0 must have negative utility"),
        ],
    )
    def test_bads_lottery_refuses_non_equilibrium(self, capsys, files, matrix, message):
        code, out, err = run(
            capsys, "bads-lottery", files("bads.json", BADS), "--ceei", files("x.json", {"matrix": matrix})
        )
        assert (code, out) == (2, "")
        assert message in err


class TestDecompose:
    def test_default_bvn(self, capsys, files):
        code, out, _ = run(
            capsys,
            "decompose",
            files("x.json", {"matrix": [["1/2", "1/2"], ["1/2", "1/2"]]}),
            "--instance",
            files("inst.json", {"agents": 2, "items": 2, "values": [[1, 2], [2, 1]]}),
        )
        assert code == 0
        assert len(json.loads(out)["support"]) == 2

    def test_bihierarchy_mode(self, capsys, files):
        code, out, _ = run(
            capsys,
            "decompose",
            files("x.json", {"matrix": [["1", "1/4"], ["0", "3/4"]]}),
            "--instance",
            files("tilt2.json", TILT2),
            "--bihierarchy",
        )
        assert code == 0
        weights = {e["weight"] for e in json.loads(out)["support"]}
        assert weights == {"3/4", "1/4"}

    def test_shape_mismatch(self, capsys, files):
        code, _, err = run(
            capsys,
            "decompose",
            files("x.json", {"matrix": [["1/2", "1/2"]]}),
            "--instance",
            files("tilt2.json", TILT2),
        )
        assert code == 2
        assert "shape" in err

    def test_mode_flags_conflict(self, capsys, files):
        code, _, err = run(
            capsys,
            "decompose",
            files("x.json", {"matrix": [["1", "0"], ["0", "1"]]}),
            "--instance",
            files("tilt2.json", TILT2),
            "--bvn",
            "--bihierarchy",
        )
        assert code == 2
        assert "not allowed" in err


class TestCheck:
    def test_passing_audit_exits_zero(self, capsys, files):
        lottery = {
            "support": [
                {"weight": "3/4", "bundles": [[0], [1]]},
                {"weight": "1/4", "bundles": [[0, 1], []]},
            ]
        }
        code, out, _ = run(
            capsys,
            "check",
            files("tilt2.json", TILT2),
            "--lottery",
            files("lot.json", lottery),
            "--ex-ante",
            "prop,ef,gf",
            "--ex-post",
            "prop1,ef11",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] is True
        assert payload["ex_ante"]["gf"]["holds"] is True

    def test_failing_audit_exits_one_with_witness(self, capsys, files):
        lottery = {"support": [{"weight": "1", "bundles": [[0], [1]]}]}
        code, out, _ = run(
            capsys,
            "check",
            files("tilt2.json", TILT2),
            "--lottery",
            files("lot.json", lottery),
            "--ex-ante",
            "prop",
        )
        assert code == 1
        payload = json.loads(out)
        assert payload["ok"] is False
        assert payload["ex_ante"]["prop"]["witness"]["agent"] == 0

    def test_failing_wef1_part_exits_one_with_rechecked_witness(self, capsys, files):
        values = [[2, 2, -1], [2, 2, -1]]
        lottery = {
            "support": [
                {"weight": "1/2", "bundles": [[0, 1], [2]]},
                {"weight": "1/2", "bundles": [[0, 2], [1]]},
            ]
        }
        code, out, _ = run(
            capsys,
            "check",
            files("mixed.json", {"agents": 2, "items": 3, "values": values}),
            "--lottery",
            files("lot.json", lottery),
            "--ex-post",
            "wef1",
        )
        assert code == 1
        report = json.loads(out)
        assert report["ok"] is False and report["ex_post"]["wef1"]["holds"] is False

        def envy_survives(bundles, i, h):
            # no removal of one own item and one of the other's (either may be none) clears it
            row = [Fraction(v) for v in values[i]]
            own, other = sum(row[j] for j in bundles[i]), sum(row[j] for j in bundles[h])
            return all(
                own - (row[a] if a is not None else 0) < other - (row[b] if b is not None else 0)
                for a in (None, *bundles[i])
                for b in (None, *bundles[h])
            )

        # parts come in canonical order: [[0, 1], [2]] sorts after [[0, 2], [1]]
        parts = [lottery["support"][1]["bundles"], lottery["support"][0]["bundles"]]
        for bundles, verdict in zip(parts, report["ex_post"]["wef1"]["parts"], strict=True):
            pairs = [(i, h) for i in range(2) for h in range(2) if i != h and envy_survives(bundles, i, h)]
            if verdict["holds"]:
                assert pairs == []
            else:
                assert verdict["witness"] == {"envious": pairs[0][0], "envied": pairs[0][1]}
        assert [v["holds"] for v in report["ex_post"]["wef1"]["parts"]] == [True, False]

    def test_integral_alloc_promoted_to_point_lottery(self, capsys, files):
        code, out, _ = run(
            capsys,
            "check",
            files("tilt2.json", TILT2),
            "--alloc",
            files("a.json", {"matrix": [["1", "0"], ["0", "1"]]}),
            "--ex-post",
            "ef1,po",
        )
        assert code == 0
        assert json.loads(out)["ok"] is True

    def test_fractional_alloc_cannot_take_ex_post(self, capsys, files):
        code, _, err = run(
            capsys,
            "check",
            files("tilt2.json", TILT2),
            "--alloc",
            files("x.json", {"matrix": [["1", "1/4"], ["0", "3/4"]]}),
            "--ex-post",
            "ef1",
        )
        assert code == 2
        assert "integral" in err

    def test_fractional_alloc_ex_ante(self, capsys, files):
        code, out, _ = run(
            capsys,
            "check",
            files("tilt2.json", TILT2),
            "--alloc",
            files("x.json", {"matrix": [["1", "1/4"], ["0", "3/4"]]}),
            "--ex-ante",
            "prop,ef,gf",
        )
        assert code == 0
        assert json.loads(out)["ok"] is True

    def test_gf_past_agent_limit_exits_three(self, capsys, files):
        seven = {"agents": 7, "items": 7, "values": [[1] * 7 for _ in range(7)]}
        identity = {"matrix": [[str(int(i == j)) for j in range(7)] for i in range(7)]}
        code, out, err = run(
            capsys,
            "check",
            files("seven.json", seven),
            "--alloc",
            files("x.json", identity),
            "--ex-ante",
            "gf",
        )
        assert code == 3
        assert out == ""
        assert "group fairness" in err

    def test_lottery_items_must_match_instance(self, capsys, files):
        lottery = {"agents": 2, "items": 3, "support": [{"weight": "1", "bundles": [[0], [1]]}]}
        code, out, err = run(
            capsys, "check", files("tilt2.json", TILT2), "--lottery", files("lot.json", lottery), "--ex-post", "ef1"
        )
        assert code == 2
        assert out == ""
        assert "'items' is 3, expected 2" in err

    def test_non_list_bundles_are_input_errors(self, capsys, files):
        lottery = files("lot.json", {"support": [{"weight": "1", "bundles": [5, 6]}]})
        for argv in (("sample", lottery), ("check", files("tilt2.json", TILT2), "--lottery", lottery, "--ex-post", "ef1")):
            code, out, err = run(capsys, *argv)
            assert code == 2
            assert out == ""
            assert "bundles" in err

    def test_unknown_property(self, capsys, files):
        code, _, err = run(
            capsys,
            "check",
            files("tilt2.json", TILT2),
            "--alloc",
            files("a.json", {"matrix": [["1", "0"], ["0", "1"]]}),
            "--ex-ante",
            "karma",
        )
        assert code == 2
        assert "unknown property" in err

    @pytest.mark.parametrize(
        "name, expected",
        [
            ("prop", 1), ("ef", 1), ("sdef", 1), ("wef1", 0), ("po", 0), ("fpo", 0), ("gf", 1), ("gfless", 1),
            ("ef1", 2), ("sdef1", 2), ("ef2", 2), ("prop1", 2), ("ef11", 2),
        ],
    )
    def test_unvalued_column_fails_only_kind_dependent_names(self, capsys, files, name, expected):
        # nobody values item 0, so the instance has no goods kind: only the names
        # whose checker needs the kind refuse it, with exit 2 and nothing on stdout
        inst = files("inst.json", {"agents": 2, "items": 2, "values": [[0, 1], [0, 2]]})
        lottery = files("lot.json", {"agents": 2, "items": 2, "support": [{"weight": "1", "bundles": [[0], [1]]}]})
        code, out, err = run(capsys, "check", inst, "--lottery", lottery, "--ex-post", name)
        assert code == expected
        if expected == 2:
            assert out == ""
            assert "no agent valuing item 0 positively" in err
        else:
            assert json.loads(out)["ok"] is (expected == 0)

    def test_alloc_or_lottery_required(self, capsys, files):
        code, _, err = run(capsys, "check", files("tilt2.json", TILT2))
        assert code == 2
        assert "required" in err


class TestSampleAndPipes:
    def test_sample_deterministic(self, capsys, files):
        lottery = files(
            "lot.json",
            {
                "support": [
                    {"weight": "3/4", "bundles": [[0], [1]]},
                    {"weight": "1/4", "bundles": [[0, 1], []]},
                ]
            },
        )
        first = run(capsys, "sample", lottery, "--seed", "9")
        second = run(capsys, "sample", lottery, "--seed", "9")
        assert first == second and first[0] == 0

    def test_output_flag_writes_file(self, capsys, files, tmp_path):
        out_path = tmp_path / "result.json"
        code, out, _ = run(
            capsys, "rps", files("swap4.json", SWAP4), "-o", str(out_path)
        )
        assert code == 0
        assert out == ""
        text = out_path.read_text()
        assert text.endswith("\n")
        assert len(json.loads(text)["support"]) == 4

    @pytest.mark.parametrize("target", ["missing/out.json", ""], ids=["missing-parent", "directory"])
    @pytest.mark.parametrize("command", ["rps", "failing-check"])
    def test_failed_write_exits_two(self, capsys, files, tmp_path, command, target):
        # a file that cannot be written is an input error, also where the audit
        # alone would exit 1
        lottery = {"support": [{"weight": "1", "bundles": [[0], [1]]}]}
        argv = {
            "rps": ("rps", files("swap4.json", SWAP4)),
            "failing-check": ("check", files("tilt2.json", TILT2), "--lottery", files("lot.json", lottery), "--ex-ante", "prop"),
        }[command]
        assert run(capsys, *argv)[0] == (0 if command == "rps" else 1)
        code, out, err = run(capsys, *argv, "-o", str(tmp_path / target))
        assert code == 2
        assert out == ""
        assert err.startswith("fairlot: ") and err.count("\n") == 1 and err.endswith("\n")
        assert "Traceback" not in err
        assert not (tmp_path / "missing").exists()

    def test_rule_output_feeds_check(self, capsys, files, tmp_path):
        lot_path = tmp_path / "lot.json"
        code, _, _ = run(
            capsys, "rps", files("swap4.json", SWAP4), "-o", str(lot_path)
        )
        assert code == 0
        code, out, _ = run(
            capsys,
            "check",
            files("swap4.json", SWAP4),
            "--lottery",
            str(lot_path),
            "--ex-ante",
            "sdef",
            "--ex-post",
            "sdef1",
        )
        assert code == 0
        assert json.loads(out)["ok"] is True

    def test_mnw_output_feeds_decompose(self, capsys, files, tmp_path):
        x_path = tmp_path / "x.json"
        tilt2 = files("tilt2.json", TILT2)
        code, _, _ = run(capsys, "mnw", tilt2, "-o", str(x_path))
        assert code == 0
        code, out, _ = run(
            capsys, "decompose", str(x_path), "--instance", tilt2, "--bihierarchy"
        )
        assert code == 0
        assert len(json.loads(out)["support"]) == 2

    def test_sample_keeps_never_assigned_last_item(self, capsys, files, tmp_path):
        # item 1 goes to nobody, so only the lottery's "items" field knows it exists
        lot_path = tmp_path / "lot.json"
        code, _, _ = run(
            capsys,
            "decompose",
            files("x.json", {"matrix": [["1", "0"], ["0", "0"]]}),
            "--instance",
            files("tilt2.json", TILT2),
            "--bvn",
            "-o",
            str(lot_path),
        )
        assert code == 0
        lottery = json.loads(lot_path.read_text())
        assert (lottery["agents"], lottery["items"]) == (2, 2)
        code, out, _ = run(capsys, "sample", str(lot_path), "--seed", "3")
        assert code == 0
        assert json.loads(out)["matrix"] == [["1", "0"], ["0", "0"]]

    def test_sample_reads_shape_fields(self, capsys, files):
        lottery = {"agents": 2, "items": 2, "support": [{"weight": "1", "bundles": [[0], []]}]}
        code, out, _ = run(capsys, "sample", files("lot.json", lottery))
        assert code == 0
        assert json.loads(out)["matrix"] == [["1", "0"], ["0", "0"]]

    def test_sample_rejects_boolean_item_index(self, capsys, files):
        # bool is an int subclass: true in a bundle would otherwise read as item 1
        lottery = {"agents": 2, "items": 2, "support": [{"weight": "1", "bundles": [[True], [0]]}]}
        code, out, err = run(capsys, "sample", files("lot.json", lottery))
        assert code == 2 and out == ""
        assert "item index True" in err

    def test_rule_output_feeds_sample(self, capsys, files, tmp_path):
        lot_path = tmp_path / "lot.json"
        run(capsys, "round-robin", files("cycle3.json", CYCLE3), "-o", str(lot_path))
        code, out, _ = run(capsys, "sample", str(lot_path), "--seed", "0")
        assert code == 0
        matrix = json.loads(out)["matrix"]
        assert len(matrix) == 3 and all(len(row) == 3 for row in matrix)


# Runs fairlot.cli as ``python -m`` does, then lists on the last stderr line every
# fairlot submodule the process holds. sys.modules also shows the layers the lazy
# package imports through importlib, which ``-X importtime`` does not log.
RUN_CLI_LISTING_MODULES = (
    "import atexit, runpy, sys\n"
    "atexit.register(lambda: print(*sorted(m for m in sys.modules if m.startswith('fairlot.')), file=sys.stderr))\n"
    "runpy.run_module('fairlot.cli', run_name='__main__', alter_sys=True)\n"
)


def loaded_fairlot_modules(stderr):
    """The ``fairlot.*`` modules a ``RUN_CLI_LISTING_MODULES`` child held at exit."""
    return {name.removeprefix("fairlot.") for name in stderr.splitlines()[-1].split()}


class TestFreshProcess:
    """Each command run as ``python -m fairlot.cli`` in a new interpreter, where
    only the imports its own handler makes have happened."""

    HALVES = {"matrix": [["1/2", "1/2"], ["1/2", "1/2"]]}
    IDENTITY = {"matrix": [["1", "0"], ["0", "1"]]}
    BADS_CEEI = {"matrix": [["1", "1/2", "0"], ["0", "1/2", "1"]]}
    MIXED = {"agents": 2, "items": 3, "values": [[3, -1, -2], [1, -2, 2]]}
    # fPO for BADS and MIXED alike: each item goes to an agent who values it most
    FIRST_TWO = {"matrix": [["1", "1", "0"], ["0", "0", "1"]]}
    # not fPO: a cycle of two bads for BADS, and an item worth -2 to its holder and 2 to the other for MIXED
    LAST_TWO = {"matrix": [["0", "0", "1"], ["1", "1", "0"]]}
    LOTTERY = {
        "agents": 2,
        "items": 2,
        "support": [{"weight": "3/4", "bundles": [[0], [1]]}, {"weight": "1/4", "bundles": [[0, 1], []]}],
    }
    # every part gives each agent one item, so every part is EF1 and Prop1
    FAIR_LOTTERY = {
        "agents": 2,
        "items": 2,
        "support": [{"weight": "3/4", "bundles": [[0], [1]]}, {"weight": "1/4", "bundles": [[1], [0]]}],
    }

    @pytest.fixture
    def paths(self, files):
        return {
            "goods": files("tilt2.json", TILT2),
            "bads": files("bads.json", BADS),
            "alloc": files("x.json", self.HALVES),
            "integral": files("identity.json", self.IDENTITY),
            "ceei": files("ceei.json", self.BADS_CEEI),
            "mixed": files("mixed.json", self.MIXED),
            "first-two": files("first-two.json", self.FIRST_TWO),
            "last-two": files("last-two.json", self.LAST_TWO),
            "lottery": files("lot.json", self.LOTTERY),
            "fair-lottery": files("fair.json", self.FAIR_LOTTERY),
        }

    @pytest.mark.parametrize(
        "code, argv, needed, forbidden",
        [
            (0, ["--version"], {"core"}, {"decomp", "eating", "lp", "mnw", "properties", "rounding", "rps"}),
            (0, ["sample", "lottery"], {"core"}, {"decomp", "eating", "lp", "mnw", "properties", "rounding", "rps"}),
            (0, ["rps", "goods"], {"rps"}, {"lp", "mnw", "properties", "rounding"}),
            (0, ["rps-bads", "bads"], {"rps"}, {"lp", "mnw", "properties", "rounding"}),
            (0, ["rps", "goods", "--mode", "sample"], {"rps"}, {"lp", "mnw", "properties", "rounding"}),
            # TILT2's support stays below the n*m + 1 cap, so poly mode trims nothing
            (0, ["rps", "goods", "--mode", "poly"], {"rps"}, {"lp", "mnw", "properties", "rounding"}),
            (0, ["rps-mixed", "bads"], {"rps"}, {"lp", "mnw", "properties", "rounding"}),
            (
                0,
                ["decompose", "alloc", "--instance", "goods", "--bvn"],
                {"decomp"},
                {"lp", "mnw", "properties", "rounding", "rps", "eating"},
            ),
            (0, ["gf-lottery", "goods"], {"mnw", "rounding"}, {"lp", "properties"}),
            (0, ["mnw", "goods"], {"mnw"}, {"decomp", "lp", "properties"}),
            (0, ["mnw-v", "goods"], {"mnw"}, {"decomp", "lp", "properties"}),
            (0, ["check", "goods", "--lottery", "fair-lottery", "--ex-post", "ef1,prop1"], {"properties"}, {"lp"}),
            # both parts of LOTTERY are fPO for TILT2, so the certificate decides without an LP
            (0, ["check", "goods", "--lottery", "lottery", "--ex-post", "fpo"], {"properties"}, {"lp"}),
            # the identity is fPO for TILT2 by the certificate, and EF1 and Prop1
            (
                0,
                ["check", "goods", "--alloc", "integral", "--ex-ante", "fpo", "--ex-post", "ef1,prop1"],
                {"properties"},
                {"lp"},
            ),
            # the trading-cycle test decides bads and mixed items too
            (0, ["check", "bads", "--alloc", "first-two", "--ex-ante", "fpo"], {"properties"}, {"lp"}),
            (0, ["check", "mixed", "--alloc", "first-two", "--ex-ante", "fpo"], {"properties"}, {"lp"}),
            # a failing fpo check builds its dominator from the trade the test found, with no LP
            (1, ["check", "goods", "--alloc", "alloc", "--ex-ante", "fpo"], {"properties"}, {"lp"}),
            (1, ["check", "bads", "--alloc", "last-two", "--ex-ante", "fpo"], {"properties"}, {"lp"}),
            (1, ["check", "mixed", "--alloc", "last-two", "--ex-ante", "fpo"], {"properties"}, {"lp"}),
        ],
        ids=[
            "version", "sample", "rps", "rps-bads", "rps-sample", "rps-poly", "rps-mixed", "decompose-bvn", "gf-lottery",
            "mnw", "mnw-v", "check-ex-post", "check-fpo", "check-integral-alloc", "check-fpo-bads", "check-fpo-mixed",
            "check-not-fpo-goods", "check-not-fpo-bads", "check-not-fpo-mixed",
        ],
    )
    def test_command_loads_only_its_layers(self, paths, code, argv, needed, forbidden):
        child = fresh_python("-c", RUN_CLI_LISTING_MODULES, *(paths.get(a, a) for a in argv))
        assert child.returncode == code, child.stderr
        loaded = loaded_fairlot_modules(child.stderr)
        assert needed <= loaded
        assert loaded & forbidden == set()

    @pytest.mark.parametrize("statement", ["from fairlot.rps import RpsConfig", "import fairlot.rps"])
    def test_package_rps_is_the_function_after_submodule_import(self, statement):
        script = f"{statement}\nimport sys, fairlot\nassert fairlot.rps is sys.modules['fairlot.rps'].rps, fairlot.rps"
        child = fresh_python("-c", script)
        assert child.returncode == 0, child.stderr

    def test_star_import_binds_each_name_to_its_home_module(self):
        script = """
import sys, fairlot
from fairlot import *
assert __version__ == fairlot.__version__
for name in set(fairlot.__all__) - {"__version__"}:
    obj = globals()[name]
    assert obj.__name__ == name, name
    assert getattr(sys.modules[obj.__module__], name) is obj, name
    assert getattr(fairlot, name) is obj, name
try:
    fairlot.no_such_name
except AttributeError as exc:
    assert str(exc) == "module 'fairlot' has no attribute 'no_such_name'", exc
else:
    raise AssertionError("unknown name resolved")
"""
        child = fresh_python("-c", script)
        assert child.returncode == 0, child.stderr

    def test_bare_package_lists_exports_and_reaches_layers(self):
        script = """
import sys, fairlot
names = set(dir(fairlot))
assert set(fairlot.__all__) <= names, set(fairlot.__all__) - names
assert not names & {"sys", "types", "import_module", "_name"}, names
for layer in ("decomp", "eating", "lp", "mnw", "properties", "rounding"):
    assert getattr(fairlot, layer) is sys.modules["fairlot." + layer], layer
assert fairlot.rps is sys.modules["fairlot.rps"].rps
"""
        child = fresh_python("-c", script)
        assert child.returncode == 0, child.stderr

    def test_every_command_matches_in_process(self, capsys, paths):
        commands = [
            ["rps", "goods", "--mode", "poly"],
            ["rps-bads", "bads"],
            ["rps-mixed", "goods"],
            ["round-robin", "goods"],
            ["mnw", "goods"],
            ["mnw-v", "goods"],
            ["gf-lottery", "goods"],
            ["prop1-lottery", "goods", "--frac", "alloc"],
            ["bads-lottery", "bads", "--ceei", "ceei"],
            ["decompose", "alloc", "--instance", "goods", "--bvn"],
            ["decompose", "alloc", "--instance", "goods", "--bihierarchy"],
            ["check", "goods", "--lottery", "lottery", "--ex-ante", "gf,sdef", "--ex-post", "ef1,fpo"],
            ["sample", "lottery", "--seed", "3"],
        ]
        for command in commands:
            argv = [paths.get(a, a) for a in command]
            child = fresh_python("-m", "fairlot.cli", *argv)
            assert (child.returncode, child.stdout, child.stderr) == run(capsys, *argv), command
            assert child.returncode in (0, 1), child.stderr
