"""End-to-end command-line behavior: JSON in, JSON out, meaningful exit codes."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
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
        # shows what loading every layer really imports
        script = (
            "import sys, fairlot, fairlot.cli, fairlot.lp\n"
            "from fairlot import *\n"
            "layers = ('cli', 'core', 'decomp', 'eating', 'lp', 'mnw', 'properties', 'rounding', 'rps')\n"
            "assert all(f'fairlot.{m}' in sys.modules for m in layers)\n"
            "print('numpy' in sys.modules)"
        )
        child = fresh_python("-c", script)
        assert child.returncode == 0, child.stderr
        assert child.stdout.strip() == "False"

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

    def test_boolean_agent_count_is_input_error(self, capsys, files):
        path = files("bool.json", {"agents": True, "items": 2, "values": [[1, 2]]})
        code, out, err = run(capsys, "rps", path)
        assert code == 2
        assert out == ""
        assert "integers" in err

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

    def test_rule_output_feeds_sample(self, capsys, files, tmp_path):
        lot_path = tmp_path / "lot.json"
        run(capsys, "round-robin", files("cycle3.json", CYCLE3), "-o", str(lot_path))
        code, out, _ = run(capsys, "sample", str(lot_path), "--seed", "0")
        assert code == 0
        matrix = json.loads(out)["matrix"]
        assert len(matrix) == 3 and all(len(row) == 3 for row in matrix)


def imported_fairlot_modules(importtime_stderr):
    """The ``fairlot.*`` modules a ``python -X importtime`` child loaded."""
    names = set()
    for line in importtime_stderr.splitlines():
        if line.startswith("import time:"):
            name = line.rsplit("|", 1)[1].strip()
            if name.startswith("fairlot."):
                names.add(name.removeprefix("fairlot."))
    return names


class TestFreshProcess:
    """Each command run as ``python -m fairlot.cli`` in a new interpreter, where
    only the imports its own handler makes have happened."""

    HALVES = {"matrix": [["1/2", "1/2"], ["1/2", "1/2"]]}
    BADS_CEEI = {"matrix": [["1", "1/2", "0"], ["0", "1/2", "1"]]}
    LOTTERY = {
        "agents": 2,
        "items": 2,
        "support": [{"weight": "3/4", "bundles": [[0], [1]]}, {"weight": "1/4", "bundles": [[0, 1], []]}],
    }

    @pytest.fixture
    def paths(self, files):
        return {
            "goods": files("tilt2.json", TILT2),
            "bads": files("bads.json", BADS),
            "alloc": files("x.json", self.HALVES),
            "ceei": files("ceei.json", self.BADS_CEEI),
            "lottery": files("lot.json", self.LOTTERY),
        }

    @pytest.mark.parametrize(
        "argv, needed, forbidden",
        [
            (["--version"], set(), {"decomp", "eating", "lp", "mnw", "properties", "rounding", "rps"}),
            (["sample", "lottery"], set(), {"decomp", "eating", "lp", "mnw", "properties", "rounding", "rps"}),
            (["rps", "goods"], {"rps"}, {"mnw", "properties", "rounding"}),
            (["rps-bads", "bads"], {"rps"}, {"mnw", "properties", "rounding"}),
            (
                ["decompose", "alloc", "--instance", "goods", "--bvn"],
                {"decomp"},
                {"mnw", "properties", "rounding", "rps", "eating"},
            ),
        ],
        ids=["version", "sample", "rps", "rps-bads", "decompose-bvn"],
    )
    def test_command_loads_only_its_layers(self, paths, argv, needed, forbidden):
        child = fresh_python("-X", "importtime", "-m", "fairlot.cli", *(paths.get(a, a) for a in argv))
        assert child.returncode == 0, child.stderr
        loaded = imported_fairlot_modules(child.stderr)
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
