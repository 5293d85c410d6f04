"""The golden CLI corpus: every recorded case still gives the same exit code,
stdout and stderr bytes (see ``tests/golden/corpus.py``)."""

from __future__ import annotations

import json
from pathlib import Path

from fairlot.core import load_allocation, load_instance, load_lottery

from golden import corpus
from test_properties import _recheck_dominator

RECORD = Path(__file__).resolve().parent / "golden" / "digests.txt"


def test_cli_outputs_match_golden_digests(monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    corpus.write_files(str(tmp_path))
    recorded = dict(line.split("|", 1) for line in RECORD.read_text().splitlines())
    got = dict(line.split("|", 1) for line in corpus.digest_lines())
    assert list(got) == list(recorded), "the case list changed; rewrite the record"
    moved = [name for name in recorded if got[name] != recorded[name]]
    assert moved == []


def test_output_flag_matches_golden_digests(monkeypatch, tmp_path):
    # every case again with -o: the exit code and stderr are the recorded ones,
    # stdout stays empty, the file holds the recorded stdout, and an input error
    # or a limit writes no file
    monkeypatch.chdir(tmp_path)
    corpus.write_files(str(tmp_path))
    recorded = dict(line.split("|", 1) for line in RECORD.read_text().splitlines())
    target = tmp_path / "out.json"
    checked = 0
    for name, argv in corpus.cases():
        if name in ("version", "rps -o"):  # no JSON to write, or -o already given
            continue
        target.unlink(missing_ok=True)
        code, out, err = corpus.run_case([*argv, "-o", str(target)])
        want_code, want_out, want_err = recorded[name].split("|")
        assert (str(code), corpus._sha(err), out) == (want_code, want_err, ""), name
        if code in (2, 3):
            assert not target.exists(), name
        else:
            assert corpus._sha(target.read_text()) == want_out, name
        checked += 1
    assert checked == len(recorded) - 2


def test_failing_fpo_dominators_recheck(monkeypatch, tmp_path):
    # every failing fpo verdict of the corpus, re-checked from the definition against
    # the allocation it judged: the marginal or the allocation ex ante, each part ex post
    monkeypatch.chdir(tmp_path)
    corpus.write_files(str(tmp_path))
    cases = verdicts = 0
    for _, argv in corpus.cases():
        if argv[0] != "check" or "fpo" not in argv[-1].split(","):
            continue
        code, out, _ = corpus.run_case(argv)
        if code != 1:
            continue
        instance = load_instance(argv[1])
        if argv[2] == "--lottery":
            lottery = load_lottery(argv[3], n=instance.n, m=instance.m)
            ante, parts = lottery.marginal, [part for _, part in lottery.support]
        else:
            ante = load_allocation(argv[3])
            parts = [ante]
        report = json.loads(out)
        judged = [(ante, report["ex_ante"]["fpo"])] if "fpo" in report["ex_ante"] else []
        if "fpo" in report["ex_post"]:
            judged += zip(parts, report["ex_post"]["fpo"]["parts"])
        failing = [(alloc, verdict) for alloc, verdict in judged if not verdict["holds"]]
        for alloc, verdict in failing:
            _recheck_dominator(instance, alloc, verdict["witness"]["dominator"])
        cases += bool(failing)
        verdicts += len(failing)
    assert (cases, verdicts) == (12, 13)
