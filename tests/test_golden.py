"""The golden CLI corpus: every recorded case still gives the same exit code,
stdout and stderr bytes (see ``tests/golden/corpus.py``)."""

from __future__ import annotations

from pathlib import Path

from golden import corpus

RECORD = Path(__file__).resolve().parent / "golden" / "digests.txt"


def test_cli_outputs_match_golden_digests(monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    corpus.write_files(str(tmp_path))
    recorded = dict(line.split("|", 1) for line in RECORD.read_text().splitlines())
    got = dict(line.split("|", 1) for line in corpus.digest_lines())
    assert list(got) == list(recorded), "the case list changed; rewrite the record"
    moved = [name for name in recorded if got[name] != recorded[name]]
    assert moved == []
