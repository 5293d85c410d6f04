"""The benchmark's tracer wraps library functions by (module, attribute) name; a
rename in the library must fail here rather than only under ``--trace 1``."""

from __future__ import annotations

import importlib
import types
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing_module() -> types.ModuleType:
    # executed from its source text, so nothing is written beside it
    module = types.ModuleType("perfbench_tracing")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


def test_every_tracer_target_resolves():
    targets = _tracing_module().TARGETS
    assert targets
    missing = []
    for module_name, attr, _, _ in targets:
        owner: object = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module_name}.{attr}")
    assert missing == []
