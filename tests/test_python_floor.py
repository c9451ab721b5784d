"""The package must import on the oldest Python ``pyproject.toml``
declares (3.9).  ``dataclass(slots=True)`` is a ``TypeError`` there, at
import time, so a slotted dataclass is slotted by hand instead
(``__slots__`` plus a written ``__init__``, as ``Version`` does)."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _dataclass_slots_calls(tree):
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name == "dataclass" and any(kw.arg == "slots" for kw in node.keywords):
            yield node.lineno


def test_no_dataclass_passes_slots():
    modules = sorted(SRC.rglob("*.py"))
    assert modules
    offenders = [
        "%s:%d" % (path.relative_to(SRC), line)
        for path in modules
        for line in _dataclass_slots_calls(ast.parse(path.read_text(), str(path)))
    ]
    assert offenders == []


def test_detector_flags_slots_keyword():
    tree = ast.parse("@dataclass(slots=True)\nclass A:\n    x: int\n"
                     "@dataclasses.dataclass(frozen=True, slots=True)\nclass B:\n    y: int\n")
    assert list(_dataclass_slots_calls(tree)) == [1, 4]
