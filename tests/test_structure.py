"""Structure gate: no function under ``src/repro`` grows past 150 lines.

A function that long mixes concerns that belong in separate layers (the
window dispatcher was one such method before it split into a scheduling
state machine and a transport); the gate keeps the next one from growing.
"""

import ast
from pathlib import Path

MAX_FUNCTION_LINES = 150
SOURCE_ROOT = Path(__file__).resolve().parents[1] / "src" / "repro"


def _function_lengths():
    for path in sorted(SOURCE_ROOT.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                length = node.end_lineno - node.lineno + 1
                yield f"{path.relative_to(SOURCE_ROOT)}:{node.lineno} {node.name}", length


def test_no_function_exceeds_the_line_limit():
    lengths = dict(_function_lengths())
    assert lengths, f"no functions found under {SOURCE_ROOT}"
    too_long = {name: length for name, length in lengths.items() if length > MAX_FUNCTION_LINES}
    assert not too_long, f"functions longer than {MAX_FUNCTION_LINES} lines: {too_long}"
