"""Structure gates over ``src/repro``.

* No function grows past 150 lines.  A function that long mixes concerns
  that belong in separate layers (the window dispatcher was one such method
  before it split into a scheduling state machine and a transport); the gate
  keeps the next one from growing.
* No production module imports a ``reference`` module.  Those hold the
  slow original implementations the fast paths are tested and benchmarked
  against; only tests, benchmarks and other ``reference`` modules use them,
  which keeps every oracle off the serving path.
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


def _imported_modules(path, tree):
    """Absolute dotted names of every module (or module attribute) ``path`` imports."""
    # The package relative imports resolve against (``__init__`` included).
    package = ["repro", *path.relative_to(SOURCE_ROOT).parts[:-1]]
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package[: len(package) - node.level + 1] if node.level else []
            module = ".".join([*base, *(node.module.split(".") if node.module else [])])
            yield module
            yield from (f"{module}.{alias.name}" for alias in node.names)


def test_no_production_module_imports_a_reference_module():
    offenders = []
    for path in sorted(SOURCE_ROOT.rglob("*.py")):
        if path.stem == "reference":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for name in _imported_modules(path, tree):
            if name.split(".")[-1] == "reference":
                offenders.append(f"{path.relative_to(SOURCE_ROOT)} imports {name}")
    assert not offenders, f"production modules import reference modules: {offenders}"
