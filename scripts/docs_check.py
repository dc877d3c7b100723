#!/usr/bin/env python
"""Docs lint: internal links resolve and the README matches the examples.

Checks, over ``README.md`` and ``docs/*.md``:

1. every relative markdown link ``[text](target)`` points at a file that
   exists (anchors are checked against the target file's headings, slugified
   the way GitHub does);
2. every ``examples/*.py`` is listed in the README's Examples section, and
   the description the README gives is the first line of the example's
   module docstring — so the index can never drift from the scripts;
3. the Statistics table in ``docs/architecture.md`` lists exactly the
   counters of ``SCHEMA`` in ``src/repro/serving/metrics.py`` (group, key,
   scope and kind), read with ``ast`` so no package needs installing;
4. every field of ``PlannerConfig`` and ``ServiceConfig`` in
   ``src/repro/config.py`` is documented in its class docstring's
   Attributes section, and every name documented there is a field of that
   class (``a / b:`` documents two), also read with ``ast``;
5. every backticked dotted ``repro.…`` name resolves by import, as a
   module or as an attribute of one (so an oracle or API the docs name by
   its dotted path cannot be moved or deleted without the docs following);
6. every fully qualified Sphinx cross-reference in ``src/repro/**/*.py``
   (``:meth:`~repro.…` ``, ``:func:``, ``:class:``, ``:attr:``, ``:data:``,
   ``:mod:``, ``:exc:``) resolves the same way, so a docstring cannot keep
   naming a deleted method.
   Checks 5 and 6 import the package from ``src``, so they need numpy.

Run from anywhere: paths resolve against the repo root.  Exits non-zero
with one line per problem (consumed by ``scripts/ci.sh`` and the CI lint
job).
"""

from __future__ import annotations

import ast
import importlib
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: ``[text](target)`` inline links; images share the syntax (leading ``!``).
_LINK = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)\)")
_HEADING = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)


def _doc_files():
    return [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]


def _slugify(heading: str) -> str:
    """GitHub's anchor slug: lowercase, spaces to dashes, drop punctuation."""
    text = re.sub(r"[`*_]", "", heading.strip()).lower()
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def _anchors(path: Path) -> set:
    return {_slugify(m.group(1)) for m in _HEADING.finditer(path.read_text())}


def _check_links(errors: list) -> None:
    for doc in _doc_files():
        if not doc.exists():
            errors.append(f"{doc.relative_to(ROOT)}: file missing")
            continue
        for match in _LINK.finditer(doc.read_text()):
            target = match.group(1)
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            target, _, anchor = target.partition("#")
            resolved = (doc.parent / target).resolve() if target else doc
            if not resolved.exists():
                errors.append(
                    f"{doc.relative_to(ROOT)}: broken link -> {match.group(1)}"
                )
                continue
            if anchor and resolved.suffix == ".md" and anchor not in _anchors(resolved):
                errors.append(
                    f"{doc.relative_to(ROOT)}: broken anchor -> {match.group(1)}"
                )


def _docstring_first_line(path: Path) -> str:
    doc = ast.get_docstring(ast.parse(path.read_text())) or ""
    return doc.strip().splitlines()[0].strip() if doc.strip() else ""


def _check_examples(errors: list) -> None:
    readme = (ROOT / "README.md").read_text()
    # The README hard-wraps prose, so compare with whitespace collapsed.
    flat = re.sub(r"\s+", " ", readme)
    for example in sorted((ROOT / "examples").glob("*.py")):
        rel = f"examples/{example.name}"
        first_line = _docstring_first_line(example)
        if not first_line:
            errors.append(f"{rel}: missing module docstring")
            continue
        if rel not in readme:
            errors.append(f"README.md: {rel} is not listed")
            continue
        if re.sub(r"\s+", " ", first_line) not in flat:
            errors.append(
                f"README.md: description for {rel} does not match its "
                f"docstring first line: {first_line!r}"
            )


def _schema_rows() -> set:
    """``(group, key, scope, kind)`` for every counter of the metrics schema."""
    tree = ast.parse((ROOT / "src/repro/serving/metrics.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "SCHEMA" for target in node.targets
        ):
            schema = ast.literal_eval(node.value)
            return {
                (group, key, scope, kind)
                for group, (scope, entries) in schema.items()
                for key, kind, _ in entries
            }
    return set()


def _table_rows() -> set:
    """``(group, key, scope, kind)`` rows of the architecture doc's
    Statistics table (its key column is code-formatted)."""
    text = (ROOT / "docs/architecture.md").read_text()
    section = text.partition("\n## Statistics\n")[2].partition("\n## ")[0]
    rows = set()
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) == 5 and cells[1].startswith("`"):
            rows.add((cells[0], cells[1].strip("`"), cells[2], cells[3]))
    return rows


def _check_statistics(errors: list) -> None:
    schema, table = _schema_rows(), _table_rows()
    if not schema:
        errors.append("src/repro/serving/metrics.py: no SCHEMA literal found")
    for row in sorted(schema - table):
        errors.append(f"docs/architecture.md: Statistics table lacks schema counter {row}")
    for row in sorted(table - schema):
        errors.append(f"docs/architecture.md: Statistics table row {row} is not in the schema")


#: Config classes whose fields must match their docstring's Attributes.
_CONFIG_CLASSES = ("PlannerConfig", "ServiceConfig")
#: An Attributes entry: ``name:`` or ``name / other_name:`` at column 0.
_ATTRIBUTE = re.compile(r"^(\w+(?:\s*/\s*\w+)*):\s*$")


def _documented_attributes(docstring: str) -> list:
    """Names the Attributes section of a numpy-style docstring documents."""
    lines = docstring.splitlines()
    if "Attributes" not in lines:
        return []
    names = []
    for line in lines[lines.index("Attributes") + 2 :]:
        match = _ATTRIBUTE.match(line)
        if match:
            names.extend(name.strip() for name in match.group(1).split("/"))
    return names


def _check_config_knobs(errors: list) -> None:
    tree = ast.parse((ROOT / "src/repro/config.py").read_text())
    classes = {node.name: node for node in tree.body if isinstance(node, ast.ClassDef)}
    for name in _CONFIG_CLASSES:
        node = classes.get(name)
        if node is None:
            errors.append(f"src/repro/config.py: class {name} not found")
            continue
        fields = [
            stmt.target.id
            for stmt in node.body
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
        ]
        documented = _documented_attributes(ast.get_docstring(node) or "")
        for field in fields:
            if field not in documented:
                errors.append(f"src/repro/config.py: {name}.{field} is not documented")
        for attribute in documented:
            if attribute not in fields:
                errors.append(
                    f"src/repro/config.py: {name} documents {attribute!r}, which is not a field"
                )


#: A backticked dotted name in the ``repro`` package, e.g. `repro.core.reference`.
_DOTTED = re.compile(r"`(repro(?:\.\w+)+)`")


def _resolves(name: str) -> bool:
    """Whether ``name`` is an importable module or an attribute path below one."""
    parts = name.split(".")
    for split in range(len(parts), 0, -1):
        module = ".".join(parts[:split])
        try:
            target = importlib.import_module(module)
        except ModuleNotFoundError as error:
            if not (error.name or "").startswith("repro"):
                raise  # a missing dependency, not a missing name
            continue
        for attribute in parts[split:]:
            if not hasattr(target, attribute):
                return False
            target = getattr(target, attribute)
        return True
    return False


def _import_from_src() -> None:
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))


def _check_dotted_names(errors: list) -> None:
    _import_from_src()
    for doc in _doc_files():
        if not doc.exists():
            continue  # reported by the link check
        for name in sorted(set(_DOTTED.findall(doc.read_text()))):
            if not _resolves(name):
                errors.append(f"{doc.relative_to(ROOT)}: `{name}` does not resolve")


#: A fully qualified Sphinx cross-reference, e.g. :meth:`~repro.core.truth.TruthDatabase.overlay`.
_XREF = re.compile(r":(?:meth|func|class|attr|data|mod|exc):`~?(repro(?:\.\w+)+)`")


def _check_xrefs(errors: list, sources=None) -> None:
    """Check 6 over ``sources`` (default: every ``src/repro`` module)."""
    _import_from_src()
    if sources is None:
        sources = sorted((ROOT / "src/repro").rglob("*.py"))
    for path in sources:
        for name in sorted(set(_XREF.findall(path.read_text()))):
            if not _resolves(name):
                where = path.relative_to(ROOT) if path.is_relative_to(ROOT) else path
                errors.append(f"{where}: cross-reference `{name}` does not resolve")


def main() -> int:
    errors: list = []
    _check_links(errors)
    _check_examples(errors)
    _check_statistics(errors)
    _check_config_knobs(errors)
    _check_dotted_names(errors)
    _check_xrefs(errors)
    for error in errors:
        print(f"docs_check: {error}", file=sys.stderr)
    if errors:
        print(f"docs_check: {len(errors)} problem(s)", file=sys.stderr)
        return 1
    docs = len(_doc_files())
    examples = len(list((ROOT / "examples").glob("*.py")))
    print(f"docs_check: OK ({docs} docs, {examples} examples)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
