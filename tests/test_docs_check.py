"""The docs lint's docstring check (``scripts/docs_check.py``): fully
qualified Sphinx cross-references in the source must resolve."""

import importlib
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.fixture
def docs_check(monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))
    return importlib.import_module("docs_check")


def test_stale_cross_reference_is_reported(docs_check, tmp_path):
    module = tmp_path / "stale.py"
    module.write_text(
        '"""Reads the store through :meth:`~repro.core.truth.TruthDatabase.view_by_cells`\n'
        "and :class:`repro.core.planner.CellClosure`; merges with\n"
        ':func:`repro.serving.shards.merge_shard_outcomes`."""\n'
    )
    errors = []
    docs_check._check_xrefs(errors, [module])
    assert errors == [
        f"{module}: cross-reference `repro.core.planner.CellClosure` does not resolve",
        f"{module}: cross-reference `repro.core.truth.TruthDatabase.view_by_cells` does not resolve",
    ]


def test_source_tree_cross_references_resolve(docs_check):
    errors = []
    docs_check._check_xrefs(errors)
    assert errors == []
