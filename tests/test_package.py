"""The public namespace of the kkpolar package."""

import ast
from pathlib import Path

import kkpolar


def test_all_lists_exactly_the_imported_names():
    tree = ast.parse(Path(kkpolar.__file__).read_text())
    imported = {alias.asname or alias.name
                for node in tree.body if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    assert set(kkpolar.__all__) == imported
    assert len(kkpolar.__all__) == len(imported)
