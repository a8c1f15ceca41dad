"""The public namespace of the kkpolar package."""

import ast
import inspect
from pathlib import Path

import kkpolar
from kkpolar import polynomials


def test_all_lists_exactly_the_imported_names():
    tree = ast.parse(Path(kkpolar.__file__).read_text())
    imported = {alias.asname or alias.name
                for node in tree.body if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    assert set(kkpolar.__all__) == imported
    assert len(kkpolar.__all__) == len(imported)


def test_the_polynomial_placeholders_stay_empty():
    """polynomials.Polynomial and GegenbauerFamily are empty placeholders:
    they define no methods, the package does not export them, and no
    module imports them, so the package keeps one polynomial type."""
    placeholders = {"Polynomial", "GegenbauerFamily"}
    for name in placeholders:
        cls = getattr(polynomials, name)
        own = [attr for attr, value in vars(cls).items()
               if inspect.isfunction(value)
               or isinstance(value, (classmethod, staticmethod))]
        assert own == [], name
        assert name not in kkpolar.__all__
    root = Path(__file__).resolve().parent.parent
    for path in [*root.joinpath("src").rglob("*.py"),
                 *root.joinpath("tests").rglob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module in (
                    "kkpolar.polynomials", "polynomials"):
                imported = {alias.name for alias in node.names}
                assert not imported & placeholders, path
