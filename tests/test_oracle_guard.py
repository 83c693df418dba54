"""An ``ast`` scan of ``tests/``: ``oracle.py`` imports from ``kring`` only
what reading a model's definition needs, so it cannot call the arithmetic
it is the reference for; no test module imports from another (what two of
them share lives in ``conftest.py`` or ``oracle.py``); and ``conftest.py``
imports at module level only."""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent


def _imports(name: str):
    """(node, module, names) for every import statement of ``tests/name``."""
    tree = ast.parse((TESTS / name).read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((node, alias.name, ()) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield node, node.module or "", tuple(alias.name for alias in node.names)


def test_oracle_reads_only_model_definitions_from_kring():
    for _, module, names in _imports("oracle.py"):
        assert not module.startswith("tests"), module
        if module.startswith("kring"):
            # the dense Fourier rows are read off the exported document
            assert (module, names) == ("kring", ("export_model",)), (module, names)
    tree = ast.parse((TESTS / "oracle.py").read_text(encoding="utf-8"))
    read = {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    assert not [a for a in read if a.startswith("_")], "the oracle reads a private attribute"


def test_no_test_module_imports_another():
    for path in sorted(TESTS.glob("test_*.py")):
        for _, module, names in _imports(path.name):
            targets = [module] + [f"{module}.{n}" for n in names]
            assert not any(t.startswith("tests.test_") for t in targets), (path.name, module)


def test_conftest_imports_at_module_level_only():
    for node, module, _ in _imports("conftest.py"):
        assert node.col_offset == 0, f"line {node.lineno} imports {module}"
