"""Every public function and method of ``src/kring`` has a caller inside
the package or is library API kept on purpose.

An ``ast`` scan collects the public (no leading underscore) module-level
functions and class methods, and every name and attribute read in the
package's modules other than ``__init__.py``, whose re-exports are no
caller.  A definition's own body does not count as its caller.  A
module-level function counts as called only when its bare name or
``<module>.<name>`` is read, so a method of the same name is no caller.
Methods are matched by spelling only, so a method sharing its name with
another counts as used: the scan can miss an orphan, never invent one.
``DELIBERATE`` mirrors the deliberate-API paragraph of README.md.
"""

import ast
from collections import Counter
from pathlib import Path

import kring

SRC = Path(kring.__file__).resolve().parent
README = SRC.parent.parent / "README.md"

# module.qualname -> why it is kept as library API; a name here may also
# have a caller (load_model serves the CLI), as in the README paragraph
DELIBERATE = {
    "adams.gamma_op": "one gamma operation, cross-checked against gamma_pi_coeff",
    "adams.gamma_pi_coeff": "one universal coefficient of the pi-structure expansion",
    "adams.nth_root": "the n-th root of a unipotent line-bundle class",
    "linalg.Subspace.basis": "the RREF rows as Fractions",
    "modelio.load_model": "read a model document from a file",
    "model.ModelAlgebra.mul_basis": "the product of two basis vectors",
    "model.ModelAlgebra.element": "an element from label -> coefficient",
    "model.Element.component": "the (p, q) block of an element",
    "model.ValidationReport.codes": "the violated constraint codes",
    "operators.DiagonalOperator.eigenvalues": "the eigenvalues as Fractions",
    "operators.PushforwardRelation.integral": "whether the coefficients are integers",
    "operators.fourier_inverse": "the inverse Fourier image of an element",
    "operators.pushforward_relation": "a pushforward in the basis of pushforwards by 0 .. 2g",
    "series.TruncatedSeries.log": "the logarithm of a unipotent series",
}


def _definitions(tree: ast.Module, module: str):
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield f"{module}.{node.name}", node
        elif isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef):
                    yield f"{module}.{node.name}.{sub.name}", sub


def _names_read(node: ast.AST) -> Counter:
    """Each bare name read under its spelling, each attribute under
    ``.attr``, and each attribute of a bare name under ``name.attr``."""
    reads = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            reads[n.id] += 1
        elif isinstance(n, ast.Attribute):
            reads[f".{n.attr}"] += 1
            if isinstance(n.value, ast.Name):
                reads[f"{n.value.id}.{n.attr}"] += 1
    return reads


def _callers(qualname: str) -> tuple[str, ...]:
    """The keys of ``_names_read`` that call ``qualname``: a module-level
    function's bare name and ``<module>.<name>``, a method's spelling."""
    parts = qualname.split(".")
    if len(parts) == 2:
        return parts[1], qualname
    return parts[-1], f".{parts[-1]}"


def _scan() -> tuple[dict, Counter]:
    definitions, reads = {}, Counter()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        definitions.update(_definitions(tree, path.stem))
        if path.name != "__init__.py":
            reads += _names_read(tree)
    return definitions, reads


def test_every_public_name_has_a_caller_or_is_deliberate():
    definitions, reads = _scan()
    orphans = []
    for qualname, node in definitions.items():
        if qualname.rsplit(".", 1)[1].startswith("_") or qualname in DELIBERATE:
            continue
        own = _names_read(node)
        if sum(reads[key] - own[key] for key in _callers(qualname)) <= 0:
            orphans.append(qualname)
    assert not orphans, (
        f"public names without a caller in src/kring: {orphans}; delete them, "
        "or keep them as library API in README.md and in DELIBERATE"
    )


def test_deliberate_names_exist_and_are_documented():
    definitions, _ = _scan()
    readme = README.read_text(encoding="utf-8")
    for qualname in DELIBERATE:
        assert qualname in definitions, f"{qualname} is no longer defined"
        name = qualname.rsplit(".", 1)[1]
        assert f"{name}`" in readme, f"README.md does not name {qualname}"
