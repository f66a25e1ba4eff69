"""Every function, class and method of src/hermnet has a caller outside
the tests.

A name counts as used when src/, demos/ or benchmarks/ name it anywhere
but at its own definition: as a name, an attribute, an import, or a
string (the benchmark's tracer wraps functions by name).  A package
__init__.py does not count: re-exporting a name does not call it.
Dunder methods are called by Python itself and are not checked.
Every name a package module imports is used in that module.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hermnet"

# name -> why it stays without a caller outside the tests
ALLOWED = {
    "parallelize": "paper operation: weighted sum of networks (criteria 2, 7)",
    "concatenate": "paper operation: composition of networks (criteria 2, 7)",
    "identity_net": "paper gadget: the identity as a ReLU network (criterion 7)",
    "product_net": "paper gadget: the approximate product (criteria 2, 7)",
    "phi0_net": "paper gadget: the plateau truncation (criteria 2, 7)",
    "phi1_net": "paper gadget: the clipped identity (criteria 2, 7)",
    "delta_op": "checks the production coefficient tables (test_telescoping)",
    "sparse_interpolate": "builds the interpolants of criterion 1",
    "log_sigma": "the paper's weight sigma_s; criterion 7 checks its growth",
    "hermite_tensor_eval": "criterion 1's exact target",
}


def _definitions():
    """(module, name) of every top-level function and class and every
    method in the package."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            subs = node.body if isinstance(node, ast.ClassDef) else []
            for item in [node, *subs]:
                if isinstance(item, (ast.ClassDef, ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                    yield path.name, item.name


def _uses():
    """Every name the non-test code mentions outside a definition line."""
    names = set()
    for folder in ("src", "demos", "benchmarks"):
        for path in (ROOT / folder).rglob("*.py"):
            if path.name == "__init__.py":
                continue
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.update(node.name.split("."))
                elif isinstance(node, ast.Constant) and isinstance(
                        node.value, str) and node.value.isidentifier():
                    names.add(node.value)
    return names


def test_every_definition_has_a_caller():
    used = _uses()
    unused = sorted(f"{module}:{name}" for module, name in _definitions()
                    if name not in used and name not in ALLOWED
                    and not (name.startswith("__") and name.endswith("__")))
    assert not unused, f"only tests reach {unused}; delete them"


def test_allowlist_names_definitions():
    assert set(ALLOWED) <= {name for _, name in _definitions()}


def _unused_imports(path):
    """Names the module at `path` imports but never mentions."""
    imported, used = set(), set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update(alias.asname or alias.name.split(".")[0]
                            for alias in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return imported - used


def test_every_import_is_used():
    unused = sorted(f"{path.name}:{name}"
                    for path in sorted(PACKAGE.glob("*.py"))
                    if path.name != "__init__.py"
                    for name in _unused_imports(path))
    assert not unused, f"{unused} are imported but never used; delete them"
