"""numpy is the only runtime dependency: every import in the package
resolves to the standard library, numpy, or the package itself."""

import ast
import sys
from pathlib import Path

import meancap

PACKAGE = Path(meancap.__file__).parent
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "meancap"}


def imported_roots(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_package_imports_only_stdlib_and_numpy():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) > 10  # the package, not an empty directory
    outside = {f"{path.name}: {root}"
               for path in modules
               for root in imported_roots(ast.parse(path.read_text(encoding="utf-8")))
               if root not in ALLOWED}
    assert not outside, sorted(outside)


def test_the_guard_sees_a_foreign_import():
    tree = ast.parse("import os\nfrom hypothesis import given\nfrom . import tensor\n")
    assert [r for r in imported_roots(tree) if r not in ALLOWED] == ["hypothesis"]
