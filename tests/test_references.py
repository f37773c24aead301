"""Code only tests use lives in ``tests/``: every function and class the
package defines is referenced somewhere in ``src/``, ``bench/`` or
``demos/`` other than at its own definition (``bench/tests`` is a test
directory and does not count).  A reference is an identifier or a string
literal that spells the name, as ``bench/run.py`` names what it wraps."""

import ast
import io
import tokenize
from collections import Counter
from pathlib import Path

import meancap

PACKAGE = Path(meancap.__file__).parent
ROOT = PACKAGE.parents[1]


def defined_names(source: str) -> Counter:
    """How often each def and class name is defined, dunder methods aside."""
    return Counter(node.name for node in ast.walk(ast.parse(source))
                   if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                   and not (node.name.startswith("__") and node.name.endswith("__")))


def mentions(source: str) -> Counter:
    """How often each identifier appears, as a name or as a whole string literal."""
    out = Counter()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.NAME:
            out[tok.string] += 1
        elif tok.type == tokenize.STRING:
            try:
                value = ast.literal_eval(tok.string)
            except (ValueError, SyntaxError):  # an f-string, on Pythons that keep it whole
                continue
            if isinstance(value, str) and value.isidentifier():
                out[value] += 1
    return out


def unreferenced(package_sources, other_sources) -> list:
    """The names the package sources define that appear nowhere but at their definitions."""
    defined, seen = Counter(), Counter()
    for source in package_sources:
        defined += defined_names(source)
    for source in [*package_sources, *other_sources]:
        seen += mentions(source)
    return sorted(name for name, count in defined.items() if seen[name] <= count)


def test_every_package_name_is_used_outside_tests():
    package = [p.read_text(encoding="utf-8") for p in sorted(PACKAGE.rglob("*.py"))]
    assert len(package) > 10  # the package, not an empty directory
    others = [p.read_text(encoding="utf-8")
              for d in ("bench", "demos") for p in sorted((ROOT / d).rglob("*.py"))
              if "tests" not in p.relative_to(ROOT).parts]
    assert others, f"no bench or demo sources under {ROOT}"
    unused = unreferenced(package, others)
    assert not unused, f"only their definitions mention {unused}; test-only code belongs in tests/"


def test_the_guard_sees_a_name_only_its_definition_mentions():
    package = ['class A:\n    def __init__(self): pass\n    def kept(self): pass\n'
               'def dead(): pass\ndef spelled(): pass\ndef twice(): pass\ndef twice(): pass\n']
    other = ['A().kept()\nwrap(module, "spelled")\n# dead, in a comment only\n']
    assert unreferenced(package, other) == ["dead", "twice"]
