"""Every public name of the package has a user outside the tests."""

import ast
import glob
import os
import re

import ramangn

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _code_files():
    """The package's modules (not the re-exporting ``__init__``) and the
    benchmark's modules (not its self-tests)."""
    package = glob.glob(os.path.join(_ROOT, "src", "ramangn", "*.py"))
    bench = glob.glob(os.path.join(_ROOT, "perfbench", "*.py"))
    return ([f for f in package if os.path.basename(f) != "__init__.py"]
            + [f for f in bench
               if not os.path.basename(f).startswith("test_")])


def _names_in(node):
    """Identifiers, attributes, and imported names and modules under
    ``node``."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, (ast.Import, ast.ImportFrom)):
            for alias in sub.names:
                names.update(alias.name.split("."))
            names.update((getattr(sub, "module", None) or "").split("."))
    return names


def _references(path):
    """Names the code in ``path`` references.  A top-level function or class
    does not count as a user of its own name."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    found = set()
    for node in tree.body:
        names = _names_in(node)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.discard(node.name)
        found |= names
    return found


def _library_section():
    """The README's "Library use" section."""
    with open(os.path.join(_ROOT, "README.md"), encoding="utf-8") as fh:
        text = fh.read()
    return text.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]


def test_every_public_name_has_a_user_outside_the_tests():
    used = set()
    for path in _code_files():
        used |= _references(path)
    docs = _library_section()
    unused = [name for name in ramangn.__all__ if name not in used
              and not re.search(rf"\b{re.escape(name)}\b", docs)]
    assert not unused, f"public names with no user outside tests: {unused}"
