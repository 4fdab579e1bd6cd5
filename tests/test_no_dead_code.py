"""Every module-level function and class of the library is named somewhere
other than its own definition: in the library's code, the benchmark or the
scripts.  A re-export from the package or a word in a library string is no
use.  Code that only the tests reach gets deleted, or moves into the tests,
unless it is listed below with the reason it stays."""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEARCHED = ("src", "perfbench", "scripts")
WORD = re.compile(r"[A-Za-z_]\w*")
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
PACKAGE_INIT = Path("src", "toriq", "__init__.py")

# Public API that only the package exports and the tests call, each with the
# reason it stays.
EXPORTED_ONLY = {
    "divisor_class": "the class of one boundary divisor, the basis the divisor class map "
                     "is defined on",
    "is_nef": "the nef test of a divisor class, next to is_ample and is_effective",
    "prune": "the paper's inverse of grafting",
    "evaluate": "the value of a quasimap at a point away from its basepoints",
}


def _docstrings(tree):
    """The docstring nodes of a module and of every function and class in it."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module,) + DEFS) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                out.add(first.value)
    return out


def _names(node, docstrings, strings):
    """Identifiers that a syntax tree refers to: names, attributes, imported
    names and, with ``strings``, the words of its string constants other than
    docstrings (the benchmark lists what it traces as strings)."""
    names = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            names[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            names[sub.name.rsplit(".", 1)[-1]] += 1
        elif (strings and isinstance(sub, ast.Constant) and isinstance(sub.value, str)
              and sub not in docstrings):
            names.update(WORD.findall(sub.value))
    return names


def test_every_library_definition_is_used_outside_itself():
    uses = Counter()
    definitions = []  # (path, name, the names its own definition refers to)
    for top in SEARCHED:
        for path in sorted((ROOT / top).rglob("*.py")):
            rel = path.relative_to(ROOT)
            tree = ast.parse(path.read_text(), filename=str(path))
            docstrings = _docstrings(tree)
            if rel != PACKAGE_INIT:
                uses += _names(tree, docstrings, strings=top != "src")
            if top != "src":
                continue
            for node in tree.body:
                if isinstance(node, DEFS):
                    own = _names(node, docstrings, strings=False)[node.name]
                    definitions.append((rel, node.name, own))
    assert len(definitions) > 100
    unused = {name for path, name, own in definitions if uses[name] <= own}
    assert unused == set(EXPORTED_ONLY)
