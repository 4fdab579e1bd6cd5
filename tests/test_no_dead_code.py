"""Every module-level function and class of the library, and every method and
property of its classes other than dunders, is named somewhere other than its
own definition: in the library's code, the benchmark or the scripts.  A
re-export from the package or a word in a library string is no use.  Code
that only the tests reach gets deleted, or moves into the tests, unless it is
listed below with the reason it stays.  No module of the library, the tests or
the scripts imports a name it never uses; the package's re-exports are
exempt."""

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
    "is_nef": "the nef test of a divisor class, next to is_ample and is_effective",
    "prune": "the paper's inverse of grafting",
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
                if not isinstance(node, DEFS):
                    continue
                members = node.body if isinstance(node, ast.ClassDef) else ()
                for defn in [node, *members]:
                    if isinstance(defn, DEFS) and not _is_dunder(defn.name):
                        own = _names(defn, docstrings, strings=False)[defn.name]
                        definitions.append((rel, defn.name, own))
    assert len(definitions) > 200
    unused = {name for path, name, own in definitions if uses[name] <= own}
    assert unused == set(EXPORTED_ONLY)


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _unused_imports(tree):
    """The names a module imports and never refers to, sorted."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_no_module_imports_a_name_it_never_uses():
    unused = {}
    for top in ("src", "tests", "scripts"):
        for path in sorted((ROOT / top).rglob("*.py")):
            rel = path.relative_to(ROOT)
            names = _unused_imports(ast.parse(path.read_text(), filename=str(path)))
            if names and rel != PACKAGE_INIT:
                unused[str(rel)] = names
    assert unused == {}
