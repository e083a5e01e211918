"""Every public name in the package has a client outside the unit tests.

A public top-level function, class or constant of ``src/qdssim``, or a
public method of such a class, counts as used when some module of the
package other than ``__init__`` refers to it outside its own
definition, or when the benchmark (``perfbench/*.py``) or the acceptance
gate (``tests/test_acceptance.py``) does. A reference is an ``ast.Name``, an
``ast.Attribute`` or an import alias with that name; names are matched by
spelling, not resolved. Code whose only client is its own unit test
fails here; it belongs in ``tests/`` as an oracle, or nowhere.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "qdssim"
CLIENTS = [*sorted((ROOT / "perfbench").glob("*.py")), ROOT / "tests" / "test_acceptance.py"]


def public_definitions(tree: ast.Module):
    """(qualified name, node) of each public top-level function, class,
    method and constant; a constant's node is its whole assignment."""
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and not name.id.startswith("_"):
                        yield name.id, node
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                        yield f"{node.name}.{member.name}", member


def referenced_names(tree: ast.AST, outside: ast.AST | None = None) -> set[str]:
    """Names that ``tree`` refers to, skipping the subtree ``outside``."""
    skipped = {id(n) for n in ast.walk(outside)} if outside is not None else set()
    names = set()
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
    return names


def names_without_a_client(modules: dict[str, str], clients: list[str]) -> list[str]:
    """Public names of ``modules`` (stem to source) that no other module,
    no code of their own module outside their definition, and no client
    source refers to."""
    trees = {stem: ast.parse(source) for stem, source in modules.items()}
    external = set().union(*(referenced_names(ast.parse(source)) for source in clients))
    unused = []
    for stem, tree in trees.items():
        elsewhere = external.union(*(referenced_names(t) for s, t in trees.items() if s != stem))
        for name, node in public_definitions(tree):
            short = name.rpartition(".")[2]
            if short not in elsewhere and short not in referenced_names(tree, outside=node):
                unused.append(f"{stem}.{name}")
    return unused


def test_every_public_name_has_a_client_outside_the_unit_tests():
    modules = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"}
    assert names_without_a_client(modules, [p.read_text() for p in CLIENTS]) == []


def test_the_guard_flags_names_that_only_refer_to_themselves():
    modules = {
        "a": (
            "def used():\n    return helper()\n\n"
            "def helper():\n    return 1\n\n"
            "def lonely():\n    return lonely()\n\n"
            "class Box:\n    def open(self):\n        return self.open()\n\n"
            "    def _private(self):\n        pass\n"
        ),
        "b": "from a import used\n",
    }
    assert names_without_a_client(modules, ["x = a.Box()\n"]) == ["a.lonely", "a.Box.open"]
    assert names_without_a_client(modules, ["x = a.Box().open()\n"]) == ["a.lonely"]


def test_the_guard_flags_constants_that_nothing_reads():
    modules = {
        "a": (
            "LIMIT = 3\n"
            "UNREAD = LIMIT + 1\n"
            "LOW, HIGH = 0, 1\n"
            "TYPED: int = 2\n"
            "_HIDDEN = 4\n\n"
            "def used():\n    return HIGH\n"
        ),
        "b": "from a import used\n",
    }
    assert names_without_a_client(modules, []) == ["a.UNREAD", "a.LOW", "a.TYPED"]
    assert names_without_a_client(modules, ["print(a.TYPED, a.LOW)\n"]) == ["a.UNREAD"]
