"""src/ holds what the commands run.

Every module-level public function or class in ``src/phononbus`` must be
referenced by some module of the package other than through its own
definition and the ``phononbus/__init__.py`` re-export. Code that only tests
use belongs in ``tests/``, next to them (as ``no_jump_reference.py`` and
``spin_reference.py`` are).
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "phononbus"

# (module, name) -> why it stays without a caller in the package
ALLOWED = {
    ("device", "write_field_profile"): "the v1 profile writer; the benchmark writes its meshes with it",
}


def _top_level_owner(tree: ast.Module):
    """Yield (node, name of the top-level definition enclosing it, or None) for every node."""
    for top in tree.body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) else None
        for node in ast.walk(top):
            yield node, owner


def _referenced_names(node: ast.AST) -> list[str]:
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, ast.ImportFrom):
        return [alias.name for alias in node.names]
    return []


def unreferenced_public_names() -> list[tuple[str, str]]:
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}
    defined = [
        (module, node.name)
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    ]
    # (module, enclosing top-level definition) of every use of each name, outside __init__
    uses: dict[str, set[tuple[str, str | None]]] = {}
    for module, tree in trees.items():
        if module == "__init__":
            continue
        for node, owner in _top_level_owner(tree):
            for name in _referenced_names(node):
                uses.setdefault(name, set()).add((module, owner))
    return [
        (module, name)
        for module, name in defined
        if not uses.get(name, set()) - {(module, name)}
    ]


def test_every_public_name_in_src_has_a_caller_in_src():
    unused = [key for key in unreferenced_public_names() if key not in ALLOWED]
    assert unused == [], f"public names no src/ module uses (move them to tests/ or delete them): {unused}"


def test_every_allowed_entry_is_still_needed():
    assert set(ALLOWED) <= set(unreferenced_public_names())


def test_no_module_imports_a_private_name_from_another():
    """A name another module needs is public: ``from .module import _name`` fails here."""
    private = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.level > 0 or (node.module or "").startswith("phononbus")):
                # a dunder such as __version__ is public
                private += [
                    f"{path.stem}: {alias.name}" for alias in node.names
                    if alias.name.startswith("_") and not alias.name.endswith("__")
                ]
    assert private == []
