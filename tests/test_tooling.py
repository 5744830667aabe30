"""Checks on the package source itself, read with ``ast``."""

import ast
from pathlib import Path

import tempdyn

PACKAGE = Path(tempdyn.__file__).parent


def _public_definitions(module: ast.Module):
    """(qualified name, node) of each public module-level constant, function
    or class and each public method of a module-level class."""
    for node in module.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names = target.elts if isinstance(target, ast.Tuple) else [target]
                for name in names:
                    if isinstance(name, ast.Name) and not name.id.startswith("_"):
                        yield name.id, node
            continue
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        yield node.name, node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                    yield f"{node.name}.{member.name}", member


def _references(tree: ast.AST):
    """(name, node) of every name a tree loads, reads as an attribute or imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node
        elif isinstance(node, ast.Attribute):
            yield node.attr, node
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node


def _unused(trees: dict[str, ast.Module]) -> list[str]:
    """``file: name`` of each public definition no other code of the trees uses."""
    references = [ref for tree in trees.values() for ref in _references(tree)]
    unused = []
    for filename, tree in trees.items():
        for qualified, node in _public_definitions(tree):
            # a use inside the definition itself (recursion, or a constant's
            # own assignment) does not count
            inside = {id(n) for n in ast.walk(node)}
            name = qualified.rpartition(".")[2]
            if not any(ref == name and id(at) not in inside for ref, at in references):
                unused.append(f"{filename}: {qualified}")
    return unused


def test_every_public_name_has_a_caller_in_the_package():
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(PACKAGE.glob("*.py"))}
    assert _unused(trees) == [], "public names with no caller in src/tempdyn (move them to tests/)"


def test_a_public_constant_without_a_reader_is_reported():
    source = "USED = 1\nUNUSED = 2\nLEFT, RIGHT = 3, 4\n_PRIVATE = 5\n\ndef f():\n    return USED + RIGHT\n"
    assert _unused({"m.py": ast.parse(source)}) == ["m.py: UNUSED", "m.py: LEFT", "m.py: f"]
