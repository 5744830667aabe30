"""Checks on the package source itself, read with ``ast``, and on the
test configuration."""

import ast
import subprocess
import sys
from pathlib import Path

import tempdyn

PACKAGE = Path(tempdyn.__file__).parent
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _definitions(module: ast.Module):
    """(qualified name, node) of each module-level constant, function or
    class, public or private but not a dunder, and each public method of a
    module-level class."""
    for node in module.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names = target.elts if isinstance(target, ast.Tuple) else [target]
                for name in names:
                    if isinstance(name, ast.Name) and not _dunder(name.id):
                        yield name.id, node
            continue
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or _dunder(node.name):
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
    """``file: name`` of each definition no other code of the trees uses."""
    references = [ref for tree in trees.values() for ref in _references(tree)]
    unused = []
    for filename, tree in trees.items():
        for qualified, node in _definitions(tree):
            # a use inside the definition itself (recursion, or a constant's
            # own assignment) does not count
            inside = {id(n) for n in ast.walk(node)}
            name = qualified.rpartition(".")[2]
            if not any(ref == name and id(at) not in inside for ref, at in references):
                unused.append(f"{filename}: {qualified}")
    return unused


def test_every_public_name_has_a_caller_in_the_package():
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(PACKAGE.glob("*.py"))}
    assert _unused(trees) == [], "names with no caller in src/tempdyn (delete them, or move them to tests/)"


def test_a_public_constant_without_a_reader_is_reported():
    # a private name needs a reader too; a dunder is read by Python itself
    source = (
        "USED = 1\nUNUSED = 2\nLEFT, RIGHT = 3, 4\n_READ = 5\n_PRIVATE = 6\n__all__ = ['f']\n\n"
        "def f():\n    return USED + RIGHT + _READ\n"
    )
    assert _unused({"m.py": ast.parse(source)}) == ["m.py: UNUSED", "m.py: LEFT", "m.py: _PRIVATE", "m.py: f"]


def test_a_failing_hypothesis_test_reports_its_example_and_the_run_goes_on(tmp_path):
    # Under the repository's pytest settings (every warning an error), a
    # failing @given test must print its falsifying example, and the tests
    # after it must still run. hypothesis's plugin loads libcst for the
    # report where it is installed, whose import warned.
    (tmp_path / "test_probe.py").write_text(
        "from hypothesis import given, strategies as st\n\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x < 5\n\n"
        "def test_after():\n"
        "    pass\n"
    )
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in result.stdout + result.stderr
    assert "Falsifying example" in result.stdout
    assert "1 failed, 1 passed" in result.stdout
