"""Checks on the package source itself, read with ``ast``, and on the
test configuration."""

import ast
import math
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


def _package_trees() -> dict[str, ast.Module]:
    return {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(PACKAGE.glob("*.py"))}


def test_every_public_name_has_a_caller_in_the_package():
    assert _unused(_package_trees()) == [], "names with no caller in src/tempdyn (delete them, or move them to tests/)"


def test_a_public_constant_without_a_reader_is_reported():
    # a private name needs a reader too; a dunder is read by Python itself
    source = (
        "USED = 1\nUNUSED = 2\nLEFT, RIGHT = 3, 4\n_READ = 5\n_PRIVATE = 6\n__all__ = ['f']\n\n"
        "def f():\n    return USED + RIGHT + _READ\n"
    )
    assert _unused({"m.py": ast.parse(source)}) == ["m.py: UNUSED", "m.py: LEFT", "m.py: _PRIVATE", "m.py: f"]


def _unused_imports(trees: dict[str, ast.Module]) -> list[str]:
    """``file: name`` of each name an import binds that its module never
    reads; a name read only in an annotation is read."""
    unused = []
    for filename, tree in trees.items():
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    # `import a.b` binds a
                    bound = alias.asname or alias.name.partition(".")[0]
                    if bound not in read:
                        unused.append(f"{filename}: {bound}")
    return unused


def test_every_import_is_read_in_its_module():
    assert _unused_imports(_package_trees()) == [], "imports no code in their module reads (delete them)"


def test_an_import_without_a_reader_is_reported():
    source = (
        "from __future__ import annotations\n"
        "import os\nimport numpy as np\nimport a.b\nfrom x import y, z as w\n"
        "from typing import Optional\n\n"
        "def f(v: Optional[int]):\n    import json\n    return np.zeros(1), a.b, y\n"
    )
    assert _unused_imports({"m.py": ast.parse(source)}) == ["m.py: os", "m.py: w", "m.py: json"]


def _functions(module: ast.Module):
    """(qualified name, callee, node, bound) of each module-level function
    and each method of a module-level class: the name a call uses (the
    class's for its ``__init__``), and how many leading parameters a call
    does not pass (``self`` or ``cls``)."""
    for node in module.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node.name, node, 0
        elif isinstance(node, ast.ClassDef):
            for member in node.body:
                if not isinstance(member, ast.FunctionDef):
                    continue
                static = any(getattr(d, "id", None) == "staticmethod" for d in member.decorator_list)
                callee = node.name if member.name == "__init__" else member.name
                yield f"{node.name}.{member.name}", callee, member, 0 if static else 1


def _defaulted(node: ast.FunctionDef, bound: int):
    """(name, position) of each parameter with a default, its position
    counted among the arguments a call passes, infinite if keyword-only."""
    positional = node.args.posonlyargs + node.args.args
    first = len(positional) - len(node.args.defaults)
    for position, arg in enumerate(positional[first:], first - bound):
        yield arg.arg, position
    for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
        if default is not None:
            yield arg.arg, math.inf


def _calls(tree: ast.AST):
    """(callee name, positional arguments, keyword names) of each call, a
    ``functools.partial`` counted as a call of the function it binds. A
    starred argument passes every position, and ``**`` every keyword (the
    name None)."""
    def called(func: ast.expr):
        return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)

    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func, args = node.func, node.args
        if called(func) == "partial" and args:
            func, args = args[0], args[1:]
        count = math.inf if any(isinstance(arg, ast.Starred) for arg in args) else len(args)
        yield called(func), count, {keyword.arg for keyword in node.keywords}


def _unset_defaults(trees: dict[str, ast.Module], allowed=frozenset()) -> list[str]:
    """``file: function(parameter)`` of each defaulted parameter that no call
    in the trees passes, by keyword or by position."""
    calls = [call for tree in trees.values() for call in _calls(tree)]
    unset = []
    for filename, tree in trees.items():
        for qualified, callee, node, bound in _functions(tree):
            for name, position in _defaulted(node, bound):
                entry = f"{filename}: {qualified}({name})"
                passed = any(
                    called == callee and (name in keywords or None in keywords or count > position)
                    for called, count, keywords in calls
                )
                if not passed and entry not in allowed:
                    unset.append(entry)
    return unset


# the console script and bench/layers.py call main with argv and
# standalone_mode; nothing in the package does
_ENTRY_POINT_DEFAULTS = frozenset({"cli.py: main(argv)", "cli.py: main(standalone_mode)"})


def test_every_defaulted_parameter_has_a_caller_that_sets_it():
    assert _unset_defaults(_package_trees(), _ENTRY_POINT_DEFAULTS) == [], (
        "defaults no call in src/tempdyn overrides (make them constants, or pass them)"
    )


def test_a_default_no_call_sets_is_reported():
    # a class call passes its __init__'s arguments, a partial those it
    # binds, and a method call starts after self
    source = (
        "from functools import partial\n\n"
        "def f(a, b=1, c=2, *, d=3, e=4):\n    pass\n\n"
        "class K:\n"
        "    def __init__(self, x=0, y=0):\n        pass\n\n"
        "    def m(self, z=0, w=0):\n        pass\n\n"
        "def g(p=0):\n    pass\n\n"
        "def h(q=0, r=0):\n    pass\n\n"
        "f(0, 1, d=2)\nK(1)\nK().m(1)\npartial(h, 1)\ng(*())\n"
    )
    trees = {"m.py": ast.parse(source)}
    unset = ["m.py: f(c)", "m.py: f(e)", "m.py: K.__init__(y)", "m.py: K.m(w)", "m.py: h(r)"]
    assert _unset_defaults(trees) == unset
    assert _unset_defaults(trees, frozenset(unset[:2])) == unset[2:]


_STREAMS = {"stdout", "stderr"}


def _prints(trees: dict[str, ast.Module]) -> list[str]:
    """``file:line`` of each use of ``print`` and each read of ``sys.stdout``
    or ``sys.stderr``, as an attribute or an import."""
    found = []
    for filename, tree in trees.items():
        lines = set()
        for node in ast.walk(tree):
            if (
                (isinstance(node, ast.Name) and node.id == "print")
                or (
                    isinstance(node, ast.Attribute) and node.attr in _STREAMS
                    and getattr(node.value, "id", None) == "sys"
                )
                or (
                    isinstance(node, ast.ImportFrom) and node.module == "sys"
                    and any(alias.name in _STREAMS for alias in node.names)
                )
            ):
                lines.add(node.lineno)
        found += [f"{filename}:{line}" for line in sorted(lines)]
    return found


def test_only_the_cli_prints():
    # library modules report through return values and exceptions, so each
    # command reports in one place
    trees = {name: tree for name, tree in _package_trees().items() if name != "cli.py"}
    assert _prints(trees) == [], "output written outside cli.py (return or raise it instead)"


def test_a_print_outside_the_cli_is_reported():
    # a method named print, and another object's stdout, are not output
    source = (
        "import sys\nfrom sys import argv, stderr\n\n"
        "def f(log, proc):\n"
        "    print('x')\n    sys.stdout.write('y')\n    say = print\n"
        "    log.print('z')\n    return proc.stdout, sys.argv\n"
    )
    assert _prints({"m.py": ast.parse(source)}) == ["m.py:2", "m.py:5", "m.py:6", "m.py:7"]


def _opens_for_writing(call: ast.Call) -> bool:
    """Whether a call writes a file: ``.write_text``, ``.write_bytes``, or
    builtin ``open`` or a ``.open`` method with a mode holding w, a, x or
    +, a mode that is not a string literal counted as one. ``os.open``
    takes flags, not a mode, and is not matched."""
    func = call.func
    method = isinstance(func, ast.Attribute) and getattr(func.value, "id", None) != "os"
    if method and func.attr in {"write_text", "write_bytes"}:
        return True
    if isinstance(func, ast.Name) and func.id == "open":
        modes = call.args[1:2]
    elif method and func.attr == "open":
        modes = call.args[:1]
    else:
        return False
    modes += [keyword.value for keyword in call.keywords if keyword.arg == "mode"]
    return any(
        not isinstance(getattr(mode, "value", None), str) or bool(set(mode.value) & set("wax+"))
        for mode in modes
    )


def _file_writers(trees: dict[str, ast.Module]) -> list[str]:
    """``file: function`` of each module-level function or method whose
    body, nested functions included, writes a file."""
    found = []
    for filename, tree in trees.items():
        for qualified, _, node, _ in _functions(tree):
            if any(isinstance(call, ast.Call) and _opens_for_writing(call) for call in ast.walk(node)):
                found.append(f"{filename}: {qualified}")
    return found


def test_only_staged_writes_files():
    # every output file is bytes staged in a temp file and renamed, in one place
    assert _file_writers(_package_trees()) == ["series.py: staged"], (
        "a file written outside series.staged (pass its bytes there instead)"
    )


def test_a_file_write_outside_staged_is_reported():
    # reads are not writes, and neither is os.open; a mode the check cannot
    # read is taken for a write
    source = (
        "import os\nfrom pathlib import Path\n\n"
        "def reads(p):\n"
        "    with open(p) as f, open(p, 'rb') as g, Path(p).open(mode='r') as h:\n"
        "        return f, g, h, Path(p).read_bytes(), os.open(os.devnull, os.O_WRONLY)\n\n"
        "def truncates(p):\n    return open(p, 'w', encoding='utf-8')\n\n"
        "def appends(p):\n    return open(p, mode='ab')\n\n"
        "def creates(p):\n    return open(p, 'x')\n\n"
        "def updates(p):\n    return Path(p).open('r+b')\n\n"
        "def unknown(p, mode):\n    return open(p, mode)\n\n"
        "def texts(p):\n    Path(p).write_text('x')\n\n"
        "class K:\n"
        "    def save(self, p):\n"
        "        def inner():\n            p.write_bytes(b'x')\n\n"
        "        inner()\n"
    )
    assert _file_writers({"m.py": ast.parse(source)}) == [
        "m.py: truncates", "m.py: appends", "m.py: creates", "m.py: updates", "m.py: unknown",
        "m.py: texts", "m.py: K.save",
    ]


_RENAMES = {"replace", "rename", "renames"}


def _renamers(trees: dict[str, ast.Module]) -> list[str]:
    """``file: function`` of each module-level function or method whose
    body, nested functions included, calls ``os.replace``, ``os.rename``
    or ``os.renames``, as an attribute of ``os`` or a name imported from
    it. A ``replace`` method of another object (``str.replace``) is not
    matched, so ``Path.replace`` and ``Path.rename`` are not either."""
    found = []
    for filename, tree in trees.items():
        imported = {
            alias.asname or alias.name
            for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.module == "os"
            for alias in node.names if alias.name in _RENAMES
        }
        for qualified, _, node, _ in _functions(tree):
            for call in ast.walk(node):
                func = getattr(call, "func", None)
                if (
                    isinstance(func, ast.Attribute) and func.attr in _RENAMES
                    and getattr(func.value, "id", None) == "os"
                ) or (isinstance(func, ast.Name) and func.id in imported):
                    found.append(f"{filename}: {qualified}")
                    break
    return found


def test_only_staged_renames_files():
    # a command's files are published by one rename loop, so no file lands
    # outside the staging that keeps a failed command's outputs as they were
    assert _renamers(_package_trees()) == ["series.py: staged"], (
        "a file renamed outside series.staged (stage it there instead)"
    )


def test_a_rename_outside_staged_is_reported():
    # a string's replace is not a rename; an imported os function is one
    source = (
        "import os\nfrom os import rename as move, path\n\n"
        "def text(s):\n    return s.replace('a', 'b'), path.join(s)\n\n"
        "def replaces(a, b):\n    os.replace(a, b)\n\n"
        "def renames(a, b):\n    os.renames(a, b)\n\n"
        "def moves(a, b):\n    move(a, b)\n\n"
        "class K:\n"
        "    def publish(self, a, b):\n"
        "        def inner():\n            os.rename(a, b)\n\n"
        "        inner()\n"
    )
    assert _renamers({"m.py": ast.parse(source)}) == [
        "m.py: replaces", "m.py: renames", "m.py: moves", "m.py: K.publish",
    ]


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
