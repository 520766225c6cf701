"""Every name the package, its tests and the benchmark harness import is
used where it is imported, every name a package module exports in
__all__ is bound there, and no function of the package or the harness
assigns a local it never reads."""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# everything an __init__.py imports is a re-export, so those files are left out
SOURCES = sorted(
    p
    for d in ("src/vttag", "tests", "bench")
    for p in (ROOT / d).glob("*.py")
    if p.name != "__init__.py"
)
FUNCTION_SOURCES = sorted(p for d in ("src/vttag", "bench") for p in (ROOT / d).glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """'line: name' for each imported name that the module never uses.

    A name counts as used when the module reads it, names it in a string
    annotation or lists it in __all__. `from __future__` imports are
    directives, not names.
    """
    imported = {}
    used = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign, ast.FunctionDef, ast.AsyncFunctionDef)):
            function = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            note = node.returns if function else node.annotation
            for part in ast.walk(note) if note is not None else ():
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    named = ast.walk(ast.parse(part.value, mode="eval"))
                    used |= {n.id for n in named if isinstance(n, ast.Name)}
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    by_line = sorted(imported.items(), key=lambda kv: kv[1])
    return [f"{line}: {name}" for name, line in by_line if name not in used]


def dead_locals(source: str) -> list[str]:
    """'line: name' for each name a function binds by plain assignment and
    never reads.

    A read anywhere in the function counts, in a nested function too, and
    so does an augmented assignment. Names that start with "_" and the
    targets of tuple unpacking are exempt.
    """
    dead = set()
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        read = set()
        for node in ast.walk(fn):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name):
                read.add(node.target.id)
        for node in ast.walk(fn):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    name = getattr(target, "id", None)  # None for a tuple or an attribute
                    if name and not name.startswith("_") and name not in read:
                        dead.add((node.lineno, name))
    return [f"{line}: {name}" for line, name in sorted(dead)]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize(
    "module", sorted(p.stem for p in (ROOT / "src" / "vttag").glob("*.py"))
)
def test_all_names_are_bound(module):
    mod = importlib.import_module("vttag" if module == "__init__" else f"vttag.{module}")
    assert [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)] == []


def test_unused_import_check_honours_its_exemptions():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from typing import Optional\n"
        "from json import dumps, loads\n"
        "from math import pi\n"
        "from pathlib import Path\n"
        "__all__ = ['pi']\n"
        "def f(x: 'Optional[int]') -> 'Path':\n"
        "    '''dumps'''\n"
        "    return np.zeros(3), loads\n"
    )
    assert unused_imports(source) == ["2: os", "5: dumps"]


@pytest.mark.parametrize("path", FUNCTION_SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_dead_locals(path):
    assert dead_locals(path.read_text()) == []


def test_dead_local_check_honours_its_exemptions():
    source = (
        "limit = 3\n"
        "def f(pair):\n"
        "    a, b = pair\n"
        "    _scratch = 1\n"
        "    unread = 2\n"
        "    total = 0\n"
        "    total += a\n"
        "    seen = 4\n"
        "    def g():\n"
        "        local = seen\n"
        "        return seen\n"
        "    return g()\n"
    )
    assert dead_locals(source) == ["5: unread", "10: local"]
