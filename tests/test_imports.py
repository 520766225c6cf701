"""Every name the package, its tests and the benchmark harness import is
used where it is imported, and every name a package module exports in
__all__ is bound there."""

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
