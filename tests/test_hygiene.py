"""Source hygiene of the package: no module imports a name it never uses, and
``from g2flop import *`` resolves every name in ``__all__``.

Deleting a function or a class leaves its imports behind unless something
looks; these checks read each module's syntax tree with the standard ``ast``
module, so they need no linter.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import g2flop

MODULES = sorted(Path(g2flop.__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement of ``source`` that nothing reads.

    A name counts as read when it appears as an identifier anywhere in the
    module, or as a string in the module's ``__all__``.  ``__future__``
    imports are directives, not names, and are skipped.
    """
    tree = ast.parse(source)
    imported: list[str] = []
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_module_imports_a_name_it_never_uses(path):
    assert unused_imports(path.read_text()) == []


def test_the_unused_import_check_finds_one():
    # Negative control: the check must see an unused name of each import
    # form, and count a name read only through __all__ as used.
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import re as regex\n"
        "from math import gcd, prod\n"
        "from typing import Optional\n"
        "__all__ = ['Optional']\n"
        "def f(x: int) -> int:\n"
        "    return prod([x])\n"
    )
    assert unused_imports(source) == ["os", "regex", "gcd"]


def test_star_import_resolves_every_name_in_all():
    namespace: dict = {}
    exec("from g2flop import *", namespace)
    assert len(set(g2flop.__all__)) == len(g2flop.__all__)
    missing = [name for name in g2flop.__all__ if name not in namespace]
    assert missing == []
