"""Source hygiene of the package: no module imports a name it never uses, no
module reads another object's private attribute, and ``from g2flop import *``
resolves every name in ``__all__``.

Deleting a function or a class leaves its imports behind unless something
looks; these checks read each module's syntax tree with the standard ``ast``
module, so they need no linter.

Run as a script, ``PYTHONPATH=src python tests/test_hygiene.py`` prints each
module's code lines, with docstrings, comments and blank lines excluded, and
their total.
"""

from __future__ import annotations

import ast
import io
import tokenize
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


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
#: The owners through which a class reads its own private attributes.
OWN = ("self", "cls")


def private_reads(source: str) -> list[str]:
    """Every ``owner._name`` in ``source`` whose owner is not ``self`` or
    ``cls``, as ``"function: owner._name"``; dunders are not private."""
    found: list[str] = []

    def visit(node: ast.AST, where: str) -> None:
        if isinstance(node, FUNCTIONS):
            where = node.name
        elif (
            isinstance(node, ast.Attribute)
            and node.attr.startswith("_")
            and not (node.attr.startswith("__") and node.attr.endswith("__"))
            and not (isinstance(node.value, ast.Name) and node.value.id in OWN)
        ):
            found.append(f"{where}: {ast.unparse(node)}")
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return found


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_module_reads_a_private_attribute_of_another_object(path):
    # A decision that a second module must read belongs behind one module:
    # the Bott kernel's tables are weylbott's, not fields of the root system.
    assert private_reads(path.read_text()) == []


def test_the_private_read_check_finds_one():
    # Negative control: reads through self and cls and dunders pass, a
    # private read through any other owner is named with its function.
    source = (
        "class A:\n"
        "    def f(self, other):\n"
        "        return self._x, other._y, type(self).__name__\n"
        "    @classmethod\n"
        "    def g(cls):\n"
        "        return cls._z\n"
        "def h(rs):\n"
        "    return rs._w, rs.v, rs.__dict__, h.__wrapped__\n"
        "top = A()._private\n"
    )
    found = ["f: other._y", "h: rs._w", "<module>: A()._private"]
    assert private_reads(source) == found


#: Tokens that make no line a code line.
_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def code_lines(source: str) -> int:
    """Lines of ``source`` that hold code: a line counts when a token other
    than a comment or a line break lies on it, and no docstring line counts.

    A docstring is a string statement opening a module, class or function
    body, as ``ast`` finds it; every other string counts on each line it
    spans."""
    docstrings: set[int] = set()
    for node in ast.walk(ast.parse(source)):
        body = getattr(node, "body", None)
        if (
            isinstance(node, (ast.Module, ast.ClassDef, *FUNCTIONS))
            and body
            and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)
        ):
            docstrings.update(range(body[0].lineno, body[0].end_lineno + 1))
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def test_code_lines_skip_docstrings_comments_and_blank_lines():
    source = (
        '"""Module docstring,\n'
        'two lines."""\n'
        "\n"
        "# a comment\n"
        "class A:\n"
        '    """Class docstring."""\n'
        "    def f(self, x):\n"
        '        """One-line docstring."""\n'
        "        y = '''a string\n"
        "of two lines'''  # a trailing comment\n"
        "\n"
        "        return (x,\n"
        "                y)\n"
    )
    # class, def, the two lines of the string and the two of the return
    assert code_lines(source) == 6


def test_star_import_resolves_every_name_in_all():
    namespace: dict = {}
    exec("from g2flop import *", namespace)
    assert len(set(g2flop.__all__)) == len(g2flop.__all__)
    missing = [name for name in g2flop.__all__ if name not in namespace]
    assert missing == []


if __name__ == "__main__":
    counts = {path.name: code_lines(path.read_text()) for path in MODULES}
    for name, count in counts.items():
        print(f"{count:6d} {name}")
    print(f"{sum(counts.values()):6d} code lines in total")
