"""``tools/code_lines.py``: what counts as a code-only line."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment keeps its line

# a comment-only line


class A:
    """Class docstring."""

    x = 1


def f(a,
      b):
    \'\'\'Function docstring.\'\'\'
    total = (a +
             b)
    s = """a string that is
    not a docstring"""
    return total, s


async def g():
    "one-line async docstring"
'''


def test_drops_blanks_comments_and_docstrings():
    # kept: import, class A, x = 1, def f (2 lines), total (2 lines),
    # the assigned string (2 lines), return, async def g.
    assert code_lines.code_lines(SOURCE) == 11


def test_a_docstring_only_module_has_no_code():
    assert code_lines.code_lines('"""Only a docstring."""\n\n# and a comment\n') == 0


def test_counts_per_package(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text("x = 1\n\ny = 2\n")
    (tmp_path / "pkg" / "b.py").write_text('"""doc"""\nz = 3\n')
    (tmp_path / "top.py").write_text("w = (1,\n     2)\n")
    assert code_lines.count_tree(tmp_path) == {"pkg": 3, "top.py": 2}
