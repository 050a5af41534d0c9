"""Count the code-only lines of a Python source tree.

A line counts when it carries a code token.  Blank lines, comment-only
lines and the docstrings of modules, classes and functions do not; a
statement that spans several lines counts every line it spans.

    python tools/code_lines.py [ROOT]      # ROOT defaults to src/repro

prints the per-package totals (a top-level module is its own row) and
the total.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from collections import Counter
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree: ast.AST) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _DOCUMENTED) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code-only lines in ``source``."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def count_tree(root: Path) -> Counter:
    """Code-only lines per package (or top-level module) under ``root``."""
    totals: Counter = Counter()
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root)
        totals[rel.parts[0]] += code_lines(path.read_text(encoding="utf-8"))
    return totals


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    root = Path(args[0] if args else "src/repro")
    totals = count_tree(root)
    for name, n in totals.most_common():
        print(f"{name:<16}{n:>7}")
    print(f"{'total':<16}{sum(totals.values()):>7}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
