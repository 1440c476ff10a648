"""Print the lines and the code lines of the package source.

Code lines leave out blank lines, comment lines and docstrings (the leading
string of a module, class or function).  One count serves every quote of the
line budget: tokenize names the lines that hold code, ast names the lines
that hold docstrings.

    python tools/src_lines.py [directory]

The directory defaults to src/hgtensor beside this script's parent.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers that the docstrings of a parsed module span."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, DOCUMENTED) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """(lines, code lines) of one module's source."""
    code: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in NOT_CODE:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(source.splitlines()), len(code - docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent.parent / "src" / "hgtensor"
    totals = [count(path.read_text(encoding="utf-8")) for path in sorted(root.rglob("*.py"))]
    lines, code = (sum(column) for column in zip(*totals)) if totals else (0, 0)
    print(f"{root.name}: {lines} lines, {code} code lines")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
