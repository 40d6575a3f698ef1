"""Count the code lines of ``src/liebrackets``: no blank, comment or docstring lines.

Usage, from the repository root:

    python mutants/codelines.py

A line counts when a token of code starts on it or runs through it, so
every line of a statement or string that spans several lines counts; a
comment, a newline or an indentation change is not a token of code.  The
lines of a docstring (the leading string of the module, of a class or of a
function, found by ``ast``) do not count.  The script prints each module's
count, then the total.
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "liebrackets"
NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(text: str) -> int:
    """The number of code lines of the Python source ``text``."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(text)):
        first = node.body[0] if isinstance(node, SCOPES) and node.body else None
        if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
            lines.difference_update(range(first.lineno, first.end_lineno + 1))
    return len(lines)


def main() -> None:
    total = 0
    for path in sorted(SRC.rglob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{path.relative_to(SRC).as_posix():20} {count:5}")
    print(f"{'total':20} {total:5}")


if __name__ == "__main__":
    main()
