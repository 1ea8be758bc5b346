"""Count code lines per module: non-blank lines outside comments and docstrings.

A line counts when it holds at least one token that is not a comment, a
line break or an indentation change, and lies outside every module,
class and function docstring (found with ``ast``).  Prints one line per
module and the total for each directory given (default ``src/ampso``).
Standard library only.

    python3 tools/code_lines.py [DIRECTORY ...]
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.AST) -> set[int]:
    """Line numbers covered by docstrings anywhere in the module."""
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        first = node.body[0] if node.body else None
        if (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
        ):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    source = path.read_text(encoding="utf-8")
    skip = docstring_lines(ast.parse(source, filename=str(path)))
    lines = set()
    with path.open("rb") as handle:
        for token in tokenize.tokenize(handle.readline):
            if token.type not in _LAYOUT:
                lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - skip)


def main(argv: list[str]) -> int:
    for directory in argv or ["src/ampso"]:
        total = 0
        for path in sorted(Path(directory).rglob("*.py")):
            count = code_lines(path)
            total += count
            print(f"{count:6d}  {path}")
        print(f"{total:6d}  {directory} (total)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
