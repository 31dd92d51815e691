"""Code lines of each ``src/gapcert`` module and in total.

    python3 tools/src_lines.py

Run from any directory.  A code line is a line of a module that holds a
token other than a comment, and that no docstring covers: the string that
opens a module, class or function body.  Blank lines, comment lines and
docstring lines do not count, so a change that only rewords or adds
documentation leaves the count alone.
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "gapcert"

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(text: str) -> int:
    """Number of lines of the module source ``text`` that hold code."""
    lines = set()
    for tok in tokenize.tokenize(io.BytesIO(text.encode("utf-8")).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.difference_update(range(first.lineno, first.end_lineno + 1))
    return len(lines)


def main() -> None:
    total = 0
    for path in sorted(SRC.glob("*.py")):
        n = code_lines(path.read_text(encoding="utf-8"))
        total += n
        print(f"{path.name:<16}{n:>6}")
    print(f"{'total':<16}{total:>6}")


if __name__ == "__main__":
    main()
