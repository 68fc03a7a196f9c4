#!/usr/bin/env python3
"""Count the lines of each ``src/gridlander`` module by kind.

    python3 scripts/src_lines.py [SRC_DIR]

prints one row per module and a total: code, docstring, comment-only and
physical lines. The kinds do not overlap, and a blank line outside a
docstring is in none of them, so code + docstring + comment-only + those
blank lines = physical.

- *docstring*: every line of a module, class or function docstring (the
  string that is the body's first statement), found with ``ast``;
- *comment-only*: a line whose only token is a comment;
- *code*: any other line that holds a token, found with ``tokenize``.
  A line of code with a trailing comment is code.

SRC_DIR defaults to this checkout's ``src/gridlander``; point it at
another checkout's to compare two trees.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

COLUMNS = ("code", "docstring", "comment-only", "physical")
LAYOUT = (tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER)


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers every docstring in ``tree`` spans."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> dict[str, int]:
    """The line counts of one module's ``source``, keyed by ``COLUMNS``."""
    docs = docstring_lines(ast.parse(source))
    code, comments = set(), set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            comments.add(tok.start[0])
        elif tok.type not in LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    code -= docs
    return {"code": len(code), "docstring": len(docs), "comment-only": len(comments - code - docs),
            "physical": len(source.splitlines())}


def main(argv: list[str]) -> int:
    src = Path(argv[0]) if argv else Path(__file__).resolve().parents[1] / "src" / "gridlander"
    modules = sorted(src.glob("*.py"))
    if not modules:
        print(f"src_lines: no Python modules in {src}", file=sys.stderr)
        return 2
    total = dict.fromkeys(COLUMNS, 0)
    print(f"{'module':<16}" + "".join(f"{c:>14}" for c in COLUMNS))
    for path in modules:
        counts = count(path.read_text(encoding="utf-8"))
        for c in COLUMNS:
            total[c] += counts[c]
        print(f"{path.name:<16}" + "".join(f"{counts[c]:>14,}" for c in COLUMNS))
    print(f"{'total':<16}" + "".join(f"{total[c]:>14,}" for c in COLUMNS))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
