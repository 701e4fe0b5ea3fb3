"""Count code lines: non-blank, with comments and docstrings left out.

The measure simplicity changes report (see ROADMAP.md, design quality).
Usage: ``python benchmarks/code_lines.py PATH [PATH ...]`` — files or
directories (searched for ``*.py``); prints one count per file, then the
total.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
_HAS_DOCSTRING = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    """Lines holding a code token, minus docstrings and blank string lines."""
    text = source.splitlines()
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _HAS_DOCSTRING) and node.body and ast.get_docstring(node, False):
            lines.difference_update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return sum(1 for n in lines if n <= len(text) and text[n - 1].strip())


def main(paths) -> int:
    files = sorted(f for p in map(Path, paths) for f in ([p] if p.is_file() else p.rglob("*.py")))
    total = 0
    for path in files:
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:7d}  {path}")
    print(f"{total:7d}  total")
    return total


if __name__ == "__main__":
    main(sys.argv[1:] or ["src/repro"])
