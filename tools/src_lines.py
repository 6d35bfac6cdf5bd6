"""Line counts of a checkout's ``src/`` tree.

Prints one JSON line: ``total``, every line of every ``*.py`` file under
``src/``; ``code``, the lines that hold a token other than a comment or a
docstring; and ``modules``, both counts of each file, keyed by its path
under ``src/`` (for example ``vlmlab/vision.py``).
A docstring is the string that opens a module, class or function body.  A
token spanning several lines, such as a multi-line string that is not a
docstring, counts on each of them.  Editing comments or docstrings moves
``total`` but not ``code``, so a fall in ``code`` is a fall in program text.

Usage, from anywhere:

    python3 tools/src_lines.py [--root CHECKOUT]

``--root`` names the checkout whose ``src/`` is counted, by default the one
holding this script.
"""

from __future__ import annotations

import argparse
import ast
import io
import json
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
             tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_starts(tree: ast.AST) -> set[tuple[int, int]]:
    """The (line, column) at which each docstring of ``tree`` starts."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                starts.add((body[0].lineno, body[0].col_offset))
    return starts


def count(text: str) -> dict[str, int]:
    """The total and code lines of one file's ``text``."""
    docstrings = _docstring_starts(ast.parse(text))
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type in _NOT_CODE:
            continue
        if token.type == tokenize.STRING and token.start in docstrings:
            continue
        code.update(range(token.start[0], token.end[0] + 1))
    return {"total": len(text.splitlines()), "code": len(code)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent)
    args = parser.parse_args(argv)
    src = args.root / "src"
    modules = {path.relative_to(src).as_posix(): count(path.read_text(encoding="utf-8"))
               for path in sorted(src.rglob("*.py"))}
    totals = {key: sum(counts[key] for counts in modules.values()) for key in ("total", "code")}
    print(json.dumps({**totals, "modules": modules}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
