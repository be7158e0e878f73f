"""Count the lines of the Python sources under src/.

    python tools/src_lines.py [REF ...]

For each git ref, or for the working tree when none is given, prints the
total lines of src/'s .py files and their code lines: the lines that hold
a token other than a comment, with the lines of every docstring (the first
statement of a module, class or function, when it is a string) left out.
"""

from __future__ import annotations

import ast
import io
import subprocess
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The lines of ``source`` holding code, docstrings left out."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node) is not None:
            lines.difference_update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return len(lines)


def sources(ref: str | None) -> list[str]:
    """The text of every .py file under src/ at ``ref``, or in the working tree."""
    if ref is None:
        return [path.read_text(encoding="utf-8") for path in sorted(ROOT.glob("src/**/*.py"))]

    def git(*args: str) -> str:
        return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                              text=True).stdout

    names = git("ls-tree", "-r", "--name-only", ref, "--", "src").split("\n")
    return [git("show", f"{ref}:{name}") for name in names if name.endswith(".py")]


def main(refs: list[str]) -> None:
    for ref in refs or [None]:
        texts = sources(ref)
        total = sum(len(text.splitlines()) for text in texts)
        print(f"{ref or 'working tree'}: {total:,} lines, "
              f"{sum(map(code_lines, texts)):,} code lines")


if __name__ == "__main__":
    main(sys.argv[1:])
