"""Count the code lines of Python files.

A code line holds a token other than a comment or a newline and is not part
of a docstring (the first statement of a module, class or function, when it
is a string). Blank lines, comment-only lines and docstring lines do not
count; a line of code with a trailing comment does.

Run it on files or directories (searched for ``*.py``)::

    python tests/code_lines.py src/tetrascale
    python tests/code_lines.py src/tetrascale/interpolate.py

It prints each file's count and, for more than one file, the total.
"""

import ast
import sys
import tokenize
from pathlib import Path

#: Tokens that do not make a line a code line.
_IGNORED = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}

_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(source: str) -> set[int]:
    """The line numbers that docstrings occupy in ``source``."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """The number of code lines in the Python file ``path``."""
    source = path.read_text()
    lines = set()
    with path.open("rb") as f:
        for token in tokenize.tokenize(f.readline):
            if token.type not in _IGNORED:
                lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(source))


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    files = []
    for arg in map(Path, argv):
        files += sorted(arg.rglob("*.py")) if arg.is_dir() else [arg]
    total = 0
    for path in files:
        count = code_lines(path)
        total += count
        print(f"{count:6d}  {path}")
    if len(files) > 1:
        print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
