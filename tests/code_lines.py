"""Count the code lines of each src/loopnet module, and their total.

    python tests/code_lines.py

A code line is a line that holds some token other than a comment, outside
every docstring (the first statement of a module, class or function, when
it is a string): blank lines, comment lines and docstrings do not count,
and each line of a multi-line token counts.  Lines are found with tokenize,
docstrings with ast.  It prints one "<count> <module>" line per module and
then "<count> total".  It reports and gates nothing.  pytest does not
collect it (the name does not match test_*.py).
"""

import ast
import io
import pathlib
import sys
import tokenize

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "loopnet"
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(text: str) -> int:
    """The number of code lines in the Python source text."""
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, SCOPES) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def main() -> int:
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:5} {path.name}")
    print(f"{total:5} total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
