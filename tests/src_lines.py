"""Line counts of the package source, one line per module and a total.

Each module gets its total lines and its code lines: the lines that hold
a token of code, by ``tokenize``, so docstrings, comments and blank
lines are not counted.  A docstring is a string that is a statement of
its own; a string inside code counts on every line it spans.  Run from
the repository root::

    python tests/src_lines.py [SRC_DIR]

SRC_DIR defaults to the ``src`` directory beside this file's folder.
"""

import sys
import tokenize
from pathlib import Path

# tokens that end or open a statement, and carry no code of their own
BOUNDARY = {
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def code_lines(path: Path) -> int:
    """The number of lines of ``path`` that hold a token of code."""
    with path.open("rb") as f:
        tokens = tokenize.tokenize(f.readline)
        tokens = [t for t in tokens if t.type not in (tokenize.COMMENT, tokenize.NL)]
    lines = set()
    for before, tok, after in zip(tokens, tokens[1:], tokens[2:]):
        if tok.type in BOUNDARY:
            continue
        if tok.type == tokenize.STRING and before.type in BOUNDARY and after.type in BOUNDARY:
            continue  # a docstring, or a bare string statement
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    src = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent.parent / "src"
    total = code = 0
    for path in sorted(src.rglob("*.py")):
        n, c = len(path.read_text().splitlines()), code_lines(path)
        total, code = total + n, code + c
        print(f"{path.relative_to(src)}\t{n}\t{c}")
    print(f"total\t{total}\t{code}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
