"""Count the code-only lines of Python sources.

A line counts when a token other than a comment starts or continues on
it; blank lines, comment lines and docstrings (a string, or implicitly
joined strings, standing alone as a statement) do not.  Usage:

    python tools/count_code_lines.py src/            # total of a tree
    python tools/count_code_lines.py src/ tests/ -v  # and per file
"""

from __future__ import annotations

import argparse
import sys
import tokenize
from pathlib import Path
from typing import Iterator, List

# tokens that hold no code of their own
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.INDENT, tokenize.DEDENT,
          tokenize.ENCODING, tokenize.ENDMARKER}


def _statements(path: Path) -> Iterator[List[tokenize.TokenInfo]]:
    """The tokens of each logical line of ``path`` but its layout tokens."""
    statement: List[tokenize.TokenInfo] = []
    with tokenize.open(path) as fh:
        for tok in tokenize.generate_tokens(fh.readline):
            if tok.type == tokenize.NEWLINE:
                yield statement
                statement = []
            elif tok.type not in LAYOUT:
                statement.append(tok)
    if statement:
        yield statement


def code_lines(path: Path) -> int:
    """The number of lines of ``path`` that hold code."""
    lines = set()
    for statement in _statements(path):
        if all(tok.type == tokenize.STRING for tok in statement):
            continue  # a docstring
        for tok in statement:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="+", type=Path, help="Python files or directories")
    parser.add_argument("-v", "--verbose", action="store_true", help="print each file's count")
    args = parser.parse_args(argv)
    files = sorted({f for p in args.paths for f in ([p] if p.is_file() else p.rglob("*.py"))})
    total = 0
    for f in files:
        n = code_lines(f)
        total += n
        if args.verbose:
            print(f"{n:6d} {f}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
