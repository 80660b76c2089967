"""Count the code lines of Python modules: lines holding a token that is not
a comment, a docstring or layout.

A docstring is a string that stands alone as a statement.  A token spread
over several lines counts each of them.  Run from the repository root:

    python .github/code_lines.py src/flowinv

prints one row per module and the total.  The arguments may be files or
directories (searched for ``*.py``); the default is ``src/flowinv``.
"""

from __future__ import annotations

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


def code_lines(path: Path) -> int:
    """The number of code lines of the Python file ``path``."""
    lines: set[int] = set()
    statement: list[tokenize.TokenInfo] = []
    with path.open("rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type == tokenize.NEWLINE:
                if not (len(statement) == 1 and statement[0].type == tokenize.STRING):
                    for t in statement:
                        lines.update(range(t.start[0], t.end[0] + 1))
                statement = []
            elif tok.type not in _LAYOUT:
                statement.append(tok)
    return len(lines)


def main(argv: list[str]) -> int:
    files = []
    for arg in argv or ["src/flowinv"]:
        p = Path(arg)
        files.extend(sorted(p.rglob("*.py")) if p.is_dir() else [p])
    total = 0
    for path in files:
        n = code_lines(path)
        total += n
        print(f"{n:6,}  {path}")
    print(f"{total:6,}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
