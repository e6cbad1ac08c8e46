#!/usr/bin/env python3
"""Token and line counts of the engine's source, src/vvmf2/*.py.

Compiling the package costs time in proportion to its tokens, not its
lines or text, so the token count is the size that matters.  A token is
whatever ``tokenize`` yields except NL, NEWLINE, COMMENT, INDENT, DEDENT
and ENDMARKER.  Usage: python scripts/count_tokens.py
"""

import io
import tokenize
from pathlib import Path

SKIP = {
    tokenize.NL, tokenize.NEWLINE, tokenize.COMMENT,
    tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER,
}
SRC = Path(__file__).resolve().parent.parent / "src" / "vvmf2"


def main():
    tokens = lines = 0
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        lines += len(text.splitlines())
        found = tokenize.generate_tokens(io.StringIO(text).readline)
        tokens += sum(t.type not in SKIP for t in found)
    print(f"src/vvmf2: {tokens} tokens, {lines} lines")


if __name__ == "__main__":
    main()
