#!/usr/bin/env python3
"""Count OCaml code lines: non-blank .ml/.mli lines outside comments.

Usage: python3 bench/loc.py DIR...   (prints one count per DIR, then total)

The lexer follows OCaml's own rules where they matter for counting:
comments nest, a string literal inside a comment is skipped whole (so
"*)" there does not close the comment), and string, quoted-string
({id|...|id}) and character literals in code never open a comment.
"""

import os
import re
import sys

QUOTED_OPEN = re.compile(r"\{([a-z_]*)\|")
# a character literal: 'x', '\n', '\'', '\\', '\123', '\xAB', '\o017'
CHAR_LIT = re.compile(r"'(?:[^\\']|\\(?:[\\'\"ntbr ]|[0-9]{3}|x[0-9a-fA-F]{2}|o[0-3][0-7]{2}))'")


def code_lines(text):
    """Return the set of 0-based line numbers that carry code."""
    lines = set()
    line = 0
    i = 0
    n = len(text)
    depth = 0  # comment nesting

    def skip_string(i):
        # text[i] == '"'; return the index just past the closing quote,
        # and the number of newlines crossed
        nonlocal line
        i += 1
        while i < n:
            c = text[i]
            if c == "\\":
                if i + 1 < n and text[i + 1] == "\n":
                    line += 1
                i += 2
                continue
            if c == "\n":
                line += 1
            elif c == '"':
                return i + 1
            i += 1
        return n

    def skip_quoted(i, ident, in_code):
        nonlocal line
        close = "|" + ident + "}"
        j = text.find(close, i)
        end = n if j < 0 else j + len(close)
        for k in range(i, end):
            if text[k] == "\n":
                line += 1
            elif in_code:
                lines.add(line)
        return end

    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            i += 1
            continue
        if text.startswith("(*", i) and not text.startswith("(*)", i):
            depth += 1
            i += 2
            continue
        if depth > 0:
            if text.startswith("*)", i):
                depth -= 1
                i += 2
            elif c == '"':
                i = skip_string(i)
            elif c == "{" and QUOTED_OPEN.match(text, i):
                m = QUOTED_OPEN.match(text, i)
                i = skip_quoted(m.end(), m.group(1), False)
            elif c == "'" and CHAR_LIT.match(text, i):
                i = CHAR_LIT.match(text, i).end()
            else:
                i += 1
            continue
        if c.isspace():
            i += 1
            continue
        lines.add(line)
        if c == '"':
            start = line
            i = skip_string(i)
            lines.update(range(start, line + 1))
        elif c == "{" and QUOTED_OPEN.match(text, i):
            m = QUOTED_OPEN.match(text, i)
            i = skip_quoted(m.end(), m.group(1), True)
        elif c == "'" and CHAR_LIT.match(text, i):
            i = CHAR_LIT.match(text, i).end()
        else:
            i += 1
    return lines


def count_dir(root):
    total = 0
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if d != "_build")
        for f in sorted(filenames):
            if f.endswith((".ml", ".mli")):
                with open(os.path.join(dirpath, f), encoding="utf-8") as fh:
                    total += len(code_lines(fh.read()))
    return total


def main(argv):
    if not argv:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    grand = 0
    for d in argv:
        c = count_dir(d)
        grand += c
        print(f"{d}\t{c}")
    if len(argv) > 1:
        print(f"total\t{grand}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
