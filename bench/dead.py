#!/usr/bin/env python3
"""List exported values that nothing uses, or that only their own module uses.

Usage: python3 bench/dead.py

For every `val NAME` in an interface under lib/, count the mentions of
NAME (as a whole OCaml identifier) in every .ml/.mli file under lib,
bin, bench, perfbench, examples and test, leaving out that interface
itself. A value whose only mention is its own definition is dead; one
that no file mentions but its own .ml and .mli is internal, and should
leave the interface. The script prints `FILE: NAME` for each dead value
and `FILE: NAME (internal)` for each internal one, and exits 1 if there
is any, 0 otherwise. Tests count as users: a value only a test calls
stays.

Mentions are textual: a record field, a local binding or a comment that
shares the name keeps the value alive, so the check can miss a dead
value. It assumes each value's implementation names it once (a `let`,
not an `include`).
"""

import os
import re
import sys
from collections import Counter

ROOTS = ["lib", "bin", "bench", "perfbench", "examples", "test"]
VAL = re.compile(r"^\s*val\s+([a-z_][A-Za-z0-9_']*)", re.M)
# maximal runs of identifier characters: a mention of NAME is a run equal to it
WORD = re.compile(r"[A-Za-z0-9_']+")


def sources():
    for root in ROOTS:
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames[:] = sorted(d for d in dirnames if not d.startswith(("_", ".")))
            for f in sorted(filenames):
                if f.endswith((".ml", ".mli")):
                    yield os.path.join(dirpath, f)


def main():
    texts = {}
    for path in sources():
        with open(path, encoding="utf-8") as fh:
            texts[path] = fh.read()
    words = {p: Counter(WORD.findall(t)) for p, t in texts.items()}
    total = sum(words.values(), Counter())
    dead = []
    for mli in sorted(p for p in texts if p.startswith("lib") and p.endswith(".mli")):
        own = words[mli] + words.get(mli[:-1], Counter())
        for name in dict.fromkeys(VAL.findall(texts[mli])):
            if total[name] - words[mli][name] <= 1:
                dead.append(f"{mli}: {name}")
            elif total[name] == own[name]:
                dead.append(f"{mli}: {name} (internal)")
    for line in dead:
        print(line)
    return 1 if dead else 0


if __name__ == "__main__":
    sys.exit(main())
