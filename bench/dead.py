#!/usr/bin/env python3
"""List exported values that nothing uses, or that only their own module uses.

Usage: python3 bench/dead.py

For every `val NAME` in an interface lib/.../m.mli (module M), count the
mentions of NAME in the .ml/.mli files under lib, bin, bench, perfbench,
examples and test, comments and literals left out. A mention counts for
M.NAME only where it can name that value:

- qualified by M or by a local alias of M (`module P = Spp_pmdk.Pool`),
  in any file;
- unqualified, in M's own m.ml, or in a file that opens or includes M
  (`open M`, `let open M in`, `M.( ... )`, `include M`).

A value that a signature requires counts as used when M is packed as a
first-class module, included or passed to a functor: every name a
`module type ... = sig ... end` declares, such as `Cmap.name` for
`Engine.S`. A value whose only mention is its own definition is dead;
one that no file mentions but its own .ml and .mli is internal, and
should leave the interface. The script prints `FILE: NAME` for each dead
value and `FILE: NAME (internal)` for each internal one, and exits 1 if
there is any, 0 otherwise. Tests count as users: a value only a test
calls stays.

Unqualified mentions are still textual: a record field or a local
binding that shares the name keeps the value alive in a file that opens
M. The script assumes each value's implementation names it once (a
`let`, not an `include`).
"""

import os
import re
import sys
from collections import Counter

ROOTS = ["lib", "bin", "bench", "perfbench", "examples", "test"]
VAL = re.compile(r"^\s*val\s+([a-z_][A-Za-z0-9_']*)", re.M)
IDENT = r"[A-Za-z_][A-Za-z0-9_']*"
MODPATH = r"(?:[A-Z][A-Za-z0-9_']*\s*\.\s*)*[A-Z][A-Za-z0-9_']*"
# a (possibly qualified) identifier: the qualifiers, then the name
MENTION = re.compile(
    r"(?<![A-Za-z0-9_'])((?:[A-Z][A-Za-z0-9_']*\s*\.\s*)*)(" + IDENT + ")")
OPENS = [
    re.compile(r"\b(?:open!?|include)\s+(" + MODPATH + ")"),
    re.compile(r"(?<![A-Za-z0-9_'.])(" + MODPATH + r")\s*\.\s*\("),
]
ALIAS = re.compile(r"\bmodule\s+([A-Z]\w*)\s*=\s*(" + MODPATH + r")(?!\s*[.(\w])")
IMPLEMENTS = [
    re.compile(r"\(\s*module\s+(" + MODPATH + ")"),
    re.compile(r"\binclude\s+(" + MODPATH + ")"),
    re.compile(r"[A-Z]\w*\s*\(\s*(" + MODPATH + r")\s*\)"),
]
SIG = re.compile(r"\bmodule\s+type\s+\w+\s*=\s*sig\b")
NEST = re.compile(r"\b(sig|struct|begin|object|end)\b")


def last(path):
    return re.split(r"\s*\.\s*", path)[-1]


def blank(text):
    """The text with comments, string and character literals blanked out
    (newlines kept)."""
    out = list(text)
    n = len(text)
    i = 0
    depth = 0

    def wipe(a, b):
        for k in range(a, b):
            if out[k] != "\n":
                out[k] = " "

    def string_end(j):
        # j is just past the opening quote
        while j < n and text[j] != '"':
            j += 2 if text[j] == "\\" else 1
        return j + 1

    start = 0
    while i < n:
        c = text[i]
        if text.startswith("(*", i):
            if depth == 0:
                start = i
            depth += 1
            i += 2
        elif depth > 0 and text.startswith("*)", i):
            depth -= 1
            i += 2
            if depth == 0:
                wipe(start, i)
        elif c == '"':
            j = string_end(i + 1)
            if depth == 0:
                wipe(i, j)
            i = j
        elif c == "{" and re.match(r"\{[a-z_]*\|", text[i:]):
            tag = re.match(r"\{([a-z_]*)\|", text[i:]).group(1)
            j = text.find("|" + tag + "}", i)
            j = n if j < 0 else j + len(tag) + 2
            if depth == 0:
                wipe(i, j)
            i = j
        elif c == "'" and (i == 0 or not re.match(r"[A-Za-z0-9_']", text[i - 1])):
            m = re.match(r"'(?:\\(?:[\\'\"ntbr ]|[0-9]{3}|x[0-9a-fA-F]{2})|[^\\'])'",
                         text[i:])
            j = i + (len(m.group(0)) if m else 1)
            if depth == 0 and m:
                wipe(i, j)
            i = j
        else:
            i += 1
    if depth > 0:
        wipe(start, n)
    return "".join(out)


def module_of(path):
    return os.path.basename(path).rsplit(".", 1)[0].capitalize()


def sources():
    for root in ROOTS:
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames[:] = sorted(d for d in dirnames if not d.startswith(("_", ".")))
            for f in sorted(filenames):
                if f.endswith((".ml", ".mli")):
                    yield os.path.join(dirpath, f)


def signature_names(code):
    """Names declared by the `module type ... = sig ... end` blocks."""
    names = set()
    for m in SIG.finditer(code):
        depth, pos = 1, m.end()
        for t in NEST.finditer(code, pos):
            depth += -1 if t.group(1) == "end" else 1
            if depth == 0:
                names.update(VAL.findall(code[m.end():t.start()]))
                break
    return names


class Source:
    def __init__(self, path, text):
        self.path = path
        self.module = module_of(path)
        code = blank(text)
        self.aliases = {a: last(p) for a, p in ALIAS.findall(code)}
        resolve = lambda p: self.aliases.get(last(p), last(p))
        self.opens = {resolve(p) for r in OPENS for p in r.findall(code)}
        self.implements = {resolve(p) for r in IMPLEMENTS for p in r.findall(code)}
        self.sigs = signature_names(code)
        self.vals = list(dict.fromkeys(VAL.findall(code)))
        self.bare = Counter()
        self.qualified = Counter()
        for quals, name in MENTION.findall(code):
            if quals:
                self.qualified[(resolve(quals.rstrip(" .\t\n")), name)] += 1
            else:
                self.bare[name] += 1


def main():
    srcs = []
    for path in sources():
        with open(path, encoding="utf-8") as fh:
            srcs.append(Source(path, fh.read()))
    sig_names = set().union(*(s.sigs for s in srcs))
    implementing = set().union(*(s.implements for s in srcs))
    dead = []
    mlis = [s for s in srcs if s.path.startswith("lib") and s.path.endswith(".mli")]
    for mli in sorted(mlis, key=lambda s: s.path):
        own_ml = mli.path[:-1]
        for name in mli.vals:
            own = external = 0
            for s in srcs:
                if s is mli:
                    continue
                n = s.qualified[(mli.module, name)]
                if s.path == own_ml:
                    own += n + s.bare[name]
                else:
                    external += n + (s.bare[name] if mli.module in s.opens else 0)
            if name in sig_names and mli.module in implementing:
                external += 1
            if external == 0 and own <= 1:
                dead.append(f"{mli.path}: {name}")
            elif external == 0:
                dead.append(f"{mli.path}: {name} (internal)")
    for line in dead:
        print(line)
    return 1 if dead else 0


if __name__ == "__main__":
    sys.exit(main())
