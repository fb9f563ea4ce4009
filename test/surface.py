#!/usr/bin/env python3
"""List the library values that nothing outside their own module calls.

Every top-level `val` in lib/**/*.mli must be called from code outside its
module (lib, bin, bench, examples and perfbench count; test does not), be
named as `M.v` in README.md (the documented API), or carry a doc comment
that says `Test seam: <why>`.  A value marked as a seam must be called from
test/ and from nothing outside test/, or the mark is stale.

A reference counts when it names the value through its module:
  - a qualified path, `Db.scan` or `Deut_core.Db.scan`;
  - a module alias, `module Pool = Deut_buffer.Buffer_pool` ... `Pool.get`,
    also an alias that another file of the same directory defines;
  - a bare name in a file that opens the module (`open M`, `let open M in`,
    `M.( ... )`).
A bare name alone does not count, so `Recovery.instant_drain` is no call of
`Db.instant_drain`.  Values of submodules (`module Zipf : sig ... end`) are
not listed.

A library .ml without an .mli exports every top-level `let`.  Such a value
must be called from somewhere, tests included: outside its module as above,
or inside it by its bare name from a later top-level item that does not
bind the same name itself (a label `~v`, a field `r.v` or a record field
declaration `v :` is no call).

Usage: python3 test/surface.py [REPO_ROOT]
Prints one line per offending value and exits 1; prints nothing and exits 0
when every export is called or marked.
"""

import os
import re
import sys

CALLER_DIRS = ["lib", "bin", "bench", "examples", "perfbench"]
TEST_DIRS = ["test"]
SEAM = "Test seam:"

ITEM_START = re.compile(
    r"(?:val|type|module|exception|external|include|open|class)\b")
OPENERS = {"sig", "struct", "object", "begin"}


def scan(text):
    """Split OCaml source into code (comments and string literals blanked,
    newlines kept) and the list of comments as (start, end, text)."""
    code = []
    comments = []
    i, n = 0, len(text)

    def skip_string(j):
        # j is at the opening quote; return the index after the closing one.
        j += 1
        while j < n and text[j] != '"':
            j += 2 if text[j] == "\\" else 1
        return j + 1

    def skip_quoted(j):
        # {id|...|id}; j is at '{'.  Returns None if this is no quoted string.
        m = re.match(r"\{([a-z_]*)\|", text[j:])
        if not m:
            return None
        close = "|" + m.group(1) + "}"
        k = text.find(close, j + m.end())
        return n if k < 0 else k + len(close)

    def blank(s):
        return re.sub(r"[^\n]", " ", s)

    while i < n:
        c = text[i]
        if text.startswith("(*", i) and not text.startswith("(*)", i):
            depth, j = 1, i + 2
            while j < n and depth:
                if text.startswith("(*", j):
                    depth, j = depth + 1, j + 2
                elif text.startswith("*)", j):
                    depth, j = depth - 1, j + 2
                elif text[j] == '"':
                    j = skip_string(j)
                else:
                    j += 1
            comments.append((i, j, text[i:j]))
            code.append(blank(text[i:j]))
            i = j
        elif c == '"':
            j = skip_string(i)
            code.append(blank(text[i:j]))
            i = j
        elif c == "{" and skip_quoted(i) is not None:
            j = skip_quoted(i)
            code.append(blank(text[i:j]))
            i = j
        elif c == "'":
            m = re.match(r"'(?:\\(?:[\\'\"ntbr ]|\d{3}|x[0-9a-fA-F]{2})|[^\\'\n])'",
                         text[i:])
            j = i + (m.end() if m else 1)
            code.append(" " * (j - i) if m else c)
            i = j
        else:
            code.append(c)
            i += 1
    return "".join(code), comments


def line_of(text, pos):
    return text.count("\n", 0, pos) + 1


def module_of(path):
    base = os.path.splitext(os.path.basename(path))[0]
    return base[0].upper() + base[1:]


def exported_vals(path):
    """Top-level vals of an .mli: (name, line, doc text)."""
    text = open(path).read()
    code, comments = scan(text)
    lines = code.split("\n")
    # Depth of each line start, from sig/struct/object/begin ... end.
    items = []  # (line index, keyword, name) of top-level items
    depth = 0
    for idx, line in enumerate(lines):
        stripped = line.lstrip()
        if depth == 0 and ITEM_START.match(stripped):
            m = re.match(r"val\s+([a-z_][A-Za-z0-9_']*|\([^)]*\))", stripped)
            items.append((idx, "val" if m else "other", m.group(1) if m else None))
        for tok in re.findall(r"[A-Za-z_][A-Za-z0-9_']*", line):
            if tok in OPENERS:
                depth += 1
            elif tok == "end":
                depth -= 1
    # Comment extents in lines (0-based).
    spans = [(line_of(text, s) - 1, line_of(text, e - 1) - 1, t)
             for s, e, t in comments]
    out = []
    for idx, kind, name in items:
        if kind != "val":
            continue
        # The signature runs over the following non-blank code lines.
        end = idx
        while (end + 1 < len(lines) and lines[end + 1].strip()
               and not ITEM_START.match(lines[end + 1].lstrip())):
            end += 1
        doc = []
        for s, e, t in spans:
            if idx <= s <= end:  # inside the signature
                doc.append(t)
            elif s == end + 1:
                doc.append(t)  # the comment right after the signature
            elif e == idx - 1:
                doc.append(t)  # the comment right before the val
        out.append((name, idx + 1, "\n".join(doc)))
    return out


TOP_ITEM = re.compile(r"(let|and|type|module|exception|external|include|open|class)\b")
TOP_LET = re.compile(r"(?:let|and)(?:\s+rec)?(?:\s*\[@[^]]*\])?\s+([a-z_][A-Za-z0-9_']*)")


def toplevel_lets(code):
    """Top-level items of an .ml (comments blanked): a list of
    (first line index, last line index, name or None), one per column-0
    item; name is set for a `let`/`and` value binding."""
    lines = code.split("\n")
    starts = []
    kind = None
    for idx, line in enumerate(lines):
        m = TOP_ITEM.match(line)
        if not m:
            continue
        if m.group(1) != "and":
            kind = m.group(1)
        v = TOP_LET.match(line) if kind == "let" else None
        starts.append((idx, v.group(1) if v and v.group(1) != "_" else None))
    items = []
    for k, (idx, name) in enumerate(starts):
        end = starts[k + 1][0] - 1 if k + 1 < len(starts) else len(lines) - 1
        items.append((idx, end, name))
    return items


def binds(text, name):
    """Whether [text] binds [name] locally: `let name`, a labelled or
    anonymous parameter, or a `fun name`."""
    v = re.escape(name)
    return bool(re.search(
        r"\b(?:let|and)(?:\s+rec)?\s+%s\b|[~?]\(?%s\b|\bfun\b[^-]*?(?<![A-Za-z0-9_'.~?])%s\b"
        r"|\blet\s+[a-z_][A-Za-z0-9_']*\s[^=]*?(?<![A-Za-z0-9_'.~?])%s\b[^=]*="
        % (v, v, v, v), text))


def unused_internally(code, items):
    """The values among [items] (of an .ml with no .mli) that no later item
    of the same file names: (name, line)."""
    lines = code.split("\n")
    out = []
    for k, (first, last, name) in enumerate(items):
        if name is None:
            continue
        use = re.compile(r"(?<![A-Za-z0-9_'.~?#`])%s\b(?!\s*:[^:=])" % re.escape(name))
        used = False
        for first2, last2, _ in items[k + 1:]:
            text = "\n".join(lines[first2:last2 + 1])
            if use.search(text) and not binds(text, name):
                used = True
                break
        if not used:
            out.append((name, first + 1))
    return out


def source_files(root, dirs):
    for d in dirs:
        top = os.path.join(root, d)
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = [x for x in dirnames if not x.startswith((".", "_"))]
            for f in sorted(filenames):
                if f.endswith((".ml", ".mli")):
                    yield os.path.join(dirpath, f)


PATH_RE = re.compile(r"(?<![A-Za-z0-9_'.])((?:[A-Z][A-Za-z0-9_']*\s*\.\s*)+)"
                     r"([a-z_][A-Za-z0-9_']*|\()")
ALIAS_RE = re.compile(r"\bmodule\s+([A-Z][A-Za-z0-9_']*)\s*=\s*"
                      r"([A-Z][A-Za-z0-9_']*(?:\s*\.\s*[A-Z][A-Za-z0-9_']*)*)")
OPEN_RE = re.compile(r"\bopen!?\s+([A-Z][A-Za-z0-9_']*(?:\.[A-Z][A-Za-z0-9_']*)*)")
LOCAL_OPEN_RE = re.compile(r"(?<![A-Za-z0-9_'.])([A-Z][A-Za-z0-9_']*(?:\.[A-Z][A-Za-z0-9_']*)*)\.[(\[{]")
IDENT_RE = re.compile(r"(?<![A-Za-z0-9_'.])([a-z_][A-Za-z0-9_']*)")


def split_path(p):
    return [x for x in re.split(r"\s*\.\s*", p.strip()) if x]


class Resolver:
    """Maps a module path, as written in one file, to a library module."""

    def __init__(self, modules, aliases, local):
        self.modules = modules
        self.aliases = aliases  # name -> path list
        self.local = local  # the file's sibling modules, which shadow ours

    def resolve(self, path, seen=()):
        if not path:
            return None
        head = path[0]
        if head in self.local and len(path) > 1 and path[1] in self.aliases:
            return self.resolve(path[1:], seen)  # Common.Db, Db an alias in common.ml
        if head in self.aliases and head not in seen:
            return self.resolve(self.aliases[head] + path[1:], seen + (head,))
        if head in self.local:
            return None
        while path and path[0].startswith("Deut_"):
            path = path[1:]
        if len(path) == 1 and path[0] in self.modules:
            return path[0]
        return None


def references(root, files, modules):
    """Yield (file, module, value) for every reference in [files]."""
    parsed = {}
    dir_aliases = {}
    siblings = {}
    for f in files:
        siblings.setdefault(os.path.dirname(f), set()).add(module_of(f))
        code, _ = scan(open(f).read())
        aliases = {a: split_path(p) for a, p in ALIAS_RE.findall(code)}
        parsed[f] = (code, aliases)
        dir_aliases.setdefault(os.path.dirname(f), {}).update(aliases)
    for f in files:
        code, aliases = parsed[f]
        d = os.path.dirname(f)
        # Sibling modules of lib/ are the library's own modules.
        local = set() if d.startswith(os.path.join(root, "lib")) else siblings[d]
        res = Resolver(modules, {**dir_aliases[d], **aliases}, local)
        for path, name in PATH_RE.findall(code):
            m = res.resolve(split_path(path))
            if m and name != "(":
                yield f, m, name
        opened = set()
        for p in OPEN_RE.findall(code) + LOCAL_OPEN_RE.findall(code):
            m = res.resolve(split_path(p))
            if m:
                opened.add(m)
        if opened:
            names = set(IDENT_RE.findall(code))
            for m in opened:
                for name in names & modules[m]:
                    yield f, m, name


def main():
    root = sys.argv[1] if len(sys.argv) > 1 else os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..")
    lib_files = list(source_files(root, ["lib"]))
    mlis = [f for f in lib_files if f.endswith(".mli")]
    bare = [f for f in lib_files if f.endswith(".ml") and f + "i" not in mlis]
    exports = {}  # module -> [(name, line, doc, path)]
    for f in mlis:
        exports[module_of(f)] = [(n, l, d, f) for n, l, d in exported_vals(f)]
    modules = {m: {n for n, _, _, _ in vs} for m, vs in exports.items()}
    internal = {}  # module -> [(name, line, path)] no later item of its file names
    for f in bare:
        code, _ = scan(open(f).read())
        items = toplevel_lets(code)
        modules[module_of(f)] = {n for _, _, n in items if n}
        internal[module_of(f)] = [(n, l, f) for n, l in unused_internally(code, items)]

    def used(dirs):
        files = list(source_files(root, dirs))
        seen = set()
        for f, m, name in references(root, files, modules):
            if module_of(f) == m and f.startswith(os.path.join(root, "lib")):
                continue  # the module's own .ml/.mli
            seen.add((m, name))
        return seen

    readme = os.path.join(root, "README.md")
    documented = set(re.findall(r"\b([A-Z][A-Za-z0-9_]*)\.([a-z_][A-Za-z0-9_']*)",
                                open(readme).read())) if os.path.exists(readme) else set()
    callers = used(CALLER_DIRS) | documented
    tests = used(TEST_DIRS)
    bad = []
    for m in sorted(exports):
        for name, line, doc, path in exports[m]:
            rel = os.path.relpath(path, root)
            seam = SEAM in doc
            if seam and (m, name) in callers:
                bad.append(f"{rel}:{line}: {m}.{name} is marked '{SEAM}' but code outside {m} calls it")
            elif seam and (m, name) not in tests:
                bad.append(f"{rel}:{line}: {m}.{name} is marked '{SEAM}' but no test calls it")
            elif not seam and (m, name) not in callers:
                who = "only tests call it" if (m, name) in tests else "nothing calls it"
                bad.append(f"{rel}:{line}: {m}.{name} is exported but {who} outside {m}")
    for m in sorted(internal):
        for name, line, path in internal[m]:
            if (m, name) not in callers and (m, name) not in tests:
                rel = os.path.relpath(path, root)
                bad.append(f"{rel}:{line}: {m}.{name} is defined but nothing calls it")
    for b in bad:
        print(b)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
