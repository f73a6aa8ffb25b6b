"""Compare the extractor at a git revision with the one in the working tree.

    python tools/extractor_diff.py REV [ROOT ...] [--soups N] [--seed S]

Loads ``src/codecloud/extractor.py`` as it is at REV (through ``git show``)
next to the working tree's copy.  It first prints each module-level compiled
pattern (or bound method of one, such as ``_is_name``) whose ``_sre`` code
differs between the two, or ``patterns: 0 differ``; a pattern that differs
does not change the exit status.  Then it runs both on every ``.java`` file
under each ROOT and on N seeded token soups: random sequences of Java keywords,
names, punctuation, literals, comments, member-shaped pieces such as
``int m() {`` and header-shaped ones such as ``package a.b;`` and
``public class A {`` (malformed package names such as ``package a..b;``
among them), pieces of declarator lists such as ``int a, b;``,
``b[] = 2,``, ``b @T(1) [],``, ``, @T b`` and ``, @T(1) b``, a lone CR, a
Ctrl-Z, members named ``sealed`` (``int sealed;``, ``sealed(``), the header ``class A;``, types
named by restricted identifiers (``class record {``, ``interface var {``),
modifiers or an annotation that a ';' ends (``public ;``, ``@A ;``) or that
an import, package or module declaration follows (``public import a.b;``,
``@A package a;``, ``static module a {}``), field declarators named by a
keyword (``int return;``, ``, return``) or by nothing (``= 1;``, ``, ;``),
keywords where an enum constant or a package name goes (``enum E { int,``,
``package int.x;``), a Ctrl-Z before a type (``^Z class I {}``), one where a member starts in
a body (``{ ^Z int x;``), and one in the middle of a member (``int ^Z x;``),
a method body (``void m() { ^Z }``) or a parameter list (``(int ^Z b)``),
after an opening that leaves a class, enum, interface or method body open.
For each source it prints how many inputs give different identifiers and
how many give different diagnostics, followed by the first few differences,
and it exits with status 1 when any input differs.
A ROOT that is not a readable directory ends the run with status 2 before
REV is loaded.
"""

from __future__ import annotations

import argparse
import random
import re
import subprocess
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from codecloud import extractor  # noqa: E402

SHOWN = 3

_OPENINGS = (
    "", "class A {\n", "enum E { C;\n", "class A { void m() {\n",
    "enum E { C { enum F { D {\n", "interface I {\n", "@interface N {\n",
)
_TOKENS = (
    "package import class interface enum record extends implements permits throws "
    "public static final abstract default sealed void int new instanceof return this A B x y "
    "( ) { } [ ] ; , . : ? @ < > = + - * / "
    "\"s\" \" 'c' ' 1 1.5e3 \"\"\"\nt\"\"\" \"\"\" // /* */ $ _ \u0663"
).split(" ") + [
    "int m() {", "m() {", "a / b", "/** } */", "'{'", "package a.b;", "import a.*;",
    "import static a.B.c;", "/** d */", "public class A {", "enum E {",
    "package a b;", "package a..b;", "package a.*;", "\npackage c;\n",
    "int a, b;", "a,", "b[] = 2,", "b @T(1) [],", '= "x, y",', "\r", "\x1a",
    "int sealed;", "sealed(", "class A;", "class record {", "interface var {", "enum E { int,",
    "package int.x;",
    "\x1a class I {}", "{ \x1a int x;", "int \x1a x;", "void m() { \x1a }", "(int \x1a b)",
    ", @T b", ", @T(1) b", "public ;", "@A ;", "int return;", ", return",
    "public import a.b;", "@A package a;", "static module a {}", "= 1;", ", ;",
]


def load_at(rev: str) -> types.ModuleType:
    """The extractor module as it is at ``rev``."""
    name = f"{rev}:src/codecloud/extractor.py"
    shown = subprocess.run(["git", "show", name], cwd=ROOT, capture_output=True, text=True)
    if shown.returncode != 0:
        sys.exit(f"extractor_diff: {shown.stderr.strip()}")
    module = types.ModuleType("extractor_at_rev")
    sys.modules[module.__name__] = module  # dataclasses look their module up
    exec(compile(shown.stdout, name, "exec"), module.__dict__)
    return module


def compiled(value) -> list[int] | None:
    """The ``_sre`` code of a compiled pattern or of one's bound method, else None."""
    pattern = getattr(value, "__self__", value)
    if not isinstance(pattern, re.Pattern):
        return None
    return re._compiler._code(re._parser.parse(pattern.pattern, pattern.flags), pattern.flags)


def differing_patterns(old: types.ModuleType, new: types.ModuleType) -> list[str]:
    """Names of the module-level patterns whose compiled code ``old`` and ``new`` differ in.

    A pattern that only one module has differs too.
    """
    names = sorted({*vars(old), *vars(new)})
    return [
        name for name in names
        if compiled(getattr(old, name, None)) != compiled(getattr(new, name, None))
    ]


def outcome(module: types.ModuleType, path: str, text: str):
    """Identifiers and diagnostics of one input; the exception it raised stands for both."""
    unit = module.SourceUnit(path, text)
    try:
        result = module.extract_identifiers(unit)
    except Exception as exc:  # a raising revision is a difference to report
        raised = f"raised {exc!r:.200}"
        return raised, raised
    # older revisions return the identifiers and record diagnostics on the unit
    ids, diagnostics = result if isinstance(result, tuple) else (result, unit.diagnostics)
    # list position orders the identifiers, so an older revision's ordinal is not compared
    return (
        [(i.kind.value, i.simple_name, i.qualified_name, i.file, i.line) for i in ids],
        [(d.message, d.line) for d in diagnostics],
    )


def soups(count: int, seed: int):
    rng = random.Random(seed)
    for _ in range(count):
        length = rng.randrange(201)
        pieces = (rng.choice(_TOKENS) + rng.choice((" ", "\n", "")) for _ in range(length))
        yield rng.choice(_OPENINGS) + "".join(pieces)


def compare(label: str, inputs, old: types.ModuleType) -> int:
    """Print how many of ``inputs`` (path, text) differ; returns that count."""
    total = differ = ids_differ = diagnostics_differ = 0
    for path, text in inputs:
        total += 1
        before, after = outcome(old, path, text), outcome(extractor, path, text)
        if before != after:
            differ += 1
            ids_differ += before[0] != after[0]
            diagnostics_differ += before[1] != after[1]
            if differ <= SHOWN:
                print(f"  {path}: {text[:300]!r}\n    at REV:    {before!r:.600}\n"
                      f"    here:      {after!r:.600}")
    print(f"{label}: {total} inputs, {ids_differ} differ in identifiers, "
          f"{diagnostics_differ} in diagnostics")
    return differ


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="git revision to compare against, e.g. HEAD~")
    parser.add_argument("roots", nargs="*", help="source trees whose .java files are compared")
    parser.add_argument("--soups", type=int, default=100_000, metavar="N",
                        help="number of token soups (default: 100000)")
    parser.add_argument("--seed", type=int, default=1, help="seed of the soups (default: 1)")
    args = parser.parse_args(argv)
    try:
        trees = [(root, extractor.scan_tree(root)) for root in args.roots]
    except extractor.CorpusError as exc:
        parser.exit(2, f"extractor_diff: {exc}\n")
    old = load_at(args.rev)
    patterns = differing_patterns(old, extractor)
    print(f"patterns: {len(patterns)} differ" + "".join(f"\n  {name}" for name in patterns))
    differ = 0
    for root, units in trees:
        differ += compare(root, ((unit.path, unit.text) for unit in units), old)
    inputs = (("soup.java", text) for text in soups(args.soups, args.seed))
    differ += compare(f"soups (seed {args.seed})", inputs, old)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
