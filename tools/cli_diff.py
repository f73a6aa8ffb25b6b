"""Compare the CLI at a git revision with the one in the working tree.

    python tools/cli_diff.py REV [ROOT ...]

Extracts ``src/`` as it is at REV (through ``git archive``) into a temporary
directory and runs a fixed matrix of ``codecloud`` invocations on each ROOT
with both trees, each in a fresh interpreter: every ``cloud`` format, each
``--kind``, the filter and label options, ``eval`` and ``stats`` in every
format with and without stop words, and ``dump-identifiers``.  It compares
stdout, stderr and the exit code, with the run time (``elapsed_ms``) masked
in ``cloud``'s summary line and in the ``stats`` reports.  The default ROOTs
are the fixture trees under ``tests/fixtures``.  It prints each invocation
that differs and exits with status 1 when any does.
"""

from __future__ import annotations

import argparse
import io
import os
import re
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "fixtures"
DEFAULT_ROOTS = [FIXTURES / name for name in ("drawing_shapes", "menagerie", "broken")]

MATRIX = (
    *(("cloud", "--format", fmt) for fmt in ("svg", "html", "json", "csv")),
    *(("cloud", "--kind", kind, "--format", "json")
      for kind in ("package", "class", "attribute", "method")),
    ("cloud", "--show-freq"),
    ("cloud", "--show-freq", "--format", "html"),
    ("cloud", "--no-stopwords", "--min-tag-len", "4", "--title-case"),
    ("cloud", "--min-tag-len", "6", "--no-short-filter", "--format", "csv"),
    *((command, "--format", fmt, *stop)
      for command in ("eval", "stats")
      for fmt in ("table", "csv", "json")
      for stop in ((), ("--no-stopwords",))),
    ("dump-identifiers",),
)

#: ``cloud``'s summary line, the ``stats`` JSON field, and the last value of
#: the ``stats`` table and CSV row, with the table's right-aligning padding.
_ELAPSED = re.compile(r'(elapsed_ms=|"elapsed_ms": )\d+| *\d+(?=\n\Z)')


def extract_src(rev: str, into: Path) -> Path:
    """Write ``src/`` as it is at ``rev`` under ``into``; returns that ``src``."""
    archived = subprocess.run(["git", "archive", rev, "src"], cwd=ROOT, capture_output=True)
    if archived.returncode != 0:
        sys.exit(f"cli_diff: {archived.stderr.decode(errors='replace').strip()}")
    with tarfile.open(fileobj=io.BytesIO(archived.stdout)) as tar:
        tar.extractall(into, filter="data")
    return into / "src"


def outcome(src: Path, args: tuple[str, ...], cwd: str) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one invocation, ``elapsed_ms`` masked."""
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run([sys.executable, "-m", "codecloud", *args], cwd=cwd, env=env,
                          capture_output=True, text=True)
    out, err = done.stdout, done.stderr
    if args[0] == "cloud":
        err = _ELAPSED.sub(r"\1<ms>", err)
    elif args[0] == "stats":
        out = _ELAPSED.sub(r"\1<ms>", out)
    return done.returncode, out, err


def first_difference(before: tuple, after: tuple) -> str:
    for name, old, new in zip(("exit code", "stdout", "stderr"), before, after):
        if old != new:
            if name == "exit code":
                return f"exit code {old} -> {new}"
            old_lines, new_lines = old.splitlines(), new.splitlines()
            for number, (a, b) in enumerate(zip(old_lines, new_lines), 1):
                if a != b:
                    return f"{name} line {number}: {a[:200]!r} -> {b[:200]!r}"
            return f"{name}: {len(old_lines)} -> {len(new_lines)} lines"
    return ""


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="git revision to compare against, e.g. HEAD~")
    parser.add_argument("roots", nargs="*", type=Path, default=DEFAULT_ROOTS,
                        help="source trees to run on (default: the fixture trees)")
    args = parser.parse_args(argv)
    total = differ = 0
    with tempfile.TemporaryDirectory(prefix="cli_diff-") as scratch:
        old_src = extract_src(args.rev, Path(scratch))
        for root in args.roots:
            root = root.resolve()
            for invocation in MATRIX:
                command = (invocation[0], str(root), *invocation[1:])
                before = outcome(old_src, command, scratch)
                after = outcome(ROOT / "src", command, scratch)
                total += 1
                if before != after:
                    differ += 1
                    print(f"differs: codecloud {' '.join(command)}\n"
                          f"    {first_difference(before, after)}")
    print(f"{total} invocations, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
