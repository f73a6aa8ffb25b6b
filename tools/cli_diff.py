"""Compare the CLI at a git revision with the one in the working tree.

    python tools/cli_diff.py REV [ROOT ...]
    python tools/cli_diff.py --write-golden

Extracts ``src/`` as it is at REV (through ``git archive``) into a temporary
directory and runs a fixed matrix of ``codecloud`` invocations on each ROOT
with both trees, each in a fresh interpreter: every ``cloud`` format, each
``--kind``, the filter and label options, ``eval`` and ``stats`` in every
format with and without stop words (``stats --format json`` among them),
``eval --format json``, ``cloud --format json`` and ``stats --format csv``
written to a file with ``-o``, ``dump-identifiers``, the errors of ``cloud
--min-font nan``, ``--page-width 0`` and ``--min-tag-len 0`` (exit 1 on
every root) and of ``eval --format json -o .``, whose output path is a
directory (exit 2), and of ``cloud`` given an option it does not take
(exit 1).  It compares stdout, stderr, the exit code and the bytes of any
file written, with the run time (``elapsed_ms``) masked in ``cloud``'s
summary line and in the ``stats`` reports, written ones included.  The
default ROOTs are the fixture trees under ``tests/fixtures`` and a tree
with no ``.java`` file.  It prints each invocation that differs and exits
with status 1 when any does.

``--write-golden`` instead rewrites ``tests/golden/outputs.json``: the
SHA-256 of each matrix invocation's outcome with the working tree's
``src/``, on the fixture trees, the tree with no ``.java`` file and the
benchmark's seed-1 ``small`` tree.  ``tests/test_golden.py`` recomputes the
same digests, so an output change fails tier-1 until the file is rewritten.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tarfile
import tempfile
from contextlib import chdir, redirect_stderr, redirect_stdout
from pathlib import Path
from unittest.mock import patch

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "fixtures"
DEFAULT_ROOTS = [FIXTURES / name for name in ("drawing_shapes", "menagerie", "broken")]
GOLDEN = ROOT / "tests" / "golden" / "outputs.json"

#: Stands for a file in the temporary directory, read back after the run.
OUT_FILE = "<out-file>"

MATRIX = (
    *(("cloud", "--format", fmt) for fmt in ("svg", "html", "json", "csv")),
    *(("cloud", "--kind", kind, "--format", "json")
      for kind in ("package", "class", "attribute", "method")),
    ("cloud", "--show-freq"),
    ("cloud", "--show-freq", "--format", "html"),
    ("cloud", "--no-stopwords", "--min-tag-len", "4", "--title-case"),
    ("cloud", "--min-tag-len", "6", "--format", "csv"),
    *((command, "--format", fmt, *stop)
      for command in ("eval", "stats")
      for fmt in ("table", "csv", "json")
      for stop in ((), ("--no-stopwords",))),
    ("eval", "--format", "json", "-o", OUT_FILE),
    ("cloud", "--format", "json", "-o", OUT_FILE),
    ("stats", "--format", "csv", "-o", OUT_FILE),
    ("dump-identifiers",),
    # usage and I/O errors raised after a command's own imports
    ("cloud", "--min-font", "nan"),
    ("cloud", "--page-width", "0"),
    ("cloud", "--min-tag-len", "0"),
    ("eval", "--format", "json", "-o", "."),  # the output path is a directory
    ("cloud", "--no-short-filter"),  # an option cloud does not take
)

#: ``cloud``'s summary line on standard error.
_CLOUD_ELAPSED = re.compile(r"(?<=elapsed_ms=)\d+")
#: The ``stats`` JSON field, and the last value of the ``stats`` table and CSV
#: row, with the table's right-aligning padding.
_STATS_ELAPSED = re.compile(r'(?<="elapsed_ms": )\d+| *\d+(?=\n\Z)')


def extract_src(rev: str, into: Path) -> Path:
    """Write ``src/`` as it is at ``rev`` under ``into``; returns that ``src``."""
    archived = subprocess.run(["git", "archive", rev, "src"], cwd=ROOT, capture_output=True)
    if archived.returncode != 0:
        sys.exit(f"cli_diff: {archived.stderr.decode(errors='replace').strip()}")
    with tarfile.open(fileobj=io.BytesIO(archived.stdout)) as tar:
        tar.extractall(into, filter="data")
    return into / "src"


def masked(command: str, out: str, err: str) -> tuple[str, str]:
    """``command``'s stdout and stderr with the run time replaced by ``<ms>``.

    Only ``stats``' stdout and ``elapsed_ms=N`` in ``cloud``'s stderr carry
    it, so an error message that ends in a number is compared as it is.
    """
    if command == "cloud":
        err = _CLOUD_ELAPSED.sub("<ms>", err)
    elif command == "stats":
        out = _STATS_ELAPSED.sub("<ms>", out)
    return out, err


def written_file(args: tuple[str, ...], out_file: Path) -> bytes | None:
    """The bytes an invocation wrote to ``out_file``, with ``stats``' run time masked.

    None when the invocation names no file or wrote none.
    """
    if OUT_FILE not in args or not out_file.exists():
        return None
    if args[0] == "stats":
        return masked("stats", out_file.read_bytes().decode("utf-8"), "")[0].encode("utf-8")
    return out_file.read_bytes()


def no_java_tree(parent: Path) -> Path:
    """Write a tree named ``no_java`` under ``parent`` that holds no ``.java`` file."""
    (parent / "no_java" / "docs").mkdir(parents=True)
    (parent / "no_java" / "docs" / "README.txt").write_text("no Java here\n")
    return parent / "no_java"


def outcome(src: Path, args: tuple[str, ...], cwd: str) -> tuple[int, str, str, bytes | None]:
    """Exit code, stdout, stderr and written file of one invocation, ``elapsed_ms`` masked.

    The file is None when the invocation names none or wrote none.
    """
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    out_file = Path(cwd) / "out"
    out_file.unlink(missing_ok=True)
    argv = [str(out_file) if arg == OUT_FILE else arg for arg in args]
    done = subprocess.run([sys.executable, "-m", "codecloud", *argv], cwd=cwd, env=env,
                          capture_output=True, text=True)
    out, err = masked(args[0], done.stdout, done.stderr)
    return done.returncode, out, err, written_file(args, out_file)


def first_difference(before: tuple, after: tuple) -> str:
    for name, old, new in zip(("exit code", "stdout", "stderr", "file"), before, after):
        if old != new:
            if name == "exit code":
                return f"exit code {old} -> {new}"
            if name == "file":
                old = "<none>" if old is None else old.decode("utf-8", "replace")
                new = "<none>" if new is None else new.decode("utf-8", "replace")
            old_lines, new_lines = old.splitlines(), new.splitlines()
            for number, (a, b) in enumerate(zip(old_lines, new_lines), 1):
                if a != b:
                    return f"{name} line {number}: {a[:200]!r} -> {b[:200]!r}"
            return f"{name}: {len(old_lines)} -> {len(new_lines)} lines"
    return ""


def in_process_outcome(args: tuple[str, ...], cwd: Path,
                       out_file: Path) -> tuple[int, str, str, bytes | None]:
    """``outcome`` of one invocation through ``codecloud.cli.main`` in this process.

    It runs in ``cwd`` with a terminal 80 columns wide, as a fresh interpreter
    whose output is a pipe sees it, so argparse wraps usage lines alike.
    """
    from codecloud import cli

    out_file.unlink(missing_ok=True)
    argv = [str(out_file) if arg == OUT_FILE else arg for arg in args]
    stdout, stderr = io.StringIO(), io.StringIO()
    with (patch.dict(os.environ, COLUMNS="80"), chdir(cwd),
          redirect_stdout(stdout), redirect_stderr(stderr)):
        try:
            code = cli.main(argv)
        except SystemExit as exit_:
            code = exit_.code
    out, err = masked(args[0], stdout.getvalue(), stderr.getvalue())
    return code, out, err, written_file(args, out_file)


def golden_roots(scratch: Path) -> list[Path]:
    """The golden file's roots; the two generated trees are written under ``scratch``."""
    sys.path.insert(0, str(ROOT / "bench"))
    import corpora  # the benchmark's tree generator

    lexicon = corpora.read_lexicon(ROOT / "src" / "codecloud" / "data")
    corpora.bodies_tree(scratch / "small", 1, lexicon, classes=145)
    return [*DEFAULT_ROOTS, no_java_tree(scratch), scratch / "small"]


def golden_digests(scratch: Path) -> dict[str, str]:
    """``"ROOT ARGS"`` -> SHA-256 of the outcome, for each golden root and matrix row.

    Each root is passed by its bare name from its parent directory, so no
    output names a temporary path; ``scratch`` holds the generated trees and
    the written file.
    """
    digests = {}
    for root in golden_roots(scratch):
        for invocation in MATRIX:
            command = (invocation[0], root.name, *invocation[1:])
            result = in_process_outcome(command, root.parent, scratch / "out")
            digests[" ".join(command)] = hashlib.sha256(repr(result).encode()).hexdigest()
    return digests


def write_golden() -> int:
    with tempfile.TemporaryDirectory(prefix="cli_diff-") as scratch:
        digests = golden_digests(Path(scratch))
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(digests, indent=1) + "\n")
    print(f"{GOLDEN.relative_to(ROOT)}: {len(digests)} invocations")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", nargs="?", help="git revision to compare against, e.g. HEAD~")
    parser.add_argument("roots", nargs="*", type=Path,
                        help="source trees to run on (default: the fixture trees and "
                             "a tree with no .java file)")
    parser.add_argument("--write-golden", action="store_true",
                        help=f"rewrite {GOLDEN.relative_to(ROOT)} from the working tree "
                             "instead of comparing")
    args = parser.parse_args(argv)
    if args.write_golden:
        if args.rev or args.roots:
            parser.error("--write-golden takes no REV or ROOT")
        sys.path.insert(0, str(ROOT / "src"))
        return write_golden()
    if args.rev is None:
        parser.error("REV is required")
    total = differ = 0
    with tempfile.TemporaryDirectory(prefix="cli_diff-") as scratch:
        old_src = extract_src(args.rev, Path(scratch))
        for root in args.roots or [*DEFAULT_ROOTS, no_java_tree(Path(scratch))]:
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
