"""Command-line interface: scan a Java tree and emit clouds, stats, or evals.

Exit codes: 0 success, 1 usage error, 2 I/O error, 3 no identifiers found,
4 evaluation found an imperfect tag (regression signal).

A module that only some commands use (the renderer, the evaluator) is
imported by those commands, and ``csv`` and ``json`` only by the commands
that write them, so start-up loads only what a command runs.
"""

from __future__ import annotations

import argparse
import sys
import time
from collections import Counter
from contextlib import nullcontext
from itertools import chain
from pathlib import Path
from typing import Iterable, Iterator

from . import __version__
from .cloudmodel import CloudKind, FilterConfig, build_cloud, build_tags, cloud_to_json_dict
from .extractor import (
    CorpusError,
    Identifier,
    IdentifierKind,
    extract_units,
    identifier_to_dict,
    iter_tree,
)
from .stemmer import LexiconError, load_lexicon

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_EMPTY = 3
EXIT_IMPERFECT = 4

#: Characters gathered into one write; with ``PYTHONUNBUFFERED`` set, each
#: write to standard output is a system call.
_WRITE_BATCH = 1 << 16

_KIND_NAMES = {kind.name.lower(): kind for kind in CloudKind}


class _ArgumentParser(argparse.ArgumentParser):
    """argparse maps usage errors to exit 2 by default; this tool uses 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _add_corpus_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("root", help="root directory of the Java source tree")
    parser.add_argument("--stopwords", metavar="FILE", help="override the stop-word list")
    parser.add_argument("--exceptions", metavar="FILE", help="override the stemming exception map")
    parser.add_argument("--no-stopwords", action="store_true", help="keep stop words as tags")


def _add_filter_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--min-tag-len",
        type=int,
        metavar="N",
        default=None,
        help="enable the short-tag filter: drop tags shorter than N characters",
    )
    parser.add_argument(
        "--show-freq",
        action="store_true",
        help="annotate each tag with its bracketed weight",
    )


def _add_output_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "-o",
        "--out",
        default="-",
        metavar="PATH",
        help="output path, or - for standard output (default)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="codecloud",
        description="Turn the identifier names of a Java source tree into tag clouds.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)

    cloud = subparsers.add_parser("cloud", help="render a tag cloud")
    _add_corpus_arguments(cloud)
    _add_filter_arguments(cloud)
    _add_output_argument(cloud)
    cloud.add_argument(
        "--kind",
        choices=sorted(_KIND_NAMES),
        default="all",
        help="identifier granularity of the cloud (default: all)",
    )
    cloud.add_argument(
        "--format",
        choices=("svg", "html", "json", "csv"),
        default="svg",
        help="output format (default: svg)",
    )
    cloud.add_argument("--page-width", type=int, default=1000, metavar="PX")
    cloud.add_argument("--min-font", type=float, default=10.0, metavar="PT")
    cloud.add_argument("--max-font", type=float, default=40.0, metavar="PT")
    cloud.add_argument("--title-case", action="store_true", help="capitalize tag labels")
    cloud.set_defaults(handler=cmd_cloud)

    for name, purpose, handler in (
        ("stats", "print corpus statistics", cmd_stats),
        ("eval", "check every tag weight against the independent oracle", cmd_eval),
    ):
        report = subparsers.add_parser(name, help=purpose)
        _add_corpus_arguments(report)
        report.add_argument(
            "--format",
            choices=("table", "csv", "json"),
            default="table",
            help="output format (default: table)",
        )
        _add_output_argument(report)
        report.set_defaults(handler=handler)

    dump = subparsers.add_parser("dump-identifiers", help="dump extracted identifiers as JSON")
    dump.add_argument("root", help="root directory of the Java source tree")
    _add_output_argument(dump)
    dump.set_defaults(handler=cmd_dump_identifiers)

    return parser


def _load_lexicon(args):
    return load_lexicon(exceptions_path=args.exceptions, stopwords_path=args.stopwords)


class _Corpus:
    """The identifiers of a tree, one file at a time, counted as they pass.

    The tree is listed when this is made.  Iterating reads a file, extracts
    it, prints its warnings and yields its identifiers before it reads the
    next, in path order, so only the file at hand is held.  A command that
    builds its tags without names (``cloud`` in svg, html and csv, and
    ``stats``) keeps nothing of a file's identifiers after the next file is
    read; ``eval`` and ``cloud --format json`` keep each one's qualified
    name in its tags.
    """

    def __init__(self, root: str):
        self._units = iter_tree(root)
        self.count = 0

    def __iter__(self) -> Iterator[Identifier]:
        for unit, ids, diagnostics in extract_units(self._units):
            for diagnostic in diagnostics:
                print(
                    f"warning: {unit.path}:{diagnostic.line}: {diagnostic.message}",
                    file=sys.stderr,
                )
            self.count += len(ids)
            yield from ids


def _write_output(chunks: Iterable[str], out: str) -> None:
    """Write ``chunks`` to ``out`` (``-`` is standard output), about 64 KB a write.

    ``out`` is opened only once the first write is joined, so warnings the
    chunks print before then still come first when opening it fails.
    """
    batches = _batched(chunks)
    first = next(batches)
    with nullcontext(sys.stdout) if out == "-" else open(out, "w", encoding="utf-8") as stream:
        stream.write(first)
        stream.writelines(batches)


def _batched(chunks: Iterable[str]) -> Iterator[str]:
    """``chunks`` joined into strings of about ``_WRITE_BATCH`` characters, at least one."""
    pending: list[str] = []
    size = 0
    for chunk in chunks:
        pending.append(chunk)
        size += len(chunk)
        if size >= _WRITE_BATCH:
            yield "".join(pending)
            pending.clear()
            size = 0
    yield "".join(pending)


def _csv(header: Iterable, rows: Iterable[Iterable]) -> str:
    """``header`` and then each of ``rows`` as a CSV line ending in ``\\n``."""
    import csv
    import io

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def _json(value) -> Iterator[str]:
    """``json.dumps(value, indent=2, sort_keys=True)`` and a newline, a piece at a time."""
    import json

    return chain(json.JSONEncoder(indent=2, sort_keys=True).iterencode(value), ["\n"])


def _corpus_label(root: str) -> str:
    name = Path(root).name
    return name or str(root)


def cmd_cloud(args) -> int:
    from .renderer import RenderConfig, render_html, render_svg

    cfg = FilterConfig(
        min_tag_length=args.min_tag_len,
        show_frequency=args.show_freq,
        stop_words_enabled=not args.no_stopwords,
    )
    render_cfg = RenderConfig(
        page_width_px=args.page_width,
        min_font_pt=args.min_font,
        max_font_pt=args.max_font,
        title_case=args.title_case,
    )
    lexicon = _load_lexicon(args)
    started = time.perf_counter()
    corpus = _Corpus(args.root)
    kind = _KIND_NAMES[args.kind]
    names = args.format == "json"  # the drawings and the CSV need the weights alone
    cloud = build_cloud(corpus, kind, lexicon, cfg, _corpus_label(args.root), names)
    if not corpus.count:
        print(f"no identifiers found under {args.root}", file=sys.stderr)
        return EXIT_EMPTY
    if args.format == "svg":
        chunks = [render_svg(cloud, render_cfg)]
    elif args.format == "html":
        chunks = [render_html(cloud, render_cfg)]
    elif args.format == "json":
        chunks = _json(cloud_to_json_dict(cloud))
    else:  # csv
        chunks = [_csv(("stem", "weight"), ((tag.stem, tag.weight) for tag in cloud.tags))]
    _write_output(chunks, args.out)  # the JSON is encoded as it is written
    elapsed_ms = int((time.perf_counter() - started) * 1000)
    print(
        f"identifiers={corpus.count} tags={len(cloud.tags)} elapsed_ms={elapsed_ms}",
        file=sys.stderr,
    )
    return EXIT_OK


def _counted(ids: Iterable[Identifier], kind_counts: Counter) -> Iterator[Identifier]:
    """Yield ``ids``, counting each one's kind in ``kind_counts`` as it passes."""
    for identifier in ids:
        kind_counts[identifier.kind] += 1
        yield identifier


def cmd_stats(args) -> int:
    lexicon = _load_lexicon(args)
    started = time.perf_counter()
    corpus = _Corpus(args.root)
    kind_counts: Counter = Counter()
    cfg = FilterConfig(stop_words_enabled=not args.no_stopwords)
    tags = build_tags(_counted(corpus, kind_counts), CloudKind.ALL, lexicon, cfg, names=False)
    row = {
        "corpus": _corpus_label(args.root),
        "packages": kind_counts[IdentifierKind.PACKAGE],
        "classes": kind_counts[IdentifierKind.CLASS],
        "attributes": kind_counts[IdentifierKind.ATTRIBUTE],
        "methods": kind_counts[IdentifierKind.METHOD],
        "identifiers": kind_counts.total(),
        "tags": len(tags),
        "elapsed_ms": int((time.perf_counter() - started) * 1000),
    }
    if args.format == "csv":
        chunks = [_csv(row, [row.values()])]
    elif args.format == "json":
        chunks = _json(row)
    else:
        widths = {name: max(len(name), len(str(value))) for name, value in row.items()}
        header = "  ".join(f"{name:>{widths[name]}}" for name in row)
        values = "  ".join(f"{value!s:>{widths[name]}}" for name, value in row.items())
        chunks = [header + "\n" + values + "\n"]
    _write_output(chunks, args.out)
    if not corpus.count:
        print(f"no identifiers found under {args.root}", file=sys.stderr)
        return EXIT_EMPTY
    return EXIT_OK


def _format_eval_table(report) -> str:
    lines = [
        f"{'stem':<24} {'cloud':>6} {'oracle':>6} {'precision':>9} {'recall':>9} {'fMeasure':>9}"
    ]
    for row in report.rows:
        lines.append(
            f"{row.stem:<24} {row.cloud_frequency:>6} {row.oracle_frequency:>6} "
            f"{row.precision:>9.4f} {row.recall:>9.4f} {row.f_measure:>9.4f}"
        )
    lines.append(f"all tags perfect: {'yes' if report.all_perfect else 'NO'}")
    return "\n".join(lines) + "\n"


def cmd_eval(args) -> int:
    from .evaluator import _CSV_COLUMNS, report_to_json, score, tally_oracle

    lexicon = _load_lexicon(args)
    corpus = _Corpus(args.root)
    cfg = FilterConfig(stop_words_enabled=not args.no_stopwords)
    tally: dict[str, list[str]] = {}
    ids = tally_oracle(corpus, tally, lexicon, CloudKind.ALL, cfg.stop_words_enabled)
    cloud = build_cloud(ids, CloudKind.ALL, lexicon, cfg, _corpus_label(args.root))
    if not corpus.count:
        print(f"no identifiers found under {args.root}", file=sys.stderr)
        return EXIT_EMPTY
    report = score(cloud, tally)
    if args.format == "csv":
        rows = ([f"{v:.6g}" if isinstance(v, float) else v for v in row] for row in report.rows)
        chunks = [_csv(_CSV_COLUMNS, rows)]
    elif args.format == "json":
        chunks = report_to_json(report)
    else:
        chunks = [_format_eval_table(report)]
    _write_output(chunks, args.out)
    return EXIT_OK if report.all_perfect else EXIT_IMPERFECT


def _dump_chunks(ids: Iterable[Identifier]) -> Iterator[str]:
    """``json.dumps`` of the identifiers' dicts with ``indent=2``, one item at a time."""
    import json

    separator = "[\n  "
    for i in ids:
        yield separator + json.dumps(identifier_to_dict(i), indent=2).replace("\n", "\n  ")
        separator = ",\n  "
    yield "\n]\n" if separator == ",\n  " else "[]\n"


def cmd_dump_identifiers(args) -> int:
    corpus = _Corpus(args.root)
    _write_output(_dump_chunks(corpus), args.out)
    if not corpus.count:
        print(f"no identifiers found under {args.root}", file=sys.stderr)
        return EXIT_EMPTY
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (CorpusError, LexiconError, OSError) as exc:
        print(f"codecloud: error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:  # config validation (flag values out of range)
        print(f"codecloud: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
