"""Command-line interface: scan a Java tree and emit clouds, stats, or evals.

Exit codes: 0 success, 1 usage error, 2 I/O error, 3 no identifiers found,
4 evaluation found an imperfect tag (regression signal).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from . import __version__
from .cloudmodel import (
    CloudKind,
    FilterConfig,
    build_cloud,
    build_tags,
    cloud_to_json_dict,
    compute_stats,
    stats_to_csv,
    stats_to_row,
)
from .evaluator import evaluate, report_to_csv, report_to_json_dict
from .extractor import CorpusError, extract_corpus, identifier_to_dict, scan_tree
from .renderer import RenderConfig, render_html, render_svg
from .stemmer import LexiconError, load_lexicon

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_EMPTY = 3
EXIT_IMPERFECT = 4

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


def _add_filter_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--min-tag-len",
        type=int,
        metavar="N",
        default=None,
        help="enable the short-tag filter: drop tags shorter than N characters",
    )
    parser.add_argument(
        "--no-short-filter",
        action="store_true",
        help="force the short-tag filter off",
    )
    parser.add_argument(
        "--show-freq",
        action="store_true",
        help="annotate each tag with its bracketed weight",
    )
    parser.add_argument(
        "--no-stopwords",
        action="store_true",
        help="keep stop words as tags",
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
        report.add_argument("--no-stopwords", action="store_true", help="keep stop words as tags")
        report.add_argument(
            "--format",
            choices=("table", "csv", "json"),
            default="table",
            help="output format (default: table)",
        )
        _add_output_argument(report)
        report.set_defaults(handler=handler)

    dump = subparsers.add_parser("dump-identifiers", help="dump extracted identifiers as JSON")
    _add_corpus_arguments(dump)
    _add_output_argument(dump)
    dump.set_defaults(handler=cmd_dump_identifiers)

    return parser


def _load_lexicon(args):
    return load_lexicon(exceptions_path=args.exceptions, stopwords_path=args.stopwords)


def _load_corpus(args):
    units = scan_tree(args.root)
    ids = extract_corpus(units)
    for unit in units:
        for diagnostic in unit.diagnostics:
            print(
                f"warning: {unit.path}:{diagnostic.line}: {diagnostic.message}",
                file=sys.stderr,
            )
    return ids


def _filter_config(args) -> FilterConfig:
    short_enabled = args.min_tag_len is not None and not args.no_short_filter
    return FilterConfig(
        short_tag_enabled=short_enabled,
        min_tag_length=args.min_tag_len if args.min_tag_len is not None else 4,
        show_frequency=args.show_freq,
        stop_words_enabled=not args.no_stopwords,
    )


def _write_output(text: str, out: str) -> None:
    if out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _corpus_label(root: str) -> str:
    name = Path(root).name
    return name or str(root)


def cmd_cloud(args) -> int:
    lexicon = _load_lexicon(args)
    started = time.perf_counter()
    ids = _load_corpus(args)
    if not ids:
        print(f"no identifiers found under {args.root}", file=sys.stderr)
        return EXIT_EMPTY
    cfg = _filter_config(args)
    cloud = build_cloud(ids, _KIND_NAMES[args.kind], lexicon, cfg, _corpus_label(args.root))
    render_cfg = RenderConfig(
        page_width_px=args.page_width,
        min_font_pt=args.min_font,
        max_font_pt=args.max_font,
        title_case=args.title_case,
    )
    if args.format == "svg":
        text = render_svg(cloud, render_cfg)
    elif args.format == "html":
        text = render_html(cloud, render_cfg)
    elif args.format == "json":
        text = json.dumps(cloud_to_json_dict(cloud), indent=2, sort_keys=True) + "\n"
    else:  # csv
        lines = ["stem,weight"]
        lines.extend(f"{tag.stem},{tag.weight}" for tag in cloud.tags)
        text = "\n".join(lines) + "\n"
    elapsed_ms = int((time.perf_counter() - started) * 1000)
    _write_output(text, args.out)
    print(
        f"identifiers={len(ids)} tags={len(cloud.tags)} elapsed_ms={elapsed_ms}",
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_stats(args) -> int:
    lexicon = _load_lexicon(args)
    started = time.perf_counter()
    ids = _load_corpus(args)
    cfg = FilterConfig(stop_words_enabled=not args.no_stopwords)
    tags = build_tags(ids, CloudKind.ALL, lexicon, cfg)
    elapsed_ms = int((time.perf_counter() - started) * 1000)
    stats = compute_stats(ids, tags, elapsed_ms)
    label = _corpus_label(args.root)
    row = stats_to_row(stats, label)
    if args.format == "csv":
        text = stats_to_csv(stats, label)
    elif args.format == "json":
        text = json.dumps(row, indent=2, sort_keys=True) + "\n"
    else:
        widths = {name: max(len(name), len(str(value))) for name, value in row.items()}
        header = "  ".join(f"{name:>{widths[name]}}" for name in row)
        values = "  ".join(f"{value!s:>{widths[name]}}" for name, value in row.items())
        text = header + "\n" + values + "\n"
    _write_output(text, args.out)
    if not ids:
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
    lexicon = _load_lexicon(args)
    ids = _load_corpus(args)
    if not ids:
        print(f"no identifiers found under {args.root}", file=sys.stderr)
        return EXIT_EMPTY
    cfg = FilterConfig(
        short_tag_enabled=False,
        show_frequency=False,
        stop_words_enabled=not args.no_stopwords,
    )
    cloud = build_cloud(ids, CloudKind.ALL, lexicon, cfg, _corpus_label(args.root))
    report = evaluate(cloud, ids, lexicon)
    if args.format == "csv":
        text = report_to_csv(report)
    elif args.format == "json":
        text = json.dumps(report_to_json_dict(report), indent=2, sort_keys=True) + "\n"
    else:
        text = _format_eval_table(report)
    _write_output(text, args.out)
    return EXIT_OK if report.all_perfect else EXIT_IMPERFECT


def cmd_dump_identifiers(args) -> int:
    _load_lexicon(args)  # validates overrides even though the dump ignores them
    ids = _load_corpus(args)
    text = json.dumps([identifier_to_dict(i) for i in ids], indent=2) + "\n"
    _write_output(text, args.out)
    if not ids:
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


if __name__ == "__main__":
    sys.exit(main())
