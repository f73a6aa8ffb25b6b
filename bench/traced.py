"""Traced run: where one workload's time goes, layer by layer.

The spans are recorded here, in the benchmark, around in-process calls to
the public functions of each codecloud module; the program itself carries
no tracing.  Each repetition of the pipeline is one run id.  A span records
its name, start, end, parent and run id; spans stay in memory and are
written as JSON when the run ends.

Some spans are on the workload command's path (what ``codecloud cloud`` or
``eval`` itself calls); the others measure a layer on its own: split and
stem repeat work that ``build_cloud`` does, layout repeats work of the
renderer, oracle words repeat work of ``evaluate``, the sequential and pool
extractions pin down both sides of the tool's pool decision, and the
evaluator and renderer are off the path of the workloads that do not call
them.  ``trace.coverage`` sums the on-path spans, interpreter start and
import of ``codecloud.cli`` and divides by the untraced wall time of the
same command; the remainder is reported as tracing overhead (negative when
the spans explain more than the wall time).
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path

#: The end-to-end metric each layer should move, and on which workloads.
PREDICTIONS = {
    "cli": "setup_s on every workload; wall_s on small",
    "stemmer": "setup_s (load_lexicon); wall_s on vocab, then bodies (stem)",
    "extractor": "wall_s on bodies; the pool metrics also cpu_s on all three",
    "splitter": "wall_s on vocab",
    "cloudmodel": "wall_s on vocab and bodies",
    "renderer": "wall_s on small and bodies; small, about 1 ms at 116 tags",
    "evaluator": "wall_s on vocab only; no change on bodies and small",
}

#: Per-layer metrics and their units, in report order.
UNITS = {
    "cli.interp_s": "s",
    "cli.import_s": "s",
    "stemmer.load_lexicon_s": "s",
    "stemmer.stem_s": "s",
    "stemmer.calls": "count",
    "stemmer.distinct": "count",
    "stemmer.repeat_ratio": "ratio",
    "extractor.scan_tree_s": "s",
    "extractor.files": "count",
    "extractor.bytes": "bytes",
    "extractor.extract_seq_s": "s",
    "extractor.mb_per_s": "MB/s",
    "extractor.extract_pool_s": "s",
    "extractor.pool_speedup": "ratio",
    "extractor.identifiers": "count",
    "extractor.identifiers.package": "count",
    "extractor.identifiers.class": "count",
    "extractor.identifiers.attribute": "count",
    "extractor.identifiers.method": "count",
    "extractor.diagnostics": "count",
    "splitter.split_s": "s",
    "splitter.words": "count",
    "splitter.distinct_words": "count",
    "cloudmodel.build_cloud_s": "s",
    "cloudmodel.tags": "count",
    "renderer.layout_s": "s",
    "renderer.render_s": "s",
    "renderer.output_bytes": "bytes",
    "evaluator.oracle_words_s": "s",
    "evaluator.evaluate_s": "s",
    "evaluator.rows": "count",
    "evaluator.hit_ratio": "ratio",
    "trace.coverage": "ratio",
}

_PATH = ("stemmer.load_lexicon", "extractor.scan_tree", "extractor.extract_corpus",
         "cloudmodel.build_cloud")

IMPORT_PROBES = 5
IMPORTTIME_PROBES = 3
MIN_WALL_SAMPLES = 3


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run: int


class Tracer:
    def __init__(self):
        self.spans: list[Span | None] = []
        self.run = 0
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(None)
        self._open.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans[index] = Span(name, start, end, parent, self.run)

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [s.end - s.start for s in self.spans]
        for span in self.spans:
            if span.parent is not None:
                own[span.parent] -= span.end - span.start
        return own

    def medians(self) -> dict[str, tuple[float, float]]:
        """Span name -> (median duration, median self time) across runs."""
        durations: dict[str, list[float]] = {}
        selfs: dict[str, list[float]] = {}
        for span, own in zip(self.spans, self.self_times()):
            durations.setdefault(span.name, []).append(span.end - span.start)
            selfs.setdefault(span.name, []).append(own)
        return {name: (statistics.median(durations[name]), statistics.median(selfs[name]))
                for name in durations}


def _pipeline(t: Tracer, cc, root: Path, mode: str, show_freq: bool) -> dict:
    """One traced pass over every layer; returns counts and the cloud's tags."""
    from codecloud.evaluator import report_to_json_dict
    from codecloud.renderer import layout_cloud

    with t.span("run"):
        with t.span("stemmer.load_lexicon"):
            lexicon = cc.load_lexicon()
        with t.span("extractor.scan_tree"):
            units = cc.scan_tree(root)
        with t.span("extractor.extract_corpus"):
            ids = cc.extract_corpus(units)
        diagnostics = sum(len(unit.diagnostics) for unit in units)
        fresh = cc.scan_tree(root)
        with t.span("extractor.extract_seq"):
            cc.extract_corpus(fresh, parallel=False)
        fresh = cc.scan_tree(root)
        with t.span("extractor.extract_pool"):
            cc.extract_corpus(fresh, parallel=True)
        names = [identifier.simple_name for identifier in ids]
        with t.span("splitter.split"):
            split = [cc.split_identifier(name) for name in names]
        words = [word for parts in split for word in parts]
        with t.span("stemmer.stem"):
            [cc.stem_word(word, lexicon) for word in words]
        with t.span("cloudmodel.build_cloud"):
            cloud = cc.build_cloud(ids, cc.CloudKind.ALL, lexicon,
                                   cc.FilterConfig(show_frequency=show_freq), root.name)
        render = cc.render_html if mode == "html" else cc.render_svg
        with t.span("renderer.layout"):
            layout_cloud(cloud, cc.RenderConfig())
        with t.span("renderer.render"):
            text = render(cloud, cc.RenderConfig())
        with t.span("evaluator.oracle_words"):
            [cc.oracle_words(name, lexicon) for name in names]
        with t.span("evaluator.evaluate"):
            report = cc.evaluate(cloud, ids, lexicon)
        if mode == "eval":
            with t.span("evaluator.report_json"):
                json.dumps(report_to_json_dict(report), indent=2, sort_keys=True)

    kinds = Counter(identifier.kind.value.lower() for identifier in ids)
    rows = len(report.rows)
    return {
        "tags": {tag.stem: tag.weight for tag in cloud.tags},
        "all_perfect": report.all_perfect,
        "stemmer.calls": len(words),
        "stemmer.distinct": len(set(words)),
        "stemmer.repeat_ratio": 1 - len(set(words)) / len(words),
        "extractor.files": len(units),
        "extractor.bytes": sum(len(unit.text.encode("utf-8")) for unit in units),
        "extractor.identifiers": len(ids),
        **{f"extractor.identifiers.{k}": kinds[k]
           for k in ("package", "class", "attribute", "method")},
        "extractor.diagnostics": diagnostics,
        "splitter.words": len(words),
        "splitter.distinct_words": len(set(words)),
        "cloudmodel.tags": len(cloud.tags),
        "renderer.output_bytes": len(text.encode("utf-8")),
        "evaluator.rows": rows,
        "evaluator.hit_ratio": sum(r.oracle_frequency for r in report.rows) / (rows * len(ids)),
    }


def _importtime(runner) -> list[dict]:
    """Median self and cumulative import time per module, largest first."""
    times: dict[str, list[tuple[int, int]]] = {}
    for _ in range(IMPORTTIME_PROBES):
        runner(["-X", "importtime", "-c", "import codecloud.cli"])
        # Entries come children first; a top-level entry other than
        # codecloud.cli closes a subtree that start-up (site) imported.
        subtree = []
        for line in runner.errors().splitlines():
            fields = line.removeprefix("import time:").split("|")
            if len(fields) != 3 or not fields[0].strip().isdigit():
                continue
            name = fields[2].strip()
            subtree.append((name, int(fields[0]), int(fields[1])))
            if fields[2].startswith("  "):
                continue
            if name == "codecloud.cli":
                break
            subtree.clear()
        for name, own, cumulative in subtree:
            times.setdefault(name, []).append((own, cumulative))
    table = [
        {"module": name,
         "self_ms": statistics.median(s for s, _ in samples) / 1000,
         "cumulative_ms": statistics.median(c for _, c in samples) / 1000}
        for name, samples in times.items()
    ]
    table.sort(key=lambda row: -row["cumulative_ms"])
    return table[:15]


def run(name: str, runner, src: Path, command: list[str], tree, seconds: float,
        out: Path) -> dict:
    """The traced run of one workload; prints a report and writes ``out``."""
    mode = "eval" if "eval" in command else command[command.index("--format") + 1]
    show_freq = "--show-freq" in command
    started = time.perf_counter()

    # Untraced wall time of the command itself, the base of trace.coverage.
    walls = []
    while len(walls) < MIN_WALL_SAMPLES or time.perf_counter() - started < seconds / 3:
        walls.append(runner(command))
    wall = statistics.median(s.wall_s for s in walls)
    interp = statistics.median(runner(["-c", "pass"]).wall_s for _ in range(IMPORT_PROBES))
    imported = statistics.median(runner(["-c", "import codecloud.cli"]).wall_s
                                 for _ in range(IMPORT_PROBES))
    importtime = _importtime(runner)

    sys.path.insert(0, str(src))
    import codecloud as cc

    tracer = Tracer()
    counts = None
    while counts is None or time.perf_counter() - started < seconds:
        counts = _pipeline(tracer, cc, tree.root, mode, show_freq)
        tracer.run += 1

    medians = tracer.medians()
    on_path = _PATH + (("evaluator.evaluate", "evaluator.report_json") if mode == "eval"
                       else ("renderer.render",))
    import_s = imported - interp
    explained = interp + import_s + sum(medians[span][0] for span in on_path)
    metrics = {
        "cli.interp_s": interp,
        "cli.import_s": import_s,
        **{f"{span}_s": duration for span, (duration, _) in medians.items()
           if f"{span}_s" in UNITS},
        **{k: v for k, v in counts.items() if k in UNITS},
        "trace.coverage": explained / wall,
    }
    metrics["extractor.mb_per_s"] = counts["extractor.bytes"] / 1e6 / metrics["extractor.extract_seq_s"]
    metrics["extractor.pool_speedup"] = (metrics["extractor.extract_seq_s"]
                                         / metrics["extractor.extract_pool_s"])
    correct = (counts["tags"] == tree.truth and counts["all_perfect"]
               and all(s.exit_code == 0 for s in walls))

    _print_report(name, mode, medians, on_path, interp, import_s, wall, explained, importtime)
    for metric in UNITS:
        print(f"{name}: {metric} = {metrics[metric]:.6g} {UNITS[metric]}")
    out.write_text(json.dumps({
        "workload": name,
        "untraced_wall_s": [s.wall_s for s in walls],
        "on_path": list(on_path),
        "spans": [dict(asdict(span), self_s=own)
                  for span, own in zip(tracer.spans, tracer.self_times())],
        "metrics": metrics,
        "trace_overhead_s": explained - wall,
        "importtime_top": importtime,
        "predictions": PREDICTIONS,
    }, indent=1) + "\n")
    print(f"{name}: spans written to {out}")
    return {
        "correct": correct,
        "attempted": len(walls) + tracer.run,
        "metrics": {k: {"value": metrics[k], "unit": UNITS[k]} for k in UNITS},
    }


def _print_report(name, mode, medians, on_path, interp, import_s, wall, explained,
                  importtime) -> None:
    print(f"{name}: untraced wall_s {wall:.4f} s ({mode}); spans, median over runs:")
    rows = [("cli.interp", interp, interp), ("cli.import", import_s, import_s)]
    rows += [(span, *medians[span]) for span in medians]
    for span, duration, own in rows:
        where = "path" if span in on_path or span.startswith("cli.") else "    "
        print(f"  {where} {span:<26} {duration * 1000:9.1f} ms  self {own * 1000:9.1f} ms"
              f"  {duration / wall:6.1%} of wall")
    ranked = sorted(((d, s) for s, d, _ in rows if s in on_path or s.startswith("cli.")),
                    reverse=True)
    print(f"{name}: largest on-path span {ranked[0][1]} ({ranked[0][0] / wall:.1%} of wall);"
          f" coverage {explained / wall:.3f}, tracing overhead {explained - wall:+.4f} s")
    print(f"{name}: import time of codecloud.cli, top modules by cumulative ms:")
    for row in importtime:
        print(f"  {row['module']:<32} self {row['self_ms']:7.2f}  cumulative {row['cumulative_ms']:7.2f}")
    for layer, effect in PREDICTIONS.items():
        print(f"{name}: prediction {layer}: {effect}")
