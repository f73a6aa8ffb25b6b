import inspect
import io
import json
import os
import re
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from codecloud import (
    CloudKind,
    FilterConfig,
    RenderConfig,
    Tag,
    build_cloud,
    build_tags,
    cli,
    cloudmodel,
    evaluator,
    extract_corpus,
    extractor,
    render_svg,
    scan_tree,
    split_identifier,
)

SVG_NS = "{http://www.w3.org/2000/svg}"


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "codecloud", *map(str, args)],
        capture_output=True,
        text=True,
    )


def _svg_texts(svg_text):
    return ET.fromstring(svg_text).findall(f".//{SVG_NS}text")


def test_cloud_svg_success(drawing_shapes_dir, tmp_path):
    out = tmp_path / "cloud.svg"
    result = run_cli("cloud", drawing_shapes_dir, "--format", "svg", "-o", out)
    assert result.returncode == 0
    assert "identifiers=32" in result.stderr
    assert "tags=20" in result.stderr
    texts = _svg_texts(out.read_text())
    largest = max(float(t.get("font-size")) for t in texts)
    biggest_tags = {t.text for t in texts if float(t.get("font-size")) == largest}
    assert biggest_tags == {"draw", "shape"}


def test_cloud_writes_to_stdout(drawing_shapes_dir):
    result = run_cli("cloud", drawing_shapes_dir, "--format", "svg")
    assert result.returncode == 0
    assert result.stdout.startswith("<?xml")


def test_cloud_short_filter_and_frequency(drawing_shapes_dir):
    result = run_cli(
        "cloud", drawing_shapes_dir, "--min-tag-len", "4", "--show-freq", "--format", "svg"
    )
    assert result.returncode == 0
    texts = _svg_texts(result.stdout)
    labels = [t for t in texts if not t.text.startswith("[")]
    freqs = [t for t in texts if t.text.startswith("[")]
    assert labels and len(labels) == len(freqs)
    assert all(len(t.text) >= 4 for t in labels)
    assert all(t.get("fill") == "red" for t in freqs)
    assert all(t.get("fill") == "black" for t in labels)


def test_cloud_keeps_short_tags_without_min_tag_len(drawing_shapes_dir):
    result = run_cli("cloud", drawing_shapes_dir, "--format", "csv")
    assert result.returncode == 0
    assert "x,1" in result.stdout.splitlines()


def test_cloud_empty_directory(tmp_path):
    result = run_cli("cloud", tmp_path)
    assert result.returncode == 3
    assert "no identifiers" in result.stderr


def test_cloud_missing_root(tmp_path):
    result = run_cli("cloud", tmp_path / "nope")
    assert result.returncode == 2


def test_cloud_root_that_cannot_be_listed_is_an_io_error(tmp_path, monkeypatch, capsys):
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "A.java").write_text("class A {}")
    (tmp_path / "File.java").write_text("class F {}")
    scandir = os.scandir

    def refusing_scandir(path):
        if Path(path).name == "src":
            raise PermissionError(13, "Permission denied", os.fspath(path))
        return scandir(path)

    monkeypatch.setattr(os, "scandir", refusing_scandir)
    for root in (tmp_path / "nope", tmp_path / "File.java", tmp_path / "src"):
        assert cli.main(["cloud", str(root)]) == 2
        error = capsys.readouterr().err
        assert error == f"codecloud: error: source root is not a readable directory: {root}\n"


def test_cloud_lists_a_file_name_that_is_not_utf8(tmp_path):
    (tmp_path / os.fsdecode(b"\xffA.java")).write_text("class Alpha { int one; }")
    (tmp_path / "B.java").write_text("class Beta { int two; }")
    result = run_cli("cloud", tmp_path, "--format", "csv")
    assert result.returncode == 0
    assert re.fullmatch(r"identifiers=4 tags=\d+ elapsed_ms=\d+\n", result.stderr)
    assert {"alpha,1", "beta,1", "one,1", "two,1"} <= set(result.stdout.splitlines())


def test_usage_error_is_exit_one(drawing_shapes_dir):
    assert run_cli("cloud").returncode == 1
    assert run_cli("cloud", drawing_shapes_dir, "--format", "bogus").returncode == 1
    assert run_cli("unknown-command").returncode == 1


def test_out_of_range_flag_values_are_usage_errors(drawing_shapes_dir):
    result = run_cli("cloud", drawing_shapes_dir, "--min-tag-len", "0")
    assert result.returncode == 1
    assert "min_tag_length" in result.stderr and "Traceback" not in result.stderr
    result = run_cli("cloud", drawing_shapes_dir, "--page-width", "-5")
    assert result.returncode == 1
    assert "Traceback" not in result.stderr
    for fonts in (("--min-font", "nan"), ("--max-font", "inf"),
                  ("--min-font", "-5", "--max-font", "-1")):
        result = run_cli("cloud", drawing_shapes_dir, *fonts)
        assert result.returncode == 1 and result.stdout == "", fonts
        assert result.stderr.startswith("codecloud: error: font sizes must satisfy"), fonts


def test_kind_selection(drawing_shapes_dir):
    result = run_cli("cloud", drawing_shapes_dir, "--kind", "package", "--format", "csv")
    assert result.returncode == 0
    assert result.stdout.splitlines() == ["stem,weight", "shape,1"]


def test_kind_clouds_decompose_to_all(drawing_shapes_dir):
    weights: dict[str, int] = {}
    for kind in ("package", "class", "attribute", "method"):
        result = run_cli("cloud", drawing_shapes_dir, "--kind", kind, "--format", "csv")
        assert result.returncode == 0
        for line in result.stdout.splitlines()[1:]:
            stem, weight = line.rsplit(",", 1)
            weights[stem] = weights.get(stem, 0) + int(weight)
    result = run_cli("cloud", drawing_shapes_dir, "--kind", "all", "--format", "csv")
    all_weights = {
        line.rsplit(",", 1)[0]: int(line.rsplit(",", 1)[1])
        for line in result.stdout.splitlines()[1:]
    }
    assert weights == all_weights


def test_render_flags_respected(drawing_shapes_dir):
    result = run_cli(
        "cloud", drawing_shapes_dir, "--format", "html", "--title-case",
        "--page-width", "800", "--min-font", "12", "--max-font", "30",
    )
    assert result.returncode == 0
    assert "width:800px" in result.stdout
    assert ">Draw</span>" in result.stdout
    assert "font-size:30.00pt" in result.stdout
    assert "font-size:12.00pt" in result.stdout


@pytest.mark.parametrize(
    "root, counts",
    [
        # corpus, packages, classes, attributes, methods, identifiers, tags
        ("drawing_shapes_dir", ["drawing_shapes", "1", "6", "10", "15", "32", "20"]),
        ("menagerie_dir", ["menagerie", "2", "7", "13", "15", "37"]),
    ],
    ids=["drawing_shapes", "menagerie"],
)
def test_stats_table_and_csv(request, root, counts):
    root = request.getfixturevalue(root)
    table = run_cli("stats", root)
    assert table.returncode == 0
    assert table.stdout.splitlines()[0].split() == [
        "corpus", "packages", "classes", "attributes", "methods",
        "identifiers", "tags", "elapsed_ms",
    ]
    csv_out = run_cli("stats", root, "--format", "csv")
    row = csv_out.stdout.splitlines()[1].split(",")
    assert row[:len(counts)] == counts
    packages, classes, attributes, methods, identifiers = map(int, row[1:6])
    assert packages + classes + attributes + methods == identifiers


def test_stats_csv_quotes_the_corpus_label(tmp_path, capsys):
    root = tmp_path / 'a,"b"'
    root.mkdir()
    (root / "A.java").write_text("class A { int size; }\n")
    assert cli.main(["stats", str(root), "--format", "csv"]) == 0
    row = capsys.readouterr().out.splitlines()[1]
    assert row.startswith('"a,""b""",0,1,1,0,2,')


def test_stats_empty_directory(tmp_path):
    result = run_cli("stats", tmp_path)
    assert result.returncode == 3
    assert ",0,0,0,0,0,0," in run_cli("stats", tmp_path, "--format", "csv").stdout


def test_eval_perfect_on_fixture(drawing_shapes_dir):
    result = run_cli("eval", drawing_shapes_dir)
    assert result.returncode == 0
    assert "all tags perfect: yes" in result.stdout


def test_eval_corrupted_weights_exit_four(drawing_shapes_dir, monkeypatch, capsys):
    def raised_weights(*args):
        cloud = build_cloud(*args)
        tags = tuple(Tag(tag.stem, tag.weight + 5, tag.contributors) for tag in cloud.tags)
        return cloud._replace(tags=tags)

    monkeypatch.setattr(cli, "build_cloud", raised_weights)
    assert cli.main(["eval", str(drawing_shapes_dir)]) == 4
    assert "all tags perfect: NO" in capsys.readouterr().out


def _one_raised_weight(*args):
    """``build_cloud`` with the ``get`` tag's weight raised by one: 2 -> 3 on drawing_shapes."""
    cloud = build_cloud(*args)
    tags = tuple(
        tag._replace(weight=tag.weight + 1) if tag.stem == "get" else tag for tag in cloud.tags
    )
    return cloud._replace(tags=tags)


def test_eval_csv_writes_ratios_in_six_significant_digits(
    drawing_shapes_dir, monkeypatch, capsys
):
    monkeypatch.setattr(cli, "build_cloud", _one_raised_weight)
    assert cli.main(["eval", str(drawing_shapes_dir), "--format", "csv"]) == 4
    lines = capsys.readouterr().out.splitlines()
    assert "get,3,2,0.666667,1,0.8" in lines
    assert "draw,10,10,1,1,1" in lines


def test_eval_json_writes_an_imperfect_report_as_json_dumps_does(
    drawing_shapes_dir, monkeypatch, capsys
):
    def refused(*args, **kwargs):
        raise AssertionError("eval --format json builds no per-row dict and no JSONEncoder")

    monkeypatch.setattr(cli, "build_cloud", _one_raised_weight)
    monkeypatch.setattr(evaluator, "report_to_json_dict", refused)
    monkeypatch.setattr(json.JSONEncoder, "iterencode", refused)
    assert cli.main(["eval", str(drawing_shapes_dir), "--format", "json"]) == 4
    monkeypatch.undo()  # json.dumps below runs JSONEncoder.iterencode
    out = capsys.readouterr().out
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"
    assert '"precision": 0.6666666666666666' in out
    assert '"allPerfect": false' in out


def test_eval_empty_directory(tmp_path):
    assert run_cli("eval", tmp_path).returncode == 3


def test_eval_csv_format(drawing_shapes_dir):
    result = run_cli("eval", drawing_shapes_dir, "--format", "csv")
    assert result.returncode == 0
    assert result.stdout.splitlines()[0] == "stem,cloudFreq,oracleFreq,precision,recall,fMeasure"


def test_dump_identifiers(drawing_shapes_dir):
    result = run_cli("dump-identifiers", drawing_shapes_dir)
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert len(payload) == 32
    assert payload[0]["kind"] == "Package"
    assert set(payload[0]) == {"kind", "simpleName", "qualifiedName", "file", "line"}


def test_dump_identifiers_takes_no_lexicon_option(drawing_shapes_dir, tmp_path):
    stops = tmp_path / "stops.txt"
    stops.write_text("shape\n")
    result = run_cli("dump-identifiers", drawing_shapes_dir, "--stopwords", stops)
    assert result.returncode == 1
    assert "unrecognized arguments: --stopwords" in result.stderr


def test_stopwords_override(drawing_shapes_dir, tmp_path):
    stops = tmp_path / "stops.txt"
    stops.write_text("draw\n")
    result = run_cli(
        "cloud", drawing_shapes_dir, "--stopwords", stops, "--format", "csv"
    )
    assert result.returncode == 0
    stems = [line.split(",")[0] for line in result.stdout.splitlines()[1:]]
    assert "draw" not in stems
    assert "the" not in stems  # override replaces rather than extends
    assert "all" in stems  # default list no longer applies


def test_exceptions_override(drawing_shapes_dir, tmp_path):
    excs = tmp_path / "excs.txt"
    excs.write_text("drawing sketch\n")
    result = run_cli(
        "cloud", drawing_shapes_dir, "--exceptions", excs, "--format", "csv"
    )
    assert result.returncode == 0
    table = dict(
        line.rsplit(",", 1) for line in result.stdout.splitlines()[1:]
    )
    assert "sketch" in table


def test_missing_override_file_is_io_error(drawing_shapes_dir, tmp_path):
    result = run_cli("cloud", drawing_shapes_dir, "--stopwords", tmp_path / "absent.txt")
    assert result.returncode == 2


def test_no_stopwords_flag(drawing_shapes_dir):
    result = run_cli("cloud", drawing_shapes_dir, "--no-stopwords", "--format", "csv")
    assert result.returncode == 0
    stems = [line.split(",")[0] for line in result.stdout.splitlines()[1:]]
    assert "all" in stems


def test_determinism_cli_runs_and_list_api(big_corpus, lexicon):
    root = big_corpus.root
    ids = extract_corpus(scan_tree(root))
    cloud = build_cloud(ids, CloudKind.ALL, lexicon, FilterConfig(), root.name)
    expected = render_svg(cloud, RenderConfig())
    for _ in range(2):
        result = run_cli("cloud", root, "--format", "svg")
        assert result.returncode == 0
        assert result.stdout == expected


def test_cli_starts_no_worker_process(big_corpus, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", no_pool)
    root = big_corpus.root
    assert cli.main(["cloud", str(root), "--format", "svg"]) == 0
    assert cli.main(["eval", str(root)]) == 0
    assert extract_corpus(scan_tree(root), parallel=True)  # the keyword is ignored


def test_cloud_holds_one_file_at_a_time(big_corpus, monkeypatch):
    events = []
    read_unit, extract_identifiers = extractor._read_unit, extractor.extract_identifiers

    def logged_read_unit(rel, path):
        events.append("read")
        return read_unit(rel, path)

    def logged_extract_identifiers(unit):
        events.append("extract")
        return extract_identifiers(unit)

    monkeypatch.setattr(extractor, "_read_unit", logged_read_unit)
    monkeypatch.setattr(extractor, "extract_identifiers", logged_extract_identifiers)
    assert cli.main(["cloud", str(big_corpus.root), "--format", "csv"]) == 0
    files = len(list(big_corpus.root.rglob("*.java")))
    assert events == ["read", "extract"] * files


@pytest.mark.parametrize(
    "command, used",
    [
        (["cloud", "--format", "csv"], ["weigh"]),
        (["stats"], ["weigh"]),
        (["eval", "--format", "json"], ["weigh", "oracle"]),
        (["dump-identifiers"], ["dump"]),
    ],
    ids=["cloud", "stats", "eval", "dump-identifiers"],
)
def test_commands_use_each_file_before_the_last_is_read(
    big_corpus, tmp_path, monkeypatch, command, used
):
    events = []

    def logged(name, function):
        def wrapper(*args):
            events.append(name)
            return function(*args)
        return wrapper

    monkeypatch.setattr(extractor, "_read_unit", logged("read", extractor._read_unit))
    monkeypatch.setattr(cloudmodel, "split_identifier", logged("weigh", split_identifier))
    monkeypatch.setattr(evaluator, "_split_batch", logged("oracle", evaluator._split_batch))
    monkeypatch.setattr(cli, "identifier_to_dict", logged("dump", cli.identifier_to_dict))
    out = tmp_path / "out"
    assert cli.main([command[0], str(big_corpus.root), *command[1:], "-o", str(out)]) == 0
    last_read = len(events) - 1 - events[::-1].index("read")
    for name in used:
        assert events.index(name) < last_read, name


@pytest.mark.parametrize(
    "command, names",
    [
        (["cloud", "--format", "svg"], False),
        (["cloud", "--format", "html"], False),
        (["cloud", "--format", "csv"], False),
        (["stats"], False),
        (["cloud", "--format", "json"], True),
        (["eval"], True),
    ],
    ids=["cloud-svg", "cloud-html", "cloud-csv", "stats", "cloud-json", "eval"],
)
def test_commands_keep_contributor_names_only_to_write_or_score_them(
    drawing_shapes_dir, tmp_path, monkeypatch, command, names
):
    asked = []

    def recorded(build):
        signature = inspect.signature(build)

        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            asked.append(bound.arguments["names"])
            return build(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(cli, "build_cloud", recorded(build_cloud))
    monkeypatch.setattr(cli, "build_tags", recorded(build_tags))
    out = tmp_path / "out"
    assert cli.main([command[0], str(drawing_shapes_dir), *command[1:], "-o", str(out)]) == 0
    assert asked == [names]


def test_warnings_stream_file_by_file(tmp_path, capsys):
    (tmp_path / "A.java").write_text("class Alpha {\n    void m(\n}\n")
    (tmp_path / "B.java").write_text("class Beta { int b; }\n")
    (tmp_path / "C.java").write_bytes(b"class Gamma { // caf\xe9\n    void f() {}\n}}\n")
    warnings = [
        "warning: A.java:2: unbalanced '('",
        "warning: A.java:2: method declaration ends at end of file",
        "warning: A.java:1: unbalanced '{'",
        "warning: C.java:0: invalid UTF-8 bytes were replaced",
        "warning: C.java:3: unmatched '}' at top level",
    ]
    assert cli.main(["cloud", str(tmp_path), "--format", "csv"]) == 0
    *streamed, summary = capsys.readouterr().err.splitlines()
    assert streamed == warnings
    assert re.fullmatch(r"identifiers=6 tags=\d+ elapsed_ms=\d+", summary)
    assert cli.main(["eval", str(tmp_path)]) == 0
    assert capsys.readouterr().err.splitlines() == warnings
    # a bad filter value is reported before the tree is read
    assert cli.main(["cloud", str(tmp_path), "--min-tag-len", "0"]) == 1
    error = "codecloud: error: min_tag_length must be >= 1"
    assert capsys.readouterr().err.splitlines() == [error]


@pytest.mark.parametrize(
    "flag, error",
    [
        (["--min-tag-len", "0"], "min_tag_length must be >= 1"),
        (["--page-width", "0"], "page_width_px must be positive"),
        (["--min-font", "nan"], "font sizes must satisfy 0 < min_font_pt <= max_font_pt < inf"),
    ],
    ids=["min_tag_len", "page_width", "min_font"],
)
def test_cloud_checks_its_options_before_it_reads_a_file(
    tmp_path, monkeypatch, capsys, flag, error
):
    (tmp_path / "A.java").write_text("class Alpha {\n    void m(\n}\n")
    (tmp_path / "B.java").write_bytes(b"class Gamma { // caf\xe9\n}}\n")
    reads = []
    read_unit = extractor._read_unit

    def logged_read_unit(rel, path):
        reads.append(path)
        return read_unit(rel, path)

    monkeypatch.setattr(extractor, "_read_unit", logged_read_unit)
    assert cli.main(["cloud", str(tmp_path), *flag]) == 1
    assert capsys.readouterr().err.splitlines() == [f"codecloud: error: {error}"]
    assert reads == []


def test_eval_perfect_on_big_corpus(big_corpus):
    result = run_cli("eval", big_corpus.root, "--format", "csv")
    assert result.returncode == 0


class _CountingStdout(io.StringIO):
    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


def test_eval_report_is_written_in_large_pieces(big_corpus, monkeypatch):
    # each write to an unbuffered standard output is a system call
    stdout = _CountingStdout()
    monkeypatch.setattr(sys, "stdout", stdout)
    assert cli.main(["eval", str(big_corpus.root), "--format", "json"]) == 0
    text = stdout.getvalue()
    assert json.loads(text)["allPerfect"] is True
    assert stdout.writes <= 2 + len(text) // cli._WRITE_BATCH


def test_eval_perfect_on_letter_numbers(tmp_path):
    # Java identifiers may hold letter numbers such as U+217B; both the cloud
    # and the oracle read them as separators
    source = "class Cache\u217b { int count\u216b; }\n"
    (tmp_path / "Cache.java").write_text(source, encoding="utf-8")
    result = run_cli("eval", tmp_path)
    assert result.returncode == 0
    assert "all tags perfect: yes" in result.stdout


#: Needed only by CSV or JSON output, by one command (the renderer by
#: ``cloud``, the evaluator by ``eval``), or by nothing that runs (``logging``,
#: ``concurrent.futures``), so start-up must not import them.
_NOT_AT_START_UP = {
    "dataclasses", "inspect", "logging", "concurrent.futures", "csv", "json", "html",
    "codecloud.evaluator", "codecloud.renderer",
}


def _modules_after(code):
    done = subprocess.run(
        [sys.executable, "-c", code + "\nimport sys\nprint(*sys.modules)"],
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
    return set(done.stdout.split())


def test_start_up_imports_only_what_runs():
    bare = _modules_after("pass")
    loaded = _modules_after("import codecloud.cli; codecloud.load_lexicon()")
    assert (loaded - bare) & _NOT_AT_START_UP == set()


@pytest.mark.parametrize(
    ("args", "loads", "skips"),
    [
        (("cloud", "--format", "svg"), {"codecloud.renderer"},
         {"codecloud.evaluator", "json", "html"}),
        (("eval", "--format", "json"), {"codecloud.evaluator", "json"},
         {"codecloud.renderer", "html"}),
    ],
    ids=["cloud_svg", "eval_json"],
)
def test_each_command_imports_only_what_it_runs(drawing_shapes_dir, tmp_path, args, loads, skips):
    argv = [args[0], str(drawing_shapes_dir), *args[1:], "-o", str(tmp_path / "out")]
    loaded = _modules_after(f"from codecloud.cli import main\nassert main({argv!r}) == 0")
    assert loaded >= loads
    assert loaded & skips == set()


def test_cloud_on_deeply_nested_source(tmp_path):
    (tmp_path / "Deep.java").write_text("class Deep {\n" * 400 + "}\n" * 400)
    result = run_cli("cloud", tmp_path, "--format", "csv")
    assert result.returncode == 0
    assert result.stdout == "stem,weight\ndeep,400\n"


def test_broken_fixture_warns_and_succeeds(broken_dir):
    result = run_cli("cloud", broken_dir, "--format", "csv")
    assert result.returncode == 0
    assert "warning:" in result.stderr


def test_public_names_resolve():
    import codecloud

    for name in codecloud.__all__:
        assert getattr(codecloud, name) is not None
    assert set(codecloud.__all__) <= set(dir(codecloud))
    from codecloud import extractor as module  # a submodule, not a public name

    assert module.extract_identifiers is codecloud.extract_identifiers
    with pytest.raises(AttributeError):
        codecloud.nope
