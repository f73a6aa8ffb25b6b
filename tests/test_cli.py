import json
import subprocess
import sys
import xml.etree.ElementTree as ET

from codecloud import (
    CloudKind,
    FilterConfig,
    RenderConfig,
    Tag,
    build_cloud,
    cli,
    cloud_from_json_dict,
    extract_corpus,
    render_svg,
    scan_tree,
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


def test_no_short_filter_overrides(drawing_shapes_dir):
    result = run_cli(
        "cloud", drawing_shapes_dir, "--min-tag-len", "4", "--no-short-filter",
        "--format", "csv",
    )
    assert result.returncode == 0
    assert "x,1" in result.stdout.splitlines()


def test_cloud_empty_directory(tmp_path):
    result = run_cli("cloud", tmp_path)
    assert result.returncode == 3
    assert "no identifiers" in result.stderr


def test_cloud_missing_root(tmp_path):
    result = run_cli("cloud", tmp_path / "nope")
    assert result.returncode == 2


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


def test_json_output_round_trips(drawing_shapes_dir):
    as_json = run_cli("cloud", drawing_shapes_dir, "--format", "json")
    as_svg = run_cli("cloud", drawing_shapes_dir, "--format", "svg")
    assert as_json.returncode == 0 and as_svg.returncode == 0
    cloud = cloud_from_json_dict(json.loads(as_json.stdout))
    assert render_svg(cloud, RenderConfig()) == as_svg.stdout


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


def test_stats_table_and_csv(drawing_shapes_dir):
    table = run_cli("stats", drawing_shapes_dir)
    assert table.returncode == 0
    assert table.stdout.splitlines()[0].split() == [
        "corpus", "packages", "classes", "attributes", "methods",
        "identifiers", "tags", "elapsed_ms",
    ]
    csv_out = run_cli("stats", drawing_shapes_dir, "--format", "csv")
    row = csv_out.stdout.splitlines()[1].split(",")
    assert row[:7] == ["drawing_shapes", "1", "6", "10", "15", "32", "20"]


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


def test_determinism_sequential_and_parallel(big_corpus, lexicon):
    root = big_corpus.root
    ids = extract_corpus(scan_tree(root), parallel=True)
    cloud = build_cloud(ids, CloudKind.ALL, lexicon, FilterConfig(), root.name)
    parallel = render_svg(cloud, RenderConfig())
    for _ in range(2):
        result = run_cli("cloud", root, "--format", "svg")
        assert result.returncode == 0
        assert result.stdout == parallel


def test_cli_starts_no_worker_process(big_corpus, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("the CLI started a process pool")

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", no_pool)
    root = big_corpus.root
    assert cli.main(["cloud", str(root), "--format", "svg"]) == 0
    assert cli.main(["eval", str(root)]) == 0


def test_eval_perfect_on_big_corpus(big_corpus):
    result = run_cli("eval", big_corpus.root, "--format", "csv")
    assert result.returncode == 0


def test_eval_perfect_on_letter_numbers(tmp_path):
    # Java identifiers may hold letter numbers such as U+217B; both the cloud
    # and the oracle read them as separators
    source = "class Cache\u217b { int count\u216b; }\n"
    (tmp_path / "Cache.java").write_text(source, encoding="utf-8")
    result = run_cli("eval", tmp_path)
    assert result.returncode == 0
    assert "all tags perfect: yes" in result.stdout


#: Needed only by the opt-in extraction pool, by CSV reports, or by nothing
#: that runs, so start-up must not import them.
_NOT_AT_START_UP = {"dataclasses", "inspect", "logging", "concurrent.futures", "csv"}


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


def test_cloud_on_deeply_nested_source(tmp_path):
    (tmp_path / "Deep.java").write_text("class Deep {\n" * 400 + "}\n" * 400)
    result = run_cli("cloud", tmp_path, "--format", "csv")
    assert result.returncode == 0
    assert result.stdout == "stem,weight\ndeep,400\n"


def test_broken_fixture_warns_and_succeeds(broken_dir):
    result = run_cli("cloud", broken_dir, "--format", "csv")
    assert result.returncode == 0
    assert "warning:" in result.stderr
