import os
import re
import subprocess
import sys
import types
from pathlib import Path

REPO = Path(__file__).parent.parent
sys.path.insert(0, str(REPO / "tools"))
import cli_diff  # noqa: E402  (the CLI comparison tool)
import extractor_diff  # noqa: E402  (the extractor comparison tool)

from codecloud import extractor  # noqa: E402


def test_extractor_diff_rejects_a_root_that_is_a_file(tmp_path):
    # REV does not exist and git is off the PATH: the ROOT is checked first
    done = subprocess.run(
        [sys.executable, str(REPO / "tools" / "extractor_diff.py"), "no-such-rev",
         str(REPO / "tests" / "fixtures" / "drawing_shapes_expected.json"), "--soups", "0"],
        capture_output=True, text=True, cwd=tmp_path, env={**os.environ, "PATH": ""},
    )
    assert done.returncode == 2
    assert "Traceback" not in done.stderr
    assert done.stderr.startswith("extractor_diff: ")
    assert len(done.stderr.splitlines()) == 1


def test_extractor_diff_names_the_patterns_whose_compiled_code_differs():
    assert extractor_diff.differing_patterns(extractor, extractor) == []
    changed = types.ModuleType("changed")
    changed.__dict__.update(vars(extractor))
    # greedy where the module's is possessive
    changed._GAP_RE = re.compile(r"\s*(?://[^\n]*|/\*(?:[^*]+|\*(?!/))*\*/)")
    changed._is_name = re.compile(r"[^\W\d]|\$").match  # another spelling of the same code
    assert extractor_diff.differing_patterns(extractor, changed) == ["_GAP_RE"]


def test_cli_diff_masks_only_the_run_time():
    error = "codecloud: error: min_tag_length must be >= 1\n"
    assert cli_diff.masked("cloud", "", error) == ("", error)
    summary = "identifiers=37 tags=32 elapsed_ms=12\n"
    assert cli_diff.masked("cloud", "", summary) == ("", "identifiers=37 tags=32 elapsed_ms=<ms>\n")
    table = "   corpus  tags  elapsed_ms\nmenagerie    32          12\n"
    masked_table = "   corpus  tags  elapsed_ms\nmenagerie    32<ms>\n"
    assert cli_diff.masked("stats", table, "") == (masked_table, "")
    assert cli_diff.masked("stats", '{\n  "elapsed_ms": 12,\n  "tags": 32\n}\n', "") == (
        '{\n  "elapsed_ms": <ms>,\n  "tags": 32\n}\n', ""
    )


def test_cli_diff_masks_the_run_time_in_a_written_stats_file(tmp_path):
    out = tmp_path / "out"
    out.write_text("corpus,tags,elapsed_ms\nmenagerie,32,12\n")
    stats = ("stats", "menagerie", "--format", "csv", "-o", cli_diff.OUT_FILE)
    assert cli_diff.written_file(stats, out) == b"corpus,tags,elapsed_ms\nmenagerie,32,<ms>\n"
    cloud = ("cloud", "menagerie", "--format", "csv", "-o", cli_diff.OUT_FILE)
    assert cli_diff.written_file(cloud, out) == out.read_bytes()
    assert cli_diff.written_file(stats[:-2], out) is None
