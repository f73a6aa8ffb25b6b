import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).parent.parent
sys.path.insert(0, str(REPO / "tools"))
import cli_diff  # noqa: E402  (the CLI comparison tool)


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
