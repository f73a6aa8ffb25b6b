import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).parent.parent


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
