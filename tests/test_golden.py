"""The output contract: each ``tools/cli_diff.py`` matrix invocation keeps its output.

``tests/golden/outputs.json`` holds the SHA-256 of each invocation's exit
code, stdout, stderr and written file (run time masked) on the fixture
trees, a tree with no ``.java`` file and the benchmark's seed-1 ``small``
tree.  A change that moves any output on purpose rewrites the file with
``python tools/cli_diff.py --write-golden``, so its diff names each moved
invocation.
"""

import json
import sys
from pathlib import Path

REPO = Path(__file__).parent.parent
sys.path.insert(0, str(REPO / "tools"))
import cli_diff  # noqa: E402  (the CLI comparison tool)


def test_outputs_match_the_golden_file(tmp_path):
    expected = json.loads(cli_diff.GOLDEN.read_text())
    actual = cli_diff.golden_digests(tmp_path)
    differ = sorted(key for key in expected.keys() | actual.keys()
                    if expected.get(key) != actual.get(key))
    assert not differ, "outputs differ from the golden file:\n" + "\n".join(differ)
