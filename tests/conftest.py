import json
import sys
from pathlib import Path

import pytest

from codecloud import extract_corpus, load_lexicon, scan_tree

REPO = Path(__file__).parent.parent
FIXTURES = Path(__file__).parent / "fixtures"

sys.path.insert(0, str(REPO / "bench"))
import corpora  # noqa: E402  (the benchmark's tree generator)


@pytest.fixture(scope="session")
def lexicon():
    return load_lexicon()


@pytest.fixture(scope="session")
def drawing_shapes_dir():
    return FIXTURES / "drawing_shapes"


@pytest.fixture(scope="session")
def drawing_shapes_ids(drawing_shapes_dir):
    return extract_corpus(scan_tree(drawing_shapes_dir))


@pytest.fixture(scope="session")
def drawing_shapes_expected():
    return json.loads((FIXTURES / "drawing_shapes_expected.json").read_text())


@pytest.fixture(scope="session")
def menagerie_dir():
    return FIXTURES / "menagerie"


@pytest.fixture(scope="session")
def menagerie_ids(menagerie_dir):
    return extract_corpus(scan_tree(menagerie_dir))


@pytest.fixture(scope="session")
def broken_dir():
    return FIXTURES / "broken"


@pytest.fixture(scope="session")
def big_corpus(tmp_path_factory):
    """The benchmark's seed-1 ``small`` tree (145 files, 10 926 lines) and its truth."""
    lexicon = corpora.read_lexicon(REPO / "src" / "codecloud" / "data")
    return corpora.bodies_tree(tmp_path_factory.mktemp("small"), 1, lexicon, classes=145)
