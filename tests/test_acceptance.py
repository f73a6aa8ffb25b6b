"""Acceptance suite: one test per shipping criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.  The NanoXML/ArgoUML reproductions need their source
trees on disk (CODECLOUD_NANOXML_DIR / CODECLOUD_ARGOUML_DIR, or
tests/data/nanoxml) and skip when absent.  The generated tree (the
``big_corpus`` fixture in conftest.py) is the benchmark's seed-1 ``small``
tree from bench/corpora.py, 145 files and 10 926 lines, with the
``stem -> weight`` truth its generator composed.

The user-study portion of the original evaluation is intentionally not
reproduced; no criterion depends on it.
"""

import json
import os
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from collections import Counter
from pathlib import Path

import pytest

from codecloud import (
    CloudKind,
    FilterConfig,
    IdentifierKind,
    RenderConfig,
    build_cloud,
    build_tags,
    evaluate,
    extract_corpus,
    render_svg,
    scan_tree,
    split_identifier,
    stem_word,
)

from conftest import FIXTURES

SVG_NS = "{http://www.w3.org/2000/svg}"


def _ok(name):
    print(f"[ACCEPTANCE] {name}: PASS")


def _skip(name, reason):
    print(f"[ACCEPTANCE] {name}: SKIP ({reason})")
    pytest.skip(reason)


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "codecloud", *map(str, args)],
        capture_output=True,
        text=True,
    )


def test_oracle_equivalence(lexicon, big_corpus):
    """Every tag of every corpus scores precision = recall = F = 1, exactly.

    On the generated tree the cloud also equals the generator's own truth.
    """
    corpora = [
        FIXTURES / "drawing_shapes",
        FIXTURES / "menagerie",
        FIXTURES / "broken",
        big_corpus.root,
    ]
    for root in corpora:
        ids = extract_corpus(scan_tree(root))
        cloud = build_cloud(ids, CloudKind.ALL, lexicon, FilterConfig(), str(root))
        report = evaluate(cloud, ids, lexicon)
        assert report.all_perfect, f"imperfect tags in {root}"
        assert all(
            row.precision == 1.0 and row.recall == 1.0 and row.f_measure == 1.0
            for row in report.rows
        )
        assert len(report.rows) == len(cloud.tags)
        if root == big_corpus.root:
            assert {tag.stem: tag.weight for tag in cloud.tags} == big_corpus.truth
    _ok("oracle equivalence (P=R=F=1 on all corpora; generated tree = its truth)")


def test_splitting_and_stemming_examples(lexicon):
    """The documented splitting and stemming examples reproduce exactly."""
    assert split_identifier("DrawingShapes") == ["drawing", "shapes"]
    assert stem_word("writing", lexicon) == "write"
    assert stem_word("wrote", lexicon) == "write"
    assert stem_word("written", lexicon) == "write"
    assert stem_word("performed", lexicon) == "perform"
    _ok("micro-examples (DrawingShapes split; write/perform stems)")


def test_drawing_shapes_fixture(lexicon, drawing_shapes_ids, drawing_shapes_expected):
    """draw has weight 10 and draw/shape render in the largest font."""
    tags = build_tags(drawing_shapes_ids, CloudKind.ALL, lexicon, FilterConfig())
    table = {t.stem: t.weight for t in tags}
    assert table["draw"] == 10
    assert table == drawing_shapes_expected["tags"]

    result = run_cli("cloud", FIXTURES / "drawing_shapes", "--format", "svg")
    assert result.returncode == 0
    texts = ET.fromstring(result.stdout).findall(f".//{SVG_NS}text")
    largest = max(float(t.get("font-size")) for t in texts)
    assert {t.text for t in texts if float(t.get("font-size")) == largest} == {
        "draw",
        "shape",
    }
    _ok("drawing-shapes fixture (draw weight 10; draw/shape largest)")


def _reference_corpus_dir(env_var, default_subdir):
    root = os.environ.get(env_var)
    if root and Path(root).is_dir():
        return Path(root)
    bundled = Path(__file__).parent / "data" / default_subdir
    if bundled.is_dir():
        return bundled
    return None


def _stats(ids, tags):
    """The ``stats`` report's counts of ``ids`` and ``tags``, by column name."""
    kinds = Counter(i.kind for i in ids)
    return {
        "packages": kinds[IdentifierKind.PACKAGE],
        "classes": kinds[IdentifierKind.CLASS],
        "attributes": kinds[IdentifierKind.ATTRIBUTE],
        "methods": kinds[IdentifierKind.METHOD],
        "identifiers": len(ids),
        "tags": len(tags),
    }


def test_nanoxml_reproduction(lexicon):
    """Stats within +/-5% of the published NanoXML column; sample tags +/-2."""
    name = "nanoxml reproduction"
    root = _reference_corpus_dir("CODECLOUD_NANOXML_DIR", "nanoxml")
    if root is None:
        _skip(name, "NanoXML 2.x sources not available offline; "
                    "set CODECLOUD_NANOXML_DIR to run")
    ids = extract_corpus(scan_tree(root))
    tags = build_tags(ids, CloudKind.ALL, lexicon, FilterConfig())
    stats = _stats(ids, tags)
    expected = {
        "packages": 3,
        "classes": 24,
        "attributes": 63,
        "methods": 318,
        "identifiers": 408,
        "tags": 135,
    }
    for field_name, value in expected.items():
        actual = stats[field_name]
        assert abs(actual - value) <= max(1, round(0.05 * value)), (
            f"{field_name}: {actual} vs published {value} (+/-5%)"
        )
    kind_sum = stats["packages"] + stats["classes"] + stats["attributes"] + stats["methods"]
    assert kind_sum == stats["identifiers"]
    table = {t.stem: t.weight for t in tags}
    for stem, published in (("exception", 13), ("element", 45), ("entity", 25)):
        assert abs(table.get(stem, 0) - published) <= 2, (stem, table.get(stem))
    _ok(name)


def test_argouml_reproduction(lexicon):
    """Optional at desk scale: +/-5% of the published ArgoUML column."""
    name = "argouml reproduction (optional)"
    root = _reference_corpus_dir("CODECLOUD_ARGOUML_DIR", "argouml")
    if root is None:
        _skip(name, "ArgoUML sources not available; set CODECLOUD_ARGOUML_DIR to run")
    ids = extract_corpus(scan_tree(root))
    tags = build_tags(ids, CloudKind.ALL, lexicon, FilterConfig())
    stats = _stats(ids, tags)
    expected = {
        "packages": 103,
        "classes": 1745,
        "attributes": 3649,
        "methods": 10319,
        "identifiers": 15816,
        "tags": 1511,
    }
    for field_name, value in expected.items():
        actual = stats[field_name]
        assert abs(actual - value) <= max(1, round(0.05 * value))
    table = {t.stem: t.weight for t in tags}
    for stem, published in (("apply", 13), ("area", 9), ("array", 11)):
        assert abs(table.get(stem, 0) - published) <= 2
    _ok(name)


def test_filter_contracts():
    """min-tag-len leaves no short tag; show-freq brackets every tag in red."""
    result = run_cli(
        "cloud", FIXTURES / "drawing_shapes",
        "--min-tag-len", "4", "--show-freq", "--format", "svg",
    )
    assert result.returncode == 0
    texts = ET.fromstring(result.stdout).findall(f".//{SVG_NS}text")
    labels = [t for t in texts if not t.text.startswith("[")]
    freqs = [t for t in texts if t.text.startswith("[")]
    assert labels, "filtered cloud should not be empty"
    assert all(len(t.text) >= 4 for t in labels)
    # alternating label/frequency pairs, frequency in the frequency color
    assert len(texts) == 2 * len(labels)
    for label, freq in zip(texts[0::2], texts[1::2]):
        assert not label.text.startswith("[")
        assert freq.text == f"[{_weight_of(label.text)}]"
        assert freq.get("fill") == "red"
    _ok("filter contracts (short-tag filter; bracketed red frequencies)")


def _weight_of(stem):
    expected = json.loads((FIXTURES / "drawing_shapes_expected.json").read_text())
    return expected["tags"][stem]


def test_determinism(lexicon, big_corpus):
    """Consecutive runs are byte-identical, in-process and from the CLI."""
    big_root = big_corpus.root
    ids = extract_corpus(scan_tree(big_root))
    cloud = build_cloud(ids, CloudKind.ALL, lexicon, FilterConfig(), big_root.name)
    outputs = {render_svg(cloud, RenderConfig())}
    for _ in range(2):
        result = run_cli("cloud", big_root, "--format", "svg")
        assert result.returncode == 0
        outputs.add(result.stdout)
    assert len(outputs) == 1
    _ok("determinism (byte-identical SVG, in-process and CLI)")


def test_property_suite_bounds():
    """The five module-invariant properties run with >= 1000 cases each."""
    import test_properties as props

    required = [
        props.test_split_reconstruction,
        props.test_stem_idempotent_on_lexicon_scope,
        props.test_filter_monotone_and_weight_preserving,
        props.test_font_size_monotone,
        props.test_kind_decomposition,
    ]
    for func in required:
        assert func._hypothesis_internal_use_settings.max_examples >= 1000, func.__name__
    _ok("property suite (>=1000 randomized cases per invariant)")


def test_throughput(big_corpus):
    """The generated ~11 KLOC tree clears `cloud` in <5 s and >=100 KLOC/min."""
    big_root, lines = big_corpus.root, big_corpus.lines
    assert lines >= 10_000, f"generated corpus has only {lines} lines"
    started = time.perf_counter()
    result = run_cli("cloud", big_root, "--format", "svg")
    elapsed = time.perf_counter() - started
    assert result.returncode == 0
    assert elapsed < 5.0, f"cloud took {elapsed:.2f}s"
    kloc_per_minute = (lines / 1000.0) / (elapsed / 60.0)
    assert kloc_per_minute >= 100.0, f"throughput {kloc_per_minute:.0f} KLOC/min"
    _ok(f"throughput ({kloc_per_minute:.0f} KLOC/min on {lines} lines)")
