"""Tests of the benchmark itself: generators, ground truth, failure counting."""

import dataclasses
import sys
from pathlib import Path

import pytest

import corpora
import run

sys.path.insert(0, str(run.SRC))
import codecloud as cc  # noqa: E402

LEXICON = corpora.read_lexicon(run.SRC / "codecloud" / "data")

SMALL_TREES = {
    "bodies": lambda root, seed: corpora.bodies_tree(root, seed, LEXICON, classes=30),
    "vocab": lambda root, seed: corpora.vocab_tree(root, seed, LEXICON),
}


@pytest.fixture(autouse=True)
def small_sizes(monkeypatch):
    monkeypatch.setattr(corpora, "VOCAB_FILES", 20)
    monkeypatch.setattr(corpora, "VOCAB_BASES", 150)
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)


@pytest.mark.parametrize("shape", sorted(SMALL_TREES))
def test_truth_equals_the_pipeline(tmp_path, shape):
    tree = SMALL_TREES[shape](tmp_path, 3)
    ids = cc.extract_corpus(cc.scan_tree(tree.root), parallel=False)
    cloud = cc.build_cloud(ids, cc.CloudKind.ALL, cc.load_lexicon(), cc.FilterConfig())
    assert {tag.stem: tag.weight for tag in cloud.tags} == tree.truth


@pytest.mark.parametrize("shape", sorted(SMALL_TREES))
def test_trees_follow_the_seed(tmp_path, shape):
    first = SMALL_TREES[shape](tmp_path / "a", 5)
    again = SMALL_TREES[shape](tmp_path / "b", 5)
    other = SMALL_TREES[shape](tmp_path / "c", 6)
    assert first.digest == again.digest and first.truth == again.truth
    assert first.digest != other.digest
    assert (first.files, first.lines) == (other.files, other.lines)


def test_trees_avoid_known_extractor_defects(tmp_path):
    for shape, make in SMALL_TREES.items():
        tree = make(tmp_path / shape, 1)
        for path in tree.root.rglob("*"):
            assert path.name != "module-info.java"
            if path.is_file():
                text = path.read_text(encoding="utf-8")
                assert "non-sealed" not in text and "\\u" not in text and "record" not in text


def _measure(tmp_path, truth):
    tree = corpora.bodies_tree(tmp_path / "tree", 2, LEXICON, classes=12)
    tree = dataclasses.replace(tree, truth=truth(tree.truth))
    with run.Runner(tmp_path) as runner:
        return run.measure(runner, run.WORKLOADS["small"], tree, seconds=0)


def test_correct_tree_has_no_failures(tmp_path):
    result = _measure(tmp_path, lambda truth: truth)
    assert len(result.samples) == 1 and result.failed == 0


def test_one_wrong_expected_weight_fails_every_invocation(tmp_path):
    def corrupt(truth):
        stem = next(iter(truth))
        return {**truth, stem: truth[stem] + 1}

    result = _measure(tmp_path, corrupt)
    assert result.failed / len(result.samples) > 0
