from collections import Counter

import pytest

from codecloud import (
    CloudKind,
    FilterConfig,
    Identifier,
    IdentifierKind,
    Tag,
    TagCloud,
    build_cloud,
    cli,
    evaluate,
    evaluator,
    tally_oracle,
)
from codecloud.evaluator import EvalReport, EvalRow, report_to_json_dict

from reference import oracle_frequency


def test_oracle_frequency_empty_corpus(lexicon):
    assert oracle_frequency("anything", [], lexicon) == 0


def test_oracle_frequency_on_fixture(lexicon, drawing_shapes_ids):
    assert oracle_frequency("draw", drawing_shapes_ids, lexicon) == 10
    assert oracle_frequency("shape", drawing_shapes_ids, lexicon) == 10
    assert oracle_frequency("color", drawing_shapes_ids, lexicon) == 6
    assert oracle_frequency("nonexistent", drawing_shapes_ids, lexicon) == 0


def test_eval_row_perfect():
    row = EvalRow.from_frequencies("entity", 25, 25)
    assert (row.precision, row.recall, row.f_measure) == (1.0, 1.0, 1.0)
    assert row.perfect


def test_eval_row_overcount():
    row = EvalRow.from_frequencies("entity", 30, 25)
    assert row.precision == pytest.approx(25 / 30)
    assert row.recall == 1.0
    assert row.f_measure == pytest.approx(0.909, abs=5e-4)
    assert not row.perfect


def test_eval_row_symmetry():
    a = EvalRow.from_frequencies("x", 30, 25)
    b = EvalRow.from_frequencies("x", 25, 30)
    assert a.precision == b.recall
    assert a.recall == b.precision
    assert a.f_measure == pytest.approx(b.f_measure)


def test_eval_row_bounds():
    for cloud_freq, oracle_freq in [(0, 0), (0, 5), (5, 0), (1, 1), (3, 7), (7, 3)]:
        row = EvalRow.from_frequencies("x", cloud_freq, oracle_freq)
        assert 0.0 <= row.precision <= 1.0
        assert 0.0 <= row.recall <= 1.0
        assert 0.0 <= row.f_measure <= max(row.precision, row.recall) + 1e-12
        if row.f_measure == 1.0:
            assert row.precision == 1.0 and row.recall == 1.0


def test_self_consistency_on_fixtures(lexicon, drawing_shapes_ids, menagerie_ids):
    for ids in (drawing_shapes_ids, menagerie_ids):
        cloud = build_cloud(ids, CloudKind.ALL, lexicon, FilterConfig(), "fixture")
        report = evaluate(cloud, ids, lexicon)
        assert report.all_perfect
        assert len(report.rows) == len(cloud.tags)
        assert all(row.perfect for row in report.rows)


def test_self_consistency_per_kind(lexicon, menagerie_ids):
    for kind in CloudKind:
        cloud = build_cloud(menagerie_ids, kind, lexicon, FilterConfig(), "m")
        assert evaluate(cloud, menagerie_ids, lexicon).all_perfect, kind


def test_self_consistency_without_stop_removal(lexicon, drawing_shapes_ids):
    cfg = FilterConfig(stop_words_enabled=False)
    cloud = build_cloud(drawing_shapes_ids, CloudKind.ALL, lexicon, cfg, "fixture")
    assert evaluate(cloud, drawing_shapes_ids, lexicon).all_perfect


def test_corrupted_cloud_detected(lexicon, drawing_shapes_ids):
    cloud = build_cloud(drawing_shapes_ids, CloudKind.ALL, lexicon, FilterConfig(), "x")
    tags = list(cloud.tags)
    victim = next(i for i, t in enumerate(tags) if t.stem == "shape")
    tags[victim] = Tag("shape", tags[victim].weight + 5, tags[victim].contributors)
    corrupted = TagCloud(cloud.kind, tuple(tags), cloud.filters, cloud.corpus_label)
    report = evaluate(corrupted, drawing_shapes_ids, lexicon)
    assert not report.all_perfect
    bad = next(row for row in report.rows if row.stem == "shape")
    assert bad.cloud_frequency == 15 and bad.oracle_frequency == 10
    assert bad.precision == pytest.approx(10 / 15)
    assert bad.recall == 1.0


def test_missing_tag_detected(lexicon, drawing_shapes_ids):
    cloud = build_cloud(drawing_shapes_ids, CloudKind.ALL, lexicon, FilterConfig(), "x")
    kept = tuple(tag for tag in cloud.tags if tag.stem != "draw")
    dropped = TagCloud(cloud.kind, kept, cloud.filters, cloud.corpus_label)
    report = evaluate(dropped, drawing_shapes_ids, lexicon)
    assert not report.all_perfect
    assert [row.stem for row in report.rows] == [tag.stem for tag in cloud.tags]
    assert [row.stem for row in report.rows if not row.perfect] == ["draw"]
    missing = next(row for row in report.rows if row.stem == "draw")
    assert (missing.cloud_frequency, missing.oracle_frequency) == (0, 10)
    assert missing.recall == 0.0


def test_empty_cloud_empty_corpus_vacuously_perfect(lexicon):
    cloud = TagCloud(CloudKind.ALL, (), FilterConfig(), "empty")
    report = evaluate(cloud, [], lexicon)
    assert report.rows == ()
    assert report.all_perfect


def test_report_verdict_follows_its_rows():
    assert EvalReport("x", (EvalRow.from_frequencies("a", 1, 2),)).all_perfect is False


def test_cloud_of_another_corpus_is_imperfect(lexicon, drawing_shapes_ids, menagerie_ids):
    cloud = build_cloud(drawing_shapes_ids, CloudKind.ALL, lexicon, FilterConfig(), "x")
    report = evaluate(cloud, menagerie_ids, lexicon)
    assert not report.all_perfect
    # no contributor is an identifier of the other corpus, so no tag is right
    assert all(row.precision == 0.0 for row in report.rows if row.cloud_frequency)


def _with_contributors(cloud, contributors):
    """``cloud`` with the contributors of the stems in ``contributors`` replaced."""
    tags = tuple(
        tag._replace(contributors=contributors.get(tag.stem, tag.contributors))
        for tag in cloud.tags
    )
    return cloud._replace(tags=tags)


def test_swapped_contributors_detected(lexicon, drawing_shapes_ids):
    cloud = build_cloud(drawing_shapes_ids, CloudKind.ALL, lexicon, FilterConfig(), "x")
    by_stem = {tag.stem: tag for tag in cloud.tags}
    assert by_stem["add"].weight == by_stem["height"].weight == 1
    swapped = _with_contributors(
        cloud, {"add": by_stem["height"].contributors, "height": by_stem["add"].contributors}
    )
    report = evaluate(swapped, drawing_shapes_ids, lexicon)
    assert not report.all_perfect
    bad = [row for row in report.rows if not row.perfect]
    assert [row.stem for row in bad] == ["add", "height"]
    assert all((row.cloud_frequency, row.oracle_frequency, row.f_measure) == (1, 1, 0.0)
               for row in bad)


def test_repeated_contributor_detected(lexicon, drawing_shapes_ids):
    cloud = build_cloud(drawing_shapes_ids, CloudKind.ALL, lexicon, FilterConfig(), "x")
    draw = next(tag for tag in cloud.tags if tag.stem == "draw")
    repeated = _with_contributors(cloud, {"draw": draw.contributors[:1] * draw.weight})
    report = evaluate(repeated, drawing_shapes_ids, lexicon)
    assert not report.all_perfect
    row = next(row for row in report.rows if row.stem == "draw")
    assert (row.cloud_frequency, row.oracle_frequency) == (10, 10)
    assert row.precision == row.recall == pytest.approx(1 / 10)


def test_evaluate_and_tally_read_a_one_shot_generator(lexicon, menagerie_ids):
    cloud = build_cloud(menagerie_ids, CloudKind.ALL, lexicon, FilterConfig(), "m")
    report = evaluate(cloud, (i for i in menagerie_ids), lexicon)
    assert report == evaluate(cloud, menagerie_ids, lexicon)
    assert report.all_perfect
    tally = {}
    passed = list(tally_oracle((i for i in menagerie_ids), tally, lexicon))
    assert passed == menagerie_ids
    assert tally == {tag.stem: list(tag.contributors) for tag in cloud.tags}


def test_oracle_stems_each_distinct_word_once(lexicon, menagerie_ids, monkeypatch):
    calls = Counter()
    naive_stem = evaluator._naive_stem

    def counting(word, lex):
        calls[word] += 1
        return naive_stem(word, lex)

    monkeypatch.setattr(evaluator, "_naive_stem", counting)
    cloud = build_cloud(menagerie_ids, CloudKind.ALL, lexicon, FilterConfig(), "m")
    assert evaluate(cloud, menagerie_ids, lexicon).all_perfect
    words = {w for i in menagerie_ids for w in evaluator._naive_split(i.simple_name)}
    assert calls == Counter(words)


def test_oracle_memo_does_not_outlive_its_call(lexicon, drawing_shapes_ids):
    renamed = lexicon._replace(exceptions={**lexicon.exceptions, "shape": "outline"})
    for lex in (lexicon, renamed, lexicon):
        cloud = build_cloud(drawing_shapes_ids, CloudKind.ALL, lex, FilterConfig(), "x")
        report = evaluate(cloud, drawing_shapes_ids, lex)
        assert report.all_perfect
        stems = {row.stem for row in report.rows}
        assert ("outline" in stems) == (lex is renamed)


def test_report_csv_columns(lexicon, drawing_shapes_dir, drawing_shapes_ids, capsys):
    cloud = build_cloud(drawing_shapes_ids, CloudKind.ALL, lexicon, FilterConfig(), "x")
    report = evaluate(cloud, drawing_shapes_ids, lexicon)
    assert cli.main(["eval", str(drawing_shapes_dir), "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "stem,cloudFreq,oracleFreq,precision,recall,fMeasure"
    assert len(lines) == 1 + len(report.rows)
    draw = next(line for line in lines if line.startswith("draw,"))
    assert draw == "draw,10,10,1,1,1"


def test_report_json_shape(lexicon, drawing_shapes_ids):
    cloud = build_cloud(drawing_shapes_ids, CloudKind.ALL, lexicon, FilterConfig(), "demo")
    payload = report_to_json_dict(evaluate(cloud, drawing_shapes_ids, lexicon))
    assert payload["corpus"] == "demo"
    assert payload["allPerfect"] is True
    assert {"stem", "cloudFreq", "oracleFreq", "precision", "recall", "fMeasure"} == set(
        payload["rows"][0]
    )


def test_oracle_agrees_with_pipeline_per_identifier(lexicon, menagerie_ids):
    # spot-check the two implementations word by word
    from codecloud import split_identifier, stem_word
    from codecloud.evaluator import oracle_words

    for identifier in menagerie_ids:
        pipeline = {
            stem
            for stem in (
                stem_word(w, lexicon) for w in split_identifier(identifier.simple_name)
            )
            if stem not in lexicon.stop_words
        }
        assert oracle_words(identifier.simple_name, lexicon) == pipeline


def _mini_corpus():
    return [
        Identifier(IdentifierKind.CLASS, "HTTPServer", "a.HTTPServer", "A.java", 1),
        Identifier(IdentifierKind.METHOD, "parseXML", "a.parseXML", "A.java", 2),
        Identifier(IdentifierKind.ATTRIBUTE, "maxRetries", "a.maxRetries", "A.java", 3),
    ]


def test_oracle_frequency_counts_identifiers_not_words(lexicon):
    ids = _mini_corpus() + [
        Identifier(IdentifierKind.METHOD, "serverServer", "a.serverServer", "A.java", 4)
    ]
    assert oracle_frequency("server", ids, lexicon) == 2
