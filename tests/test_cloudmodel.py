import pytest

from codecloud import (
    CloudKind,
    FilterConfig,
    Identifier,
    IdentifierKind,
    Tag,
    apply_short_tag_filter,
    build_cloud,
    build_tags,
    cloud_from_json_dict,
    cloud_to_json_dict,
    compute_stats,
)

from reference import tags_of_identifier


def _identifier(name, kind=IdentifierKind.METHOD, ordinal=0, file="X.java"):
    return Identifier(kind, name, f"x.{name}", file, 1, ordinal)


def test_drawing_shapes_identifier_tags(lexicon):
    stems = tags_of_identifier(_identifier("DrawingShapes"), lexicon, FilterConfig())
    assert stems == {"draw", "shape"}


def test_single_letter_survives_stop_removal(lexicon):
    for enabled in (True, False):
        cfg = FilterConfig(stop_words_enabled=enabled)
        assert tags_of_identifier(_identifier("x"), lexicon, cfg) == {"x"}


def test_letterless_identifier_contributes_nothing(lexicon):
    assert tags_of_identifier(_identifier("_1"), lexicon, FilterConfig()) == set()


def test_stop_words_removed_before_weighting(lexicon):
    stems = tags_of_identifier(_identifier("drawAll"), lexicon, FilterConfig())
    assert stems == {"draw"}
    stems = tags_of_identifier(
        _identifier("drawAll"), lexicon, FilterConfig(stop_words_enabled=False)
    )
    assert stems == {"all", "draw"}


def test_repeated_word_counts_once_per_identifier(lexicon):
    tags = build_tags([_identifier("DrawDraw")], CloudKind.ALL, lexicon, FilterConfig())
    assert [(t.stem, t.weight) for t in tags] == [("draw", 1)]


def test_empty_selection_gives_empty_list(lexicon):
    assert build_tags([], CloudKind.ALL, lexicon, FilterConfig()) == []
    only_methods = [_identifier("getX")]
    assert build_tags(only_methods, CloudKind.PACKAGE, lexicon, FilterConfig()) == []


def test_fixture_tag_table_matches_oracle_freeze(
    lexicon, drawing_shapes_ids, drawing_shapes_expected
):
    tags = build_tags(drawing_shapes_ids, CloudKind.ALL, lexicon, FilterConfig())
    assert {t.stem: t.weight for t in tags} == drawing_shapes_expected["tags"]


def test_weights_equal_contributor_counts(lexicon, drawing_shapes_ids):
    for tag in build_tags(drawing_shapes_ids, CloudKind.ALL, lexicon, FilterConfig()):
        assert tag.weight == len(tag.contributors) >= 1


def test_tags_strictly_ascending(lexicon, menagerie_ids):
    tags = build_tags(menagerie_ids, CloudKind.ALL, lexicon, FilterConfig())
    stems = [t.stem for t in tags]
    assert stems == sorted(stems) and len(stems) == len(set(stems))


def test_kind_decomposition(lexicon, drawing_shapes_ids, menagerie_ids):
    cfg = FilterConfig()
    for ids in (drawing_shapes_ids, menagerie_ids):
        all_tags = {t.stem: t.weight for t in build_tags(ids, CloudKind.ALL, lexicon, cfg)}
        summed: dict[str, int] = {}
        for kind in (CloudKind.PACKAGE, CloudKind.CLASS, CloudKind.ATTRIBUTE, CloudKind.METHOD):
            for tag in build_tags(ids, kind, lexicon, cfg):
                summed[tag.stem] = summed.get(tag.stem, 0) + tag.weight
        assert summed == all_tags


def test_short_tag_filter():
    cfg = FilterConfig(short_tag_enabled=True, min_tag_length=4)
    tags = [Tag("get", 50), Tag("attribute", 45)]
    assert apply_short_tag_filter(tags, cfg) == [Tag("attribute", 45)]
    assert apply_short_tag_filter([], cfg) == []
    disabled = FilterConfig(short_tag_enabled=False, min_tag_length=4)
    assert apply_short_tag_filter(tags, disabled) == tags


def test_short_tag_filter_is_monotone_and_weight_preserving():
    cfg = FilterConfig(short_tag_enabled=True, min_tag_length=5)
    tags = [Tag("ab", 1), Tag("abcde", 2), Tag("abcdef", 3)]
    filtered = apply_short_tag_filter(tags, cfg)
    assert set(filtered) <= set(tags)
    assert all(t.weight == dict((x.stem, x.weight) for x in tags)[t.stem] for t in filtered)


def test_build_cloud_applies_filters(lexicon, drawing_shapes_ids):
    cfg = FilterConfig(short_tag_enabled=True, min_tag_length=4)
    cloud = build_cloud(drawing_shapes_ids, CloudKind.ALL, lexicon, cfg, "demo")
    assert all(len(t.stem) >= 4 for t in cloud.tags)
    assert cloud.corpus_label == "demo"
    assert cloud.kind is CloudKind.ALL


def test_compute_stats_fixture(lexicon, drawing_shapes_ids):
    tags = build_tags(drawing_shapes_ids, CloudKind.ALL, lexicon, FilterConfig())
    stats = compute_stats(drawing_shapes_ids, tags, elapsed_ms=12)
    assert (
        stats.packages,
        stats.classes,
        stats.attributes,
        stats.methods,
        stats.identifiers,
        stats.tags,
    ) == (1, 6, 10, 15, 32, 20)
    assert stats.elapsed_ms == 12


def test_compute_stats_menagerie(lexicon, menagerie_ids):
    tags = build_tags(menagerie_ids, CloudKind.ALL, lexicon, FilterConfig())
    stats = compute_stats(menagerie_ids, tags, elapsed_ms=0)
    assert (
        stats.packages,
        stats.classes,
        stats.attributes,
        stats.methods,
        stats.identifiers,
    ) == (2, 7, 13, 15, 37)
    kind_sum = stats.packages + stats.classes + stats.attributes + stats.methods
    assert kind_sum == stats.identifiers


def test_compute_stats_empty():
    stats = compute_stats([], [], elapsed_ms=0)
    assert (
        stats.packages,
        stats.classes,
        stats.attributes,
        stats.methods,
        stats.identifiers,
        stats.tags,
    ) == (0, 0, 0, 0, 0, 0)


def test_min_tag_length_validated():
    with pytest.raises(ValueError):
        FilterConfig(min_tag_length=0)


def test_cloud_json_round_trip(lexicon, drawing_shapes_ids):
    cfg = FilterConfig(show_frequency=True)
    cloud = build_cloud(drawing_shapes_ids, CloudKind.ALL, lexicon, cfg, "demo")
    payload = cloud_to_json_dict(cloud)
    assert payload["kind"] == "All"
    assert payload["filters"]["showFrequency"] is True
    rebuilt = cloud_from_json_dict(payload)
    assert rebuilt.kind is cloud.kind
    assert rebuilt.filters == cloud.filters
    assert rebuilt.corpus_label == cloud.corpus_label
    assert [(t.stem, t.weight) for t in rebuilt.tags] == [
        (t.stem, t.weight) for t in cloud.tags
    ]


def test_contributors_serialize_as_qualified_names(lexicon, drawing_shapes_ids):
    cloud = build_cloud(drawing_shapes_ids, CloudKind.ALL, lexicon, FilterConfig())
    payload = cloud_to_json_dict(cloud)
    draw = next(entry for entry in payload["tags"] if entry["stem"] == "draw")
    assert draw["weight"] == 10
    assert len(draw["contributors"]) == 10
    assert "shapes.DrawPanel.drawAll" in draw["contributors"]
