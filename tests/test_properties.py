"""Randomized property tests for the module invariants.

The five core properties (split reconstruction, stem idempotence, filter
monotonicity, font-size monotonicity, kind decomposition) each run with
at least 1000 generated cases.
"""

import string

from hypothesis import example, given, settings, strategies as st

from codecloud import (
    CloudKind,
    FilterConfig,
    Identifier,
    IdentifierKind,
    RenderConfig,
    SourceUnit,
    Tag,
    TagCloud,
    apply_short_tag_filter,
    build_tags,
    evaluate,
    extract_identifiers,
    font_size_for,
    load_lexicon,
    split_identifier,
    stem_word,
)
from codecloud.evaluator import EvalRow, _naive_split, oracle_words
from codecloud.renderer import layout_cloud, text_width

from reference import oracle_frequency, reference_split, tags_of_identifier

LEXICON = load_lexicon()

identifier_names = st.from_regex(r"[A-Za-z_$][A-Za-z0-9_$]{0,23}", fullmatch=True)

_STEM_POOL = sorted(
    set(LEXICON.word_list)
    | set(LEXICON.exceptions)
    | set(LEXICON.exceptions.values())
    | set(LEXICON.stop_words)
)


@settings(max_examples=1000, deadline=None)
@given(identifier_names)
def test_split_reconstruction(name):
    words = split_identifier(name)
    letters_only = "".join(c for c in name if c.isalpha()).lower()
    assert "".join(words) == letters_only


@settings(max_examples=1000, deadline=None)
@given(identifier_names)
def test_split_output_words_are_clean_and_stable(name):
    for word in split_identifier(name):
        assert word and all("a" <= c <= "z" for c in word)
        assert split_identifier(word) == [word]


@settings(max_examples=1000, deadline=None)
@given(identifier_names)
def test_split_matches_bruteforce_reference(name):
    assert split_identifier(name) == reference_split(name)


@settings(max_examples=1000, deadline=None)
@given(st.text())
def test_split_matches_bruteforce_reference_on_any_text(name):
    assert split_identifier(name) == reference_split(name)


@settings(max_examples=1000, deadline=None)
@given(identifier_names)
def test_oracle_split_matches_bruteforce_reference(name):
    assert _naive_split(name) == reference_split(name)


@settings(max_examples=1000, deadline=None)
@given(st.text())
@example("count\u216bTotal\u24d0")  # a letter number and a symbol, neither a letter
def test_oracle_split_matches_bruteforce_reference_on_any_text(name):
    assert _naive_split(name) == reference_split(name)


@settings(max_examples=1000, deadline=None)
@given(st.sampled_from(_STEM_POOL))
def test_stem_idempotent_on_lexicon_scope(word):
    once = stem_word(word, LEXICON)
    assert stem_word(once, LEXICON) == once


@settings(max_examples=1000, deadline=None)
@given(
    st.lists(
        st.tuples(st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=10),
                  st.integers(min_value=1, max_value=500)),
        max_size=30,
        unique_by=lambda pair: pair[0],
    ),
    st.integers(min_value=1, max_value=8),
)
def test_filter_monotone_and_weight_preserving(pairs, min_len):
    pairs.sort()
    tags = [Tag(stem, weight) for stem, weight in pairs]
    cfg = FilterConfig(short_tag_enabled=True, min_tag_length=min_len)
    filtered = apply_short_tag_filter(tags, cfg)
    assert set(filtered) <= set(tags)
    assert all(len(tag.stem) >= min_len for tag in filtered)
    original = {tag.stem: tag.weight for tag in tags}
    assert all(original[tag.stem] == tag.weight for tag in filtered)
    # order preserved
    kept = [tag.stem for tag in filtered]
    assert kept == [tag.stem for tag in tags if len(tag.stem) >= min_len]


@settings(max_examples=1000, deadline=None)
@given(st.data())
def test_font_size_monotone(data):
    min_weight = data.draw(st.integers(min_value=1, max_value=100))
    max_weight = data.draw(st.integers(min_value=min_weight, max_value=min_weight + 2000))
    w1 = data.draw(st.integers(min_value=min_weight, max_value=max_weight))
    w2 = data.draw(st.integers(min_value=w1, max_value=max_weight))
    cfg = RenderConfig()
    s1 = font_size_for(w1, min_weight, max_weight, cfg)
    s2 = font_size_for(w2, min_weight, max_weight, cfg)
    assert cfg.min_font_pt <= s1 <= s2 <= cfg.max_font_pt
    if w1 < w2 and min_weight < max_weight:
        # strict whenever a single weight step is still visible after
        # rounding to two decimals
        step = (cfg.max_font_pt - cfg.min_font_pt) / (max_weight - min_weight)
        if step >= 0.01:
            assert s1 < s2


_KINDS = st.sampled_from(list(IdentifierKind))


@settings(max_examples=1000, deadline=None)
@given(st.lists(st.tuples(identifier_names, _KINDS), max_size=25))
def test_kind_decomposition(entries):
    ids = [
        Identifier(kind, name, f"p.{name}", "G.java", 1) for name, kind in entries
    ]
    cfg = FilterConfig()
    all_weights = {
        tag.stem: tag.weight for tag in build_tags(ids, CloudKind.ALL, LEXICON, cfg)
    }
    summed: dict[str, int] = {}
    for kind in (CloudKind.PACKAGE, CloudKind.CLASS, CloudKind.ATTRIBUTE, CloudKind.METHOD):
        for tag in build_tags(ids, kind, LEXICON, cfg):
            summed[tag.stem] = summed.get(tag.stem, 0) + tag.weight
    assert summed == all_weights


# Names built from lexicon words share stems (and stop words) across
# identifiers; arbitrary names mostly do not.
_lexicon_names = st.lists(st.sampled_from(_STEM_POOL), min_size=1, max_size=3).map(
    lambda words: words[0] + "".join(word.title() for word in words[1:])
)


@settings(max_examples=500, deadline=None)
@given(
    st.lists(st.tuples(st.one_of(identifier_names, _lexicon_names), _KINDS), max_size=30),
    st.sampled_from(list(CloudKind)),
    st.booleans(),
)
def test_one_pass_counts_equal_per_tag_scans(entries, kind, stop_words_enabled):
    ids = [
        Identifier(ident_kind, name, f"p.{name}", "G.java", 1) for name, ident_kind in entries
    ]
    selected = [i for i in ids if kind is CloudKind.ALL or i.kind.name == kind.name]
    cfg = FilterConfig(stop_words_enabled=stop_words_enabled)
    tags = build_tags(ids, kind, LEXICON, cfg)

    expected: dict[str, list[str]] = {}
    for identifier in selected:
        for stem in tags_of_identifier(identifier, LEXICON, cfg):
            expected.setdefault(stem, []).append(identifier.qualified_name)
    assert tags == [
        Tag(stem, len(members), tuple(members)) for stem, members in sorted(expected.items())
    ]

    report = evaluate(TagCloud(kind, tuple(tags), cfg, "prop"), ids, LEXICON)
    oracle_stems = set()
    for identifier in selected:
        oracle_stems |= oracle_words(identifier.simple_name, LEXICON, stop_words_enabled)
    assert [row.stem for row in report.rows] == sorted(set(expected) | oracle_stems)
    for row in report.rows:
        assert row.oracle_frequency == oracle_frequency(
            row.stem, selected, LEXICON, stop_words_enabled
        )


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=14),
                  st.integers(min_value=1, max_value=99)),
        max_size=40,
        unique_by=lambda pair: pair[0],
    ),
    st.booleans(),
    st.integers(min_value=120, max_value=1200),
)
def test_layout_rows_fit_page(pairs, show_frequency, page_width):
    pairs.sort()
    cloud = TagCloud(
        CloudKind.ALL,
        tuple(Tag(stem, weight) for stem, weight in pairs),
        FilterConfig(show_frequency=show_frequency),
        "prop",
    )
    cfg = RenderConfig(page_width_px=page_width)
    placed, row_heights = layout_cloud(cloud, cfg)
    assert len(placed) == len(pairs)
    available = page_width - 20.0
    extent: dict[int, float] = {}
    members: dict[int, int] = {}
    for item in placed:
        width = item.label_width
        if item.freq_label is not None:
            width += text_width(" " + item.freq_label, item.font_size)
        extent[item.row] = item.x + width
        members[item.row] = members.get(item.row, 0) + 1
    for row, end in extent.items():
        assert end <= available + 1e-9 or members[row] == 1
    assert len(row_heights) == (max(extent) + 1 if extent else 0)


@settings(max_examples=500, deadline=None)
@given(st.integers(min_value=0, max_value=1000), st.integers(min_value=0, max_value=1000))
def test_metric_bounds_and_symmetry(cloud_freq, oracle_freq):
    row = EvalRow.from_frequencies("w", cloud_freq, oracle_freq)
    assert 0.0 <= row.precision <= 1.0
    assert 0.0 <= row.recall <= 1.0
    assert 0.0 <= row.f_measure <= max(row.precision, row.recall) + 1e-12
    swapped = EvalRow.from_frequencies("w", oracle_freq, cloud_freq)
    assert row.precision == swapped.recall
    assert row.recall == swapped.precision
    assert abs(row.f_measure - swapped.f_measure) < 1e-12
    if row.f_measure == 1.0:
        assert row.precision == 1.0 and row.recall == 1.0


#: Initializers of an ``Object`` field.  Each compiles with javac 17, plain and
#: as the one element of an array initializer, given imports of ``java.util``,
#: ``java.util.function`` and ``p.Ann``, a type-use annotation with an ``int``
#: value.
_FIELD_INITIALIZERS = (
    "new HashMap<String, Integer>()",
    "new java.util.HashMap<String, List<Integer>>()",
    "new @Ann(1) HashMap<String, Integer>()",
    "new @p.Ann(1) HashMap<String, Integer>()",
    "new java.util.@Ann(2) HashMap<String, Integer[]>()",
    "(Supplier<Object>) HashMap<String /* c */, Integer>::new",
    "(Supplier<Object>) HashMap<@Ann(1) String, Integer>::new",
    "Collections.<String, Integer>emptyMap()",
    "(Object) 1 instanceof Map<?, ?> m && m.isEmpty()",
    "1 < 2 == 3 > 4",
    "1 < 2 ? 3 : 4",
    "(BiFunction<Integer, Integer, Integer>) (x, y) -> x + y",
    "(Runnable) () -> { }",
    'String.format("%s, %s", 1, 2)',
    "new int[] {1, 2}",
)


@settings(max_examples=500, deadline=None)
@given(
    st.lists(
        st.tuples(st.booleans(), st.none() | st.sampled_from(_FIELD_INITIALIZERS)),
        min_size=1,
        max_size=4,
    )
)
def test_field_declarators_are_exactly_the_names(declarators):
    names = [f"f{index}" for index in range(len(declarators))]
    parts = []
    for name, (dims, initializer) in zip(names, declarators):
        part = name + "[]" * dims
        if initializer is not None:  # an array declarator holds the initializer as its element
            part += " = " + (f"{{{initializer}}}" if dims else initializer)
        parts.append(part)
    source = f"class A {{ Object {', '.join(parts)}; }}"
    ids, diagnostics = extract_identifiers(SourceUnit("A.java", source))
    assert [i.qualified_name for i in ids] == ["A"] + [f"A.{name}" for name in names]
    assert diagnostics == []
