import pytest

from codecloud import (
    LexiconError,
    extract_corpus,
    load_lexicon,
    scan_tree,
    split_identifier,
    stem_word,
)
from codecloud.stemmer import DETACHMENT_RULES

from conftest import FIXTURES


def test_inflection_family_converges(lexicon):
    assert stem_word("writing", lexicon) == "write"
    assert stem_word("wrote", lexicon) == "write"
    assert stem_word("written", lexicon) == "write"


def test_ed_suffix_strips(lexicon):
    assert stem_word("performed", lexicon) == "perform"


def test_base_form_is_untouched(lexicon):
    assert stem_word("shape", lexicon) == "shape"


@pytest.mark.parametrize(
    ("word", "stem"),
    [
        ("drawing", "draw"),        # bare -ing strip
        ("used", "use"),            # -ed with e-restoration
        ("copied", "copy"),         # -ied
        ("entities", "entity"),     # -ies
        ("boxes", "box"),           # -es accepted via the word list
        ("shapes", "shape"),        # -es rejected, falls through to -s
        ("classes", "class"),
        ("class", "class"),         # shielded by the ss rule
        ("methods", "method"),
        ("ties", "tie"),            # -ies blocked by min stem length
        ("sing", "sing"),           # -ing blocked by min stem length
        ("xml", "xml"),             # unknown words pass through
        ("args", "arg"),
        ("its", "it"),
        ("feet", "foot"),           # irregular plural
        ("radius", "radius"),       # protected fixed point
    ],
)
def test_detachment_rules(lexicon, word, stem):
    assert stem_word(word, lexicon) == stem


def test_stop_words(lexicon):
    assert "the" in lexicon.stop_words
    assert "draw" not in lexicon.stop_words
    # frequent tags in real clouds must survive stop-word removal
    assert "get" not in lexicon.stop_words
    assert "set" not in lexicon.stop_words


def test_idempotent_over_word_list(lexicon):
    for word in sorted(lexicon.word_list):
        once = stem_word(word, lexicon)
        assert stem_word(once, lexicon) == once, word


def test_idempotent_over_exception_values(lexicon):
    for base in sorted(set(lexicon.exceptions.values())):
        assert stem_word(base, lexicon) == base, base


def test_idempotent_over_fixture_words(lexicon):
    for sub in ("drawing_shapes", "menagerie", "broken"):
        for identifier in extract_corpus(scan_tree(FIXTURES / sub)):
            for word in split_identifier(identifier.simple_name):
                once = stem_word(word, lexicon)
                assert stem_word(once, lexicon) == once, (identifier.simple_name, word)


def test_stop_words_closed_under_stemming(lexicon):
    # stop-word removal happens after stemming, so a stop word's stem must
    # itself be a stop word or removal would leak
    for word in sorted(lexicon.stop_words):
        assert stem_word(word, lexicon) in lexicon.stop_words, word


def test_stems_stay_lowercase_alphabetic(lexicon):
    words = sorted(lexicon.word_list) + sorted(lexicon.exceptions) + ["drawing", "boxes"]
    for word in words:
        stem = stem_word(word, lexicon)
        assert stem == "" or all("a" <= c <= "z" for c in stem), (word, stem)


def test_rule_table_shape():
    for suffix, replacement, min_stem, _gated in DETACHMENT_RULES:
        assert suffix and min_stem >= 2
        assert all("a" <= c <= "z" for c in suffix)
        assert all("a" <= c <= "z" for c in replacement) or replacement == ""


def test_lexicon_overrides(tmp_path):
    stops = tmp_path / "stops.txt"
    stops.write_text("# a comment\nfoo\nbar\n")
    excs = tmp_path / "excs.txt"
    excs.write_text("beeped beep  # trailing comment\n")
    lexicon = load_lexicon(exceptions_path=excs, stopwords_path=stops)
    assert "foo" in lexicon.stop_words
    assert "the" not in lexicon.stop_words
    assert stem_word("beeped", lexicon) == "beep"


def test_malformed_data_rejected(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("Upper\n")
    with pytest.raises(LexiconError):
        load_lexicon(stopwords_path=bad)
    bad.write_text("one two three\n")
    with pytest.raises(LexiconError):
        load_lexicon(exceptions_path=bad)
