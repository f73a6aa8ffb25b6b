"""Word stemming via an exception map plus ordered suffix-detachment rules.

The lexicon is self-contained: irregular forms live in an exception map
(``wrote -> write``), regular inflections are handled by detachment rules
applied longest-suffix-first, and a small embedded word list arbitrates
the ambiguous cases (``writing`` restores the trailing e only because
``write`` is a known word; ``drawing`` falls back to the bare strip).
Stop words are a separate set consulted after stemming.
"""

from __future__ import annotations

from pathlib import Path
from typing import NamedTuple

#: (suffix, replacement, min_stem_len, needs_word_list), tried in order.
#: A rule applies when the word ends with the suffix and at least
#: min_stem_len characters remain before it; a gated rule is skipped
#: unless its candidate is in the embedded word list.  The "ss" -> "ss"
#: identity rule shields words like "class" from the bare "s" strip.
DETACHMENT_RULES: tuple[tuple[str, str, int, bool], ...] = (
    ("ies", "y", 2, False),
    ("ing", "e", 2, True),
    ("ing", "", 2, False),
    ("ied", "y", 2, False),
    ("ed", "e", 2, True),
    ("ed", "", 2, False),
    ("ss", "ss", 2, False),
    ("es", "", 2, True),
    ("s", "", 2, False),
)


class StemLexicon(NamedTuple):
    """Immutable stemming data: safe to share across threads."""

    exceptions: dict[str, str]
    stop_words: frozenset[str]
    word_list: frozenset[str]


class LexiconError(ValueError):
    """Raised when a lexicon data file is malformed."""


def _is_lower_alpha(word: str) -> bool:
    return word.isascii() and word.isalpha() and word.islower()


def _iter_data_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _read_word_set(text: str, source: str) -> frozenset[str]:
    words = set()
    for lineno, line in _iter_data_lines(text):
        if not _is_lower_alpha(line):
            raise LexiconError(f"{source}:{lineno}: expected one lowercase word, got {line!r}")
        words.add(line)
    return frozenset(words)


def _read_pairs(text: str, source: str) -> dict[str, str]:
    pairs: dict[str, str] = {}
    for lineno, line in _iter_data_lines(text):
        parts = line.split()
        if len(parts) != 2 or not all(_is_lower_alpha(p) for p in parts):
            raise LexiconError(f"{source}:{lineno}: expected two lowercase words, got {line!r}")
        pairs[parts[0]] = parts[1]
    return pairs


def _data_file(name: str, override: str | Path | None = None) -> tuple[str, str]:
    """Text of the bundled data file ``name`` or of its override, and its label."""
    path = Path(__file__).parent / "data" / name if override is None else Path(override)
    return path.read_text(encoding="utf-8"), name if override is None else str(override)


def load_lexicon(
    exceptions_path: str | Path | None = None,
    stopwords_path: str | Path | None = None,
) -> StemLexicon:
    """Load the bundled lexicon, optionally overriding its data files.

    ``exceptions.txt`` holds one ``inflected base`` pair per line,
    ``stopwords.txt`` one word per line; ``#`` starts a comment in both.
    """
    exceptions = _read_pairs(*_data_file("exceptions.txt", exceptions_path))
    stop_words = _read_word_set(*_data_file("stopwords.txt", stopwords_path))
    word_list = _read_word_set(*_data_file("wordlist.txt"))
    return StemLexicon(exceptions=exceptions, stop_words=stop_words, word_list=word_list)


def stem_word(word: str, lexicon: StemLexicon) -> str:
    """Map a lowercase word to its base form.

    Exception map first, then the first applicable detachment rule (applied
    once); words matching nothing pass through unchanged.
    """
    base = lexicon.exceptions.get(word)
    if base is not None:
        return base
    for suffix, replacement, min_stem, needs_list in DETACHMENT_RULES:
        if len(word) - len(suffix) >= min_stem and word.endswith(suffix):
            candidate = word[: len(word) - len(suffix)] + replacement
            if needs_list and candidate not in lexicon.word_list:
                continue
            return candidate
    return word
