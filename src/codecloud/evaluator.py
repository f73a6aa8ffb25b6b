"""Oracle-based evaluation of tag clouds.

The oracle is a second, deliberately naive implementation of the
split-and-stem pipeline: regex substitutions insert word boundaries and a
straight loop interprets the same lexicon data.  It shares nothing with
the production code path except the lexicon data, so agreement between the
two is evidence rather than tautology.

Evaluation is two steps.  :func:`tally_oracle` passes the identifiers on
while it records, for each oracle stem, the qualified names of the
identifiers containing it; it splits their names a bounded batch at a time,
so the corpus is read once and never held.  :func:`score` then gives each
cloud tag precision, recall and F-measure from its weight, the oracle's
count and how many of its contributors the oracle names too, so a tag with
the right weight but the wrong contributors fails.  An oracle stem the cloud
lacks gets a row with cloud frequency 0, whose recall of 0 fails the check.
"""

from __future__ import annotations

import re
import unicodedata
from collections import Counter
from itertools import islice
from typing import Iterable, Iterator, NamedTuple

from .cloudmodel import CloudKind, TagCloud, _select
from .extractor import Identifier
from .stemmer import DETACHMENT_RULES, StemLexicon


# --- the naive reference pipeline ---------------------------------------

_ACRONYM_BOUNDARY = re.compile(r"(?<=[A-Z])(?=[A-Z][a-z])")
_CASE_BOUNDARY = re.compile(r"(?<=[a-z0-9])(?=[A-Z])")
#: Spares ``\n``, which joins the names of a batch.
_NON_LETTER = re.compile(r"[^A-Za-z\n]+")

#: Names split by one run of the three regex passes.
_BATCH = 256


def _ascii_fold(name: str) -> str:
    """Reduce non-ASCII letters to ASCII base letters, preserving case.

    Other non-ASCII characters and letters with no ASCII base become spaces
    (separators); a letter folding to several ASCII letters stays lowercase.
    """
    if name.isascii():
        return name
    out = []
    for ch in name:
        if ch.isascii():
            out.append(ch)
            continue
        base = "".join(
            c
            for c in unicodedata.normalize("NFKD", ch.casefold())
            if "a" <= c <= "z"
        )
        if not base or not ch.isalpha():
            out.append(" ")
        elif ch.isupper() and len(base) == 1:
            out.append(base.upper())
        else:
            out.append(base)
    return "".join(out)


def _spaced(folded: str) -> str:
    """Lowercase words separated by spaces, line for line, from ASCII-folded text."""
    spaced = _ACRONYM_BOUNDARY.sub(" ", folded)
    spaced = _CASE_BOUNDARY.sub(" ", spaced)
    return _NON_LETTER.sub(" ", spaced).lower()


def _naive_split(name: str) -> list[str]:
    return _spaced(_ascii_fold(name)).split()


def _split_batch(names: list[str]) -> list[list[str]]:
    """:func:`_naive_split` of each name, by one run of the passes over them all."""
    joined = _ascii_fold("\n".join(names))  # folding keeps each "\n" and adds none
    if joined.count("\n") != len(names) - 1:  # no names, or one holds the joiner
        return [_naive_split(name) for name in names]
    return [line.split() for line in _spaced(joined).split("\n")]


def _naive_stem(word: str, lexicon: StemLexicon) -> str:
    if word in lexicon.exceptions:
        return lexicon.exceptions[word]
    for suffix, replacement, min_stem, needs_list in DETACHMENT_RULES:
        if not word.endswith(suffix):
            continue
        stem = word[: len(word) - len(suffix)]
        if len(stem) < min_stem:
            continue
        candidate = stem + replacement
        if needs_list and candidate not in lexicon.word_list:
            continue
        return candidate
    return word


def oracle_words(name: str, lexicon: StemLexicon, stop_words_enabled: bool = True) -> set[str]:
    """Stem set of one identifier name, via the naive reference pipeline."""
    return _oracle_stems(_naive_split(name), lexicon, stop_words_enabled, {})


def _oracle_stems(
    words: list[str], lexicon: StemLexicon, stop_words_enabled: bool, stem_of: dict[str, str]
) -> set[str]:
    """Stem set of one name's words through ``stem_of``, the caller's word -> stem memo."""
    stems = set()
    for word in words:
        stem = stem_of.get(word)
        if stem is None:
            stem = stem_of[word] = _naive_stem(word, lexicon)
        stems.add(stem)
    if stop_words_enabled:
        stems -= lexicon.stop_words
    return stems


def tally_oracle(
    ids: Iterable[Identifier],
    tally: dict[str, list[str]],
    lexicon: StemLexicon,
    kind: CloudKind = CloudKind.ALL,
    stop_words_enabled: bool = True,
) -> Iterator[Identifier]:
    """Yield every identifier of ``ids`` once ``tally`` holds it.

    ``ids`` is read once.  For each oracle stem, ``tally`` gets the qualified
    name of every identifier of ``kind`` that contains it, one entry per
    identifier, so overloads repeat a name and the list's length is the
    oracle frequency.  Names are split a batch at a time; only the batch at
    hand is held.
    """
    stem_of: dict[str, str] = {}  # one call's memo, so it always matches ``lexicon``
    ids = iter(ids)
    while batch := list(islice(ids, _BATCH)):
        selected = list(_select(batch, kind))
        words = _split_batch([identifier.simple_name for identifier in selected])
        for identifier, split in zip(selected, words):
            for stem in _oracle_stems(split, lexicon, stop_words_enabled, stem_of):
                tally.setdefault(stem, []).append(identifier.qualified_name)
        yield from batch


# --- metrics -------------------------------------------------------------


class EvalRow(NamedTuple):
    stem: str
    cloud_frequency: int
    oracle_frequency: int
    precision: float
    recall: float
    f_measure: float

    @property
    def perfect(self) -> bool:
        return self.precision == 1.0 and self.recall == 1.0 and self.f_measure == 1.0

    @classmethod
    def from_frequencies(
        cls, stem: str, cloud_frequency: int, oracle_frequency: int, shared: int | None = None
    ) -> EvalRow:
        """Score one tag: correct counts are modeled as min(cloud, shared).

        ``shared`` is how many of the oracle's identifiers the tag names as
        contributors; by default, all of them.
        """
        correct = min(cloud_frequency, oracle_frequency if shared is None else shared)
        if cloud_frequency > 0:
            precision = correct / cloud_frequency
        else:
            precision = 1.0 if oracle_frequency == 0 else 0.0
        if oracle_frequency > 0:
            recall = correct / oracle_frequency
        else:
            recall = 1.0 if cloud_frequency == 0 else 0.0
        if precision + recall > 0:
            f_measure = 2 * precision * recall / (precision + recall)
        else:
            f_measure = 0.0
        return cls(stem, cloud_frequency, oracle_frequency, precision, recall, f_measure)


class EvalReport(NamedTuple):
    corpus_label: str
    rows: tuple[EvalRow, ...]

    @property
    def all_perfect(self) -> bool:
        return all(row.perfect for row in self.rows)


def _shared(contributors: tuple[str, ...], names: list[str]) -> int:
    """Size of the multiset intersection of a tag's contributors and the oracle's names."""
    if list(contributors) == names:  # a cloud built from the same stream, in its order
        return len(names)
    return sum((Counter(contributors) & Counter(names)).values())


def score(cloud: TagCloud, tally: dict[str, list[str]]) -> EvalReport:
    """Score every cloud tag against ``tally``, filled by :func:`tally_oracle`.

    The tally must cover the cloud's kind with its stop-word setting, and
    the cloud must have no short-tag filter, so that every tag is covered.
    Stems the oracle finds but the cloud lacks get a row with cloud
    frequency 0; rows are in stem order.
    """
    rows = []
    for tag in cloud.tags:
        names = tally.get(tag.stem, [])
        shared = _shared(tag.contributors, names)
        rows.append(EvalRow.from_frequencies(tag.stem, tag.weight, len(names), shared))
    in_cloud = {tag.stem for tag in cloud.tags}
    rows += [EvalRow.from_frequencies(s, 0, len(n)) for s, n in tally.items() if s not in in_cloud]
    rows.sort(key=lambda row: row.stem)
    return EvalReport(cloud.corpus_label, tuple(rows))


def evaluate(cloud: TagCloud, ids: Iterable[Identifier], lexicon: StemLexicon) -> EvalReport:
    """:func:`score` of ``cloud`` against the oracle's tally of ``ids``, read once.

    A kind-restricted cloud is scored against the oracle over that kind's
    identifiers.
    """
    tally: dict[str, list[str]] = {}
    for _ in tally_oracle(ids, tally, lexicon, cloud.kind, cloud.filters.stop_words_enabled):
        pass
    return score(cloud, tally)


# --- serialization -------------------------------------------------------

#: The report's columns, one per :class:`EvalRow` field in field order: the
#: CSV header, and the keys of each JSON row.
_CSV_COLUMNS = ("stem", "cloudFreq", "oracleFreq", "precision", "recall", "fMeasure")


def report_to_json_dict(report: EvalReport) -> dict:
    return {
        "corpus": report.corpus_label,
        "allPerfect": report.all_perfect,
        "rows": [dict(zip(_CSV_COLUMNS, row)) for row in report.rows],
    }
