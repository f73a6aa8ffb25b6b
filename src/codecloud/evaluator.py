"""Oracle-based evaluation of tag clouds.

The oracle is a second, deliberately naive implementation of the
split-and-stem pipeline: regex substitutions insert word boundaries and a
straight loop interprets the same lexicon data.  It shares nothing with
the production code path except the lexicon data, so agreement between the
two is evidence rather than tautology.  Each cloud tag gets precision, recall,
and F-measure computed from its cloud weight and the oracle's count of
identifiers containing the tag; an oracle stem the cloud lacks gets a row
with cloud frequency 0, whose recall of 0 fails the check.
"""

from __future__ import annotations

import re
import unicodedata
from collections import Counter
from itertools import chain
from typing import NamedTuple

from .cloudmodel import TagCloud, _select
from .extractor import Identifier
from .stemmer import DETACHMENT_RULES, StemLexicon


class CorpusMismatchError(ValueError):
    """A contributor of the cloud is not an identifier of the given corpus."""


# --- the naive reference pipeline ---------------------------------------

_ACRONYM_BOUNDARY = re.compile(r"(?<=[A-Z])(?=[A-Z][a-z])")
_CASE_BOUNDARY = re.compile(r"(?<=[a-z0-9])(?=[A-Z])")
_NON_LETTER = re.compile(r"[^A-Za-z]+")


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


def _naive_split(name: str) -> list[str]:
    spaced = _ACRONYM_BOUNDARY.sub(" ", _ascii_fold(name))
    spaced = _CASE_BOUNDARY.sub(" ", spaced)
    return _NON_LETTER.sub(" ", spaced).lower().split()


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
    return _oracle_stems(name, lexicon, stop_words_enabled, {})


def _oracle_stems(
    name: str, lexicon: StemLexicon, stop_words_enabled: bool, stem_of: dict[str, str]
) -> set[str]:
    """:func:`oracle_words` through ``stem_of``, the caller's word -> stem memo."""
    stems = set()
    for word in _naive_split(name):
        stem = stem_of.get(word)
        if stem is None:
            stem = stem_of[word] = _naive_stem(word, lexicon)
        stems.add(stem)
    if stop_words_enabled:
        stems -= lexicon.stop_words
    return stems


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
    def from_frequencies(cls, stem: str, cloud_frequency: int, oracle_frequency: int) -> EvalRow:
        """Score one tag: correct counts are modeled as min(cloud, oracle)."""
        correct = min(cloud_frequency, oracle_frequency)
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


def evaluate(cloud: TagCloud, ids: list[Identifier], lexicon: StemLexicon) -> EvalReport:
    """Score every cloud tag against the oracle frequency.

    The cloud must have been built from ``ids`` (checked through its
    contributors' qualified names) and without a short-tag filter, so that
    every tag is covered.  A kind-restricted cloud is scored against the oracle
    over that kind's identifiers.  Stems the oracle finds but the cloud
    lacks get a row with cloud frequency 0; rows are in stem order.
    """
    known = {identifier.qualified_name for identifier in ids}
    for tag in cloud.tags:
        for name in tag.contributors:
            if name not in known:
                raise CorpusMismatchError(
                    f"contributor {name!r} of tag {tag.stem!r} is not part of the given corpus"
                )

    stop_words_enabled = cloud.filters.stop_words_enabled
    stem_of: dict[str, str] = {}
    counts = Counter(
        chain.from_iterable(
            _oracle_stems(identifier.simple_name, lexicon, stop_words_enabled, stem_of)
            for identifier in _select(ids, cloud.kind)
        )
    )
    rows = [
        EvalRow.from_frequencies(tag.stem, tag.weight, counts[tag.stem]) for tag in cloud.tags
    ]
    in_cloud = {tag.stem for tag in cloud.tags}
    rows += [EvalRow.from_frequencies(s, 0, n) for s, n in counts.items() if s not in in_cloud]
    rows.sort(key=lambda row: row.stem)
    return EvalReport(cloud.corpus_label, tuple(rows))


# --- serialization -------------------------------------------------------

#: The report's columns, one per :class:`EvalRow` field in field order.
_CSV_COLUMNS = ("stem", "cloudFreq", "oracleFreq", "precision", "recall", "fMeasure")


def report_to_csv(report: EvalReport) -> str:
    import csv
    import io

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(_CSV_COLUMNS)
    for row in report.rows:
        writer.writerow(f"{v:.6g}" if isinstance(v, float) else v for v in row)
    return buffer.getvalue()


def report_to_json_dict(report: EvalReport) -> dict:
    return {
        "corpus": report.corpus_label,
        "allPerfect": report.all_perfect,
        "rows": [dict(zip(_CSV_COLUMNS, row)) for row in report.rows],
    }
