"""Weighted tags and tag clouds built from extracted identifiers.

A tag's weight counts the identifiers whose name contains the tag at
least once (not raw word occurrences), so "DrawDraw" contributes one to
"draw".  Clouds come in five granularities: one per identifier kind plus
one over all identifiers.  Tags are kept in strict alphabetical order.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable, NamedTuple

from .extractor import Identifier, IdentifierKind
from .splitter import split_identifier
from .stemmer import StemLexicon, stem_word


class CloudKind(Enum):
    PACKAGE = "Package"
    CLASS = "Class"
    ATTRIBUTE = "Attribute"
    METHOD = "Method"
    ALL = "All"


class _FilterFields(NamedTuple):
    min_tag_length: int | None = None
    show_frequency: bool = False
    stop_words_enabled: bool = True


class FilterConfig(_FilterFields):
    """Cloud filter settings.

    The short-tag filter removes tags below ``min_tag_length`` characters,
    and is off when that is None; the frequency "filter" is render-time only
    and never changes the tag set.  Stop-word removal happens before
    weighting.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.min_tag_length is not None and self.min_tag_length < 1:
            raise ValueError("min_tag_length must be >= 1")
        return self

    @classmethod
    def _make(cls, iterable):  # so that ``_replace`` checks its result too
        return cls(*iterable)


class Tag(NamedTuple):
    """A stemmed word, its weight, and the identifiers that contain it.

    ``contributors`` are the qualified names of those identifiers, in corpus
    order.
    """

    stem: str
    weight: int
    contributors: tuple[str, ...] = ()


class TagCloud(NamedTuple):
    kind: CloudKind
    tags: tuple[Tag, ...]
    filters: FilterConfig
    corpus_label: str = ""


def _select(ids: Iterable[Identifier], kind: CloudKind) -> Iterable[Identifier]:
    if kind is CloudKind.ALL:
        return ids
    wanted = IdentifierKind(kind.value)
    return (identifier for identifier in ids if identifier.kind is wanted)


def build_tags(
    ids: Iterable[Identifier], kind: CloudKind, lexicon: StemLexicon, cfg: FilterConfig
) -> list[Tag]:
    """One alphabetically ordered Tag per distinct stem in the selection.

    ``ids`` is read once, so it may be a one-shot iterator; only each
    tag's contributor names are kept.
    """
    contributors: dict[str, list[str]] = {}
    # One call's memo, so it matches ``lexicon`` and ``cfg``: a word's stem,
    # or "" when the cloud drops that stem as a stop word.  No stem is "":
    # words are non-empty, rules leave two letters, exceptions are words.
    stem_of: dict[str, str] = {}
    stop_words = lexicon.stop_words if cfg.stop_words_enabled else frozenset()
    for identifier in _select(ids, kind):
        stems = set()
        for word in split_identifier(identifier.simple_name):
            stem = stem_of.get(word)
            if stem is None:
                stem = stem_word(word, lexicon)
                stem = stem_of[word] = "" if stem in stop_words else stem
            stems.add(stem)
        stems.discard("")
        name = identifier.qualified_name
        for stem in stems:
            if stem in contributors:
                contributors[stem].append(name)
            else:
                contributors[stem] = [name]
    return [
        Tag(stem, len(members), tuple(members))
        for stem, members in sorted(contributors.items())
    ]


def apply_short_tag_filter(tags: list[Tag], cfg: FilterConfig) -> list[Tag]:
    """Drop tags shorter than the configured length; identity when it is None."""
    if cfg.min_tag_length is None:
        return list(tags)
    return [tag for tag in tags if len(tag.stem) >= cfg.min_tag_length]


def build_cloud(
    ids: Iterable[Identifier],
    kind: CloudKind,
    lexicon: StemLexicon,
    cfg: FilterConfig,
    corpus_label: str = "",
) -> TagCloud:
    """Build tags for the selected kind, reading ``ids`` once, and apply the filters."""
    tags = apply_short_tag_filter(build_tags(ids, kind, lexicon, cfg), cfg)
    return TagCloud(kind=kind, tags=tuple(tags), filters=cfg, corpus_label=corpus_label)


# --- serialization -------------------------------------------------------

#: ``minTagLength`` in JSON while the short-tag filter is off, so the wire form keeps its bytes.
_WIRE_OFF_TAG_LENGTH = 4


def cloud_to_json_dict(cloud: TagCloud) -> dict:
    """Wire form of a cloud; contributors appear as qualified names."""
    min_tag_length = cloud.filters.min_tag_length
    return {
        "corpus": cloud.corpus_label,
        "kind": cloud.kind.value,
        "filters": {
            "shortTagEnabled": min_tag_length is not None,
            "minTagLength": _WIRE_OFF_TAG_LENGTH if min_tag_length is None else min_tag_length,
            "showFrequency": cloud.filters.show_frequency,
            "stopWordsEnabled": cloud.filters.stop_words_enabled,
        },
        "tags": [
            {
                "stem": tag.stem,
                "weight": tag.weight,
                "contributors": sorted(tag.contributors),
            }
            for tag in cloud.tags
        ],
    }

