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
    short_tag_enabled: bool = False
    min_tag_length: int = 4
    show_frequency: bool = False
    stop_words_enabled: bool = True


class FilterConfig(_FilterFields):
    """Cloud filter settings.

    The short-tag filter removes tags below ``min_tag_length`` characters;
    the frequency "filter" is render-time only and never changes the tag
    set.  Stop-word removal happens before weighting.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.min_tag_length < 1:
            raise ValueError("min_tag_length must be >= 1")
        return self

    @classmethod
    def _make(cls, iterable):  # so that ``_replace`` checks its result too
        return cls(*iterable)


class Tag(NamedTuple):
    """A stemmed word, its weight, and the identifiers that contain it.

    ``contributors`` are the qualified names of those identifiers, in corpus
    order; ``weight`` is authoritative for a cloud deserialized from JSON.
    """

    stem: str
    weight: int
    contributors: tuple[str, ...] = ()


class TagCloud(NamedTuple):
    kind: CloudKind
    tags: tuple[Tag, ...]
    filters: FilterConfig
    corpus_label: str = ""


class CloudStats(NamedTuple):
    """Corpus statistics; the field names are the stats report's columns."""

    packages: int
    classes: int
    attributes: int
    methods: int
    identifiers: int
    tags: int
    elapsed_ms: int


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
    stem_of: dict[str, str] = {}  # one call's memo, so it always matches ``lexicon``
    for identifier in _select(ids, kind):
        stems = set()
        for word in split_identifier(identifier.simple_name):
            stem = stem_of.get(word)
            if stem is None:
                stem = stem_of[word] = stem_word(word, lexicon)
            stems.add(stem)
        if cfg.stop_words_enabled:
            stems -= lexicon.stop_words
        for stem in stems:
            contributors.setdefault(stem, []).append(identifier.qualified_name)
    return [
        Tag(stem, len(members), tuple(members))
        for stem, members in sorted(contributors.items())
    ]


def apply_short_tag_filter(tags: list[Tag], cfg: FilterConfig) -> list[Tag]:
    """Drop tags shorter than the configured length; identity when disabled."""
    if not cfg.short_tag_enabled:
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


def compute_stats(ids: list[Identifier], tags: list[Tag], elapsed_ms: int) -> CloudStats:
    """Per-kind identifier counts plus the distinct tag count.

    ``tags`` must be built over all identifiers with no short-tag filter.
    """
    by_kind = {kind: 0 for kind in IdentifierKind}
    for identifier in ids:
        by_kind[identifier.kind] += 1
    return CloudStats(
        packages=by_kind[IdentifierKind.PACKAGE],
        classes=by_kind[IdentifierKind.CLASS],
        attributes=by_kind[IdentifierKind.ATTRIBUTE],
        methods=by_kind[IdentifierKind.METHOD],
        identifiers=len(ids),
        tags=len(tags),
        elapsed_ms=elapsed_ms,
    )


# --- serialization -------------------------------------------------------


def stats_to_row(stats: CloudStats, corpus_label: str) -> dict:
    """The stats report's one row: column name -> value, in column order."""
    return {"corpus": corpus_label, **stats._asdict()}


def stats_to_csv(stats: CloudStats, corpus_label: str) -> str:
    import csv
    import io

    row = stats_to_row(stats, corpus_label)
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=row, lineterminator="\n")
    writer.writeheader()
    writer.writerow(row)
    return buffer.getvalue()


def cloud_to_json_dict(cloud: TagCloud) -> dict:
    """Wire form of a cloud; contributors appear as qualified names."""
    return {
        "corpus": cloud.corpus_label,
        "kind": cloud.kind.value,
        "filters": {
            "shortTagEnabled": cloud.filters.short_tag_enabled,
            "minTagLength": cloud.filters.min_tag_length,
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


def cloud_from_json_dict(payload: dict) -> TagCloud:
    """Rebuild a cloud from its wire form.

    The result renders, and evaluates against the corpus it was built from,
    exactly like the original.
    """
    filters = payload.get("filters", {})
    cfg = FilterConfig(
        short_tag_enabled=bool(filters.get("shortTagEnabled", False)),
        min_tag_length=int(filters.get("minTagLength", 4)),
        show_frequency=bool(filters.get("showFrequency", False)),
        stop_words_enabled=bool(filters.get("stopWordsEnabled", True)),
    )
    tags = tuple(
        Tag(
            stem=str(entry["stem"]),
            weight=int(entry["weight"]),
            contributors=tuple(map(str, entry.get("contributors", ()))),
        )
        for entry in payload.get("tags", ())
    )
    return TagCloud(
        kind=CloudKind(payload.get("kind", "All")),
        tags=tags,
        filters=cfg,
        corpus_label=str(payload.get("corpus", "")),
    )
