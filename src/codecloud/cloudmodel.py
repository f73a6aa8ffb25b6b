"""Weighted tags and tag clouds built from extracted identifiers.

A tag's weight counts the identifiers whose name contains the tag at
least once (not raw word occurrences), so "DrawDraw" contributes one to
"draw".  Clouds come in five granularities: one per identifier kind plus
one over all identifiers.  Tags are kept in strict alphabetical order.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from enum import Enum

from .extractor import Identifier, IdentifierKind
from .splitter import split_identifier
from .stemmer import StemLexicon, stem_word


class CloudKind(Enum):
    PACKAGE = "Package"
    CLASS = "Class"
    ATTRIBUTE = "Attribute"
    METHOD = "Method"
    ALL = "All"


@dataclass(frozen=True)
class FilterConfig:
    """Cloud filter settings.

    The short-tag filter removes tags below ``min_tag_length`` characters;
    the frequency "filter" is render-time only and never changes the tag
    set.  Stop-word removal happens before weighting.
    """

    short_tag_enabled: bool = False
    min_tag_length: int = 4
    show_frequency: bool = False
    stop_words_enabled: bool = True

    def __post_init__(self) -> None:
        if self.min_tag_length < 1:
            raise ValueError("min_tag_length must be >= 1")


@dataclass(frozen=True)
class Tag:
    """A stemmed word, its weight, and the identifiers that contain it.

    ``contributors`` holds :class:`Identifier` references for clouds built
    by the pipeline; a cloud deserialized from JSON carries qualified-name
    strings instead and ``weight`` is authoritative there.
    """

    stem: str
    weight: int
    contributors: tuple = ()


@dataclass(frozen=True)
class TagCloud:
    kind: CloudKind
    tags: tuple[Tag, ...]
    filters: FilterConfig
    corpus_label: str = ""


@dataclass(frozen=True)
class CloudStats:
    package_count: int
    class_count: int
    attribute_count: int
    method_count: int
    identifier_count: int
    tag_count: int
    elapsed_ms: int


def _stem_set(name: str, stem_of: dict, lexicon: StemLexicon, cfg: FilterConfig) -> set[str]:
    """The deduplicated stem set of ``name``; ``stem_of`` memoizes word -> stem."""
    stems = set()
    for word in split_identifier(name):
        stem = stem_of.get(word)
        if stem is None:
            stem = stem_of[word] = stem_word(word, lexicon)
        stems.add(stem)
    return stems - lexicon.stop_words if cfg.stop_words_enabled else stems


def tags_of_identifier(
    identifier: Identifier, lexicon: StemLexicon, cfg: FilterConfig
) -> set[str]:
    """The deduplicated stem set of one identifier's simple name."""
    return _stem_set(identifier.simple_name, {}, lexicon, cfg)


def _select(ids: list[Identifier], kind: CloudKind) -> list[Identifier]:
    if kind is CloudKind.ALL:
        return ids
    wanted = IdentifierKind(kind.value)
    return [identifier for identifier in ids if identifier.kind is wanted]


def build_tags(
    ids: list[Identifier], kind: CloudKind, lexicon: StemLexicon, cfg: FilterConfig
) -> list[Tag]:
    """One alphabetically ordered Tag per distinct stem in the selection."""
    contributors: dict[str, list[Identifier]] = {}
    stem_of: dict[str, str] = {}  # one call's memo, so it always matches ``lexicon``
    for identifier in _select(ids, kind):
        for stem in _stem_set(identifier.simple_name, stem_of, lexicon, cfg):
            contributors.setdefault(stem, []).append(identifier)
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
    ids: list[Identifier],
    kind: CloudKind,
    lexicon: StemLexicon,
    cfg: FilterConfig,
    corpus_label: str = "",
) -> TagCloud:
    """Build tags for the selected kind and apply the configured filters."""
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
        package_count=by_kind[IdentifierKind.PACKAGE],
        class_count=by_kind[IdentifierKind.CLASS],
        attribute_count=by_kind[IdentifierKind.ATTRIBUTE],
        method_count=by_kind[IdentifierKind.METHOD],
        identifier_count=len(ids),
        tag_count=len(tags),
        elapsed_ms=elapsed_ms,
    )


# --- serialization -------------------------------------------------------

_STATS_COLUMNS = (
    "corpus",
    "packages",
    "classes",
    "attributes",
    "methods",
    "identifiers",
    "tags",
    "elapsed_ms",
)


def stats_to_row(stats: CloudStats, corpus_label: str) -> dict:
    return {
        "corpus": corpus_label,
        "packages": stats.package_count,
        "classes": stats.class_count,
        "attributes": stats.attribute_count,
        "methods": stats.method_count,
        "identifiers": stats.identifier_count,
        "tags": stats.tag_count,
        "elapsed_ms": stats.elapsed_ms,
    }


def stats_to_csv(stats: CloudStats, corpus_label: str) -> str:
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=_STATS_COLUMNS, lineterminator="\n")
    writer.writeheader()
    writer.writerow(stats_to_row(stats, corpus_label))
    return buffer.getvalue()


def _contributor_name(contributor) -> str:
    if isinstance(contributor, Identifier):
        return contributor.qualified_name
    return str(contributor)


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
                "contributors": sorted(_contributor_name(c) for c in tag.contributors),
            }
            for tag in cloud.tags
        ],
    }


def cloud_from_json_dict(payload: dict) -> TagCloud:
    """Rebuild a cloud from its wire form.

    The result renders identically to the original; contributor entries
    are qualified-name strings, so it cannot be re-evaluated against a
    corpus.
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
            contributors=tuple(entry.get("contributors", ())),
        )
        for entry in payload.get("tags", ())
    )
    return TagCloud(
        kind=CloudKind(payload.get("kind", "All")),
        tags=tags,
        filters=cfg,
        corpus_label=str(payload.get("corpus", "")),
    )
