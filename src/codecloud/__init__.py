"""codecloud: tag clouds over the identifier names of a Java source tree.

The pipeline scans a source tree for declarations, splits each identifier
name into words, stems the words, weights each stem by how many
identifiers contain it, and renders the alphabetically ordered result as
an SVG or HTML cloud.  An independent oracle re-derives every weight for
evaluation.
"""

from .cloudmodel import (
    CloudKind,
    CloudStats,
    FilterConfig,
    Tag,
    TagCloud,
    apply_short_tag_filter,
    build_cloud,
    build_tags,
    cloud_from_json_dict,
    cloud_to_json_dict,
    compute_stats,
    stats_to_csv,
)
from .evaluator import (
    CorpusMismatchError,
    EvalReport,
    EvalRow,
    evaluate,
    oracle_words,
)
from .extractor import (
    CorpusError,
    Diagnostic,
    Identifier,
    IdentifierKind,
    SourceUnit,
    extract_corpus,
    extract_identifiers,
    scan_tree,
)
from .renderer import RenderConfig, font_size_for, render_html, render_svg
from .splitter import split_identifier
from .stemmer import LexiconError, StemLexicon, load_lexicon, stem_word

__version__ = "0.1.0"

__all__ = [
    "CloudKind",
    "CloudStats",
    "CorpusError",
    "CorpusMismatchError",
    "Diagnostic",
    "EvalReport",
    "EvalRow",
    "FilterConfig",
    "Identifier",
    "IdentifierKind",
    "LexiconError",
    "RenderConfig",
    "SourceUnit",
    "StemLexicon",
    "Tag",
    "TagCloud",
    "__version__",
    "apply_short_tag_filter",
    "build_cloud",
    "build_tags",
    "cloud_from_json_dict",
    "cloud_to_json_dict",
    "compute_stats",
    "evaluate",
    "extract_corpus",
    "extract_identifiers",
    "font_size_for",
    "load_lexicon",
    "oracle_words",
    "render_html",
    "render_svg",
    "scan_tree",
    "split_identifier",
    "stats_to_csv",
    "stem_word",
]
