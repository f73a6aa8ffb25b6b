"""codecloud: tag clouds over the identifier names of a Java source tree.

The pipeline scans a source tree for declarations, splits each identifier
name into words, stems the words, weights each stem by how many
identifiers contain it, and renders the alphabetically ordered result as
an SVG or HTML cloud.  An independent oracle re-derives every weight for
evaluation.

Importing the package imports none of its modules: each public name below
imports the module that defines it on first use, so a command loads only
the modules it runs.
"""

import importlib

__version__ = "0.1.0"

#: Public name -> the module that defines it.
_MODULE_OF = {
    name: module
    for module, names in {
        "cloudmodel": (
            "CloudKind", "FilterConfig", "Tag", "TagCloud", "apply_short_tag_filter",
            "build_cloud", "build_tags", "cloud_to_json_dict",
        ),
        "evaluator": ("EvalReport", "EvalRow", "evaluate", "oracle_words", "score", "tally_oracle"),
        "extractor": (
            "CorpusError", "Diagnostic", "Identifier", "IdentifierKind", "SourceUnit",
            "extract_corpus", "extract_identifiers", "extract_units", "iter_tree", "scan_tree",
        ),
        "renderer": ("RenderConfig", "font_size_for", "render_html", "render_svg"),
        "splitter": ("split_identifier",),
        "stemmer": ("LexiconError", "StemLexicon", "load_lexicon", "stem_word"),
    }.items()
    for name in names
}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name: str):
    """Import the module that defines public ``name`` and keep its value here."""
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
