import io
import json
import os
import re
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from codecloud import (
    CorpusError,
    Diagnostic,
    IdentifierKind,
    SourceUnit,
    extract_corpus,
    extract_identifiers,
    extract_units,
    iter_tree,
    scan_tree,
)
from codecloud import extractor
from codecloud.extractor import IDENTIFIER_RE, _Extraction, identifier_to_dict

REPO = Path(__file__).parent.parent
sys.path.insert(0, str(REPO / "tools"))
import extractor_diff  # noqa: E402  (the extractor comparison tool and its token soups)


def _unit(text, path="Test.java"):
    return SourceUnit(path, text)


def _kinds_and_names(ids):
    return [(i.kind, i.simple_name) for i in ids]


def test_one_declaration_of_each_kind():
    ids, _ = extract_identifiers(
        _unit("package shapes; class DrawingShapes { int width; void drawShape() {} }")
    )
    assert _kinds_and_names(ids) == [
        (IdentifierKind.PACKAGE, "shapes"),
        (IdentifierKind.CLASS, "DrawingShapes"),
        (IdentifierKind.ATTRIBUTE, "width"),
        (IdentifierKind.METHOD, "drawShape"),
    ]


def test_multi_declarator_field():
    ids, _ = extract_identifiers(_unit("class A { int x, y; }"))
    assert _kinds_and_names(ids) == [
        (IdentifierKind.CLASS, "A"),
        (IdentifierKind.ATTRIBUTE, "x"),
        (IdentifierKind.ATTRIBUTE, "y"),
    ]


def test_long_field_is_scanned_in_linear_time(monkeypatch):
    """The run after a comma is scanned once, not again for each comma in it.

    The call in the first initializer sends the member to the token parser.
    """
    count = 20_000
    source = "class A { int a0 = f(), " + ", ".join(f"a{index}" for index in range(1, count))
    source += "; }"
    tokens = 2 * count + 9
    peeks = 0
    peek = _Extraction._peek

    def counted_peek(self, offset=0):
        nonlocal peeks
        peeks += 1
        assert peeks <= 2 * tokens, "the declarator lookahead re-scans its run"
        return peek(self, offset)

    monkeypatch.setattr(_Extraction, "_peek", counted_peek)
    ids, diagnostics = extract_identifiers(_unit(source))
    assert [i.simple_name for i in ids] == ["A"] + [f"a{index}" for index in range(count)]
    assert diagnostics == []
    assert peeks > count  # the token parser scanned the run


class _CountedPattern:
    """A compiled pattern whose ``match`` calls are counted."""

    def __init__(self, pattern):
        self.pattern = pattern
        self.calls = 0

    def match(self, *args):
        self.calls += 1
        return self.pattern.match(*args)


def _body_skip_matches(monkeypatch, source):
    """How many ``_TO_BRACE_RE`` matches extracting ``source`` makes."""
    counted = _CountedPattern(extractor._TO_BRACE_RE)
    monkeypatch.setattr(extractor, "_TO_BRACE_RE", counted)
    extract_identifiers(_unit(source))
    return counted.calls


def test_skipped_body_costs_one_match_per_brace(monkeypatch):
    """A skipped body costs one match per brace and one per literal left open, at any size."""
    for pairs in (10_000, 20_000):
        nested = "class A { void m() {" + "{}" * pairs + "} }"
        assert _body_skip_matches(monkeypatch, nested) == 2 * pairs + 1
        open_literals = "class A { void m() {\n" + '"open\n' * pairs + "} }"
        assert _body_skip_matches(monkeypatch, open_literals) == pairs + 1
    for lines in (100_000 // 11, 200_000 // 11):
        # an unclosed body whose '}'s are all in comments: one match reaches the end
        unclosed = "class A { void m() {\n" + "a / b // }\n" * lines
        assert _body_skip_matches(monkeypatch, unclosed) == 1


_MALFORMED_SHAPES = {
    "semicolons_in_open_parenthesis": lambda n: "class A { x(" + "; " * n,
    "less_than_run_in_field_type": lambda n: "class A { int" + "<" * n + " x; }",
    "dots_before_field_name": lambda n: "class A { " + "a." * n + "b x; }",
    "enum_constants": lambda n: "enum E { " + "A, " * n + "}",
    "names_then_less_than": lambda n: "class A { " + "a " * n + "< }",
    "slashes_in_class_body": lambda n: "class A { " + "/ " * n + "}",
    "at_signs_in_class_body": lambda n: "class A { " + "@ " * n + "}",
    "open_parentheses_in_class_body": lambda n: "class A { " + "( " * n,
    "open_annotation_arguments": lambda n: "class A { " + "@B( " * n,
    "closing_braces_at_top_level": lambda n: "} " * n,
    "record_headers_in_class_body": lambda n: "class A { " + "record R(int x) " * n + "}",
    "unterminated_strings": lambda n: "class A { " + '"\n' * n + "}",
    "unterminated_comment_openers": lambda n: "class A { " + "/*" * n,
    "comments_before_a_stray_name": lambda n: "/* c */ " * n + "x",
    "dots_after_package": lambda n: "package " + "a." * n,
    "dots_after_import": lambda n: "import " + "a." * n,
    "commas_in_type_header": lambda n: "class A " + "b, " * n + "<",
    "closing_braces_after_type": lambda n: "class A { " + "} " * n,
    "declarators_then_plus": lambda n: "class A { int a" + ", b" * n + " + }",
}


def _count_methods(monkeypatch, counts, names):
    """Count each call of the ``_Extraction`` methods ``names`` in ``counts``."""
    for name in names:
        method = getattr(_Extraction, name)

        def wrapper(*args, name=name, method=method):
            counts[name] += 1
            return method(*args)

        monkeypatch.setattr(_Extraction, name, wrapper)


def _parser_calls(monkeypatch, source):
    """How many ``_fill`` and ``_peek`` calls and fast-path matches extracting ``source`` makes."""
    counts = Counter()
    _count_methods(monkeypatch, counts, ("_fill", "_peek"))
    patterns = {}
    for name in ("_MEMBER_RE", "_DECLARATOR_RE", "_GAP_RE", "_HEADER_RE"):
        patterns[name] = _CountedPattern(getattr(extractor, name))
        monkeypatch.setattr(extractor, name, patterns[name])
    extract_identifiers(_unit(source))
    monkeypatch.undo()
    counts.update({name: pattern.calls for name, pattern in patterns.items()})
    return counts


@pytest.mark.parametrize("shape", _MALFORMED_SHAPES.values(), ids=_MALFORMED_SHAPES.keys())
def test_malformed_source_costs_calls_linear_in_its_length(monkeypatch, shape):
    """Twice the repeats cost at most twice the parser calls, so no shape is quadratic."""
    small = _parser_calls(monkeypatch, shape(10_000))
    large = _parser_calls(monkeypatch, shape(20_000))
    for name, calls in large.items():
        assert calls <= 2 * small[name] + 10, name


def test_long_declarator_list_takes_the_fast_path_in_linear_time(monkeypatch):
    """One member match takes the whole list, and one declarator match each emits the rest."""
    count = 20_000
    source = "class A {\n int " + ",\n ".join(f"a{index}" for index in range(count)) + "; }"
    calls = _parser_calls(monkeypatch, source)
    assert calls["_MEMBER_RE"] == 2  # the list, then the '}' that closes the body
    assert calls["_DECLARATOR_RE"] == count  # each declarator after the first, then ';'
    assert calls["_peek"] == 0
    ids, diagnostics = extract_identifiers(_unit(source))
    assert [(i.simple_name, i.line) for i in ids] == [("A", 1)] + [
        (f"a{index}", index + 2) for index in range(count)
    ]
    assert diagnostics == []


def test_declarator_lists_take_the_fast_path(monkeypatch):
    """A class body in the shapes of the benchmark's `vocab` tree, `long a, b;`
    among them, reaches no ``_parse_member`` call."""
    lines = [
        "    private int count{};",
        '    protected String label{} = "value";',
        "    long first{0}, second{0};",
        "    public abstract void reset{}(int count);",
        "    protected abstract String lookup{}(String key, int limit);",
    ]
    members = [lines[index % 5].format(index) for index in range(100)]
    source = "package p;\n\npublic abstract class A {\n" + "\n".join(members) + "\n}\n"
    counts = Counter()
    _count_methods(monkeypatch, counts, ("_parse_member",))
    ids, diagnostics = extract_identifiers(_unit(source))
    assert len(ids) == 2 + 120
    assert diagnostics == []
    assert counts["_parse_member"] == 0


def test_members_after_a_nested_type_take_the_fast_path(monkeypatch):
    """The lexer stops after '}', so the member after a nested type starts drained."""
    taken = 0
    take_member = _Extraction._take_member

    def counted_take_member(self):
        nonlocal taken
        took = take_member(self)
        taken += took
        return took

    monkeypatch.setattr(_Extraction, "_take_member", counted_take_member)
    ids, diagnostics = extract_identifiers(_unit("class A { class B { } int x; int y; }"))
    assert [i.qualified_name for i in ids] == ["A", "A.B", "A.x", "A.y"]
    assert diagnostics == []
    assert taken == 2


def test_generated_tree_is_extracted_without_the_token_parser(monkeypatch, big_corpus):
    """Every package line, type header and member of the tree is matched
    whole, so each file is lexed only for the '}' that closes each type body
    and to find its end."""
    units = scan_tree(big_corpus.root)
    counts = Counter()
    _count_methods(monkeypatch, counts, ("_fill", "_parse_package", "_parse_type"))
    extracted = list(extract_units(units))
    assert sum(len(ids) for _, ids, _ in extracted) > 2 * len(units)
    assert all(diagnostics == [] for _, _, diagnostics in extracted)
    assert counts["_parse_package"] == counts["_parse_type"] == 0
    type_bodies = sum(i.kind is IdentifierKind.CLASS for _, ids, _ in extracted for i in ids)
    assert counts["_fill"] <= len(units) + type_bodies


def test_comments_before_a_header_left_to_the_token_parser_are_scanned_once():
    """The token parser resumes after the last comment the failed header attempt skipped."""
    extraction = _Extraction(_unit("/* a */ // b\n@A class B {}"))
    assert not extraction._take_header()
    assert extraction.text[extraction.lexed_to:] == "\n@A class B {}"


def test_fast_path_changes_no_output(monkeypatch, big_corpus):
    """The fast path only accelerates: it refuses whatever would need a
    diagnostic, so with it switched off the token parser gives the same
    identifiers and diagnostics for the fixtures, the generated tree and
    random token soups."""
    units = scan_tree(REPO / "tests" / "fixtures") + scan_tree(big_corpus.root)
    units += [_unit(text) for seed in (1, 2) for text in extractor_diff.soups(2_000, seed)]
    fast = [extract_identifiers(unit) for unit in units]
    monkeypatch.setattr(_Extraction, "_take_member", lambda self: False)
    monkeypatch.setattr(_Extraction, "_take_header", lambda self: False)
    for unit, expected in zip(units, fast):
        assert extract_identifiers(unit) == expected, unit.text[:300]


def test_multi_declarator_with_initializers():
    ids, _ = extract_identifiers(
        _unit("class A { int a = f(1, 2), b, c; int[] d = {1, 2}, e; }")
    )
    assert [i.simple_name for i in ids] == ["A", "a", "b", "c", "d", "e"]


def test_constructor_counts_as_method():
    ids, _ = extract_identifiers(_unit("class A { A() {} A(int x) {} }"))
    assert _kinds_and_names(ids) == [
        (IdentifierKind.CLASS, "A"),
        (IdentifierKind.METHOD, "A"),
        (IdentifierKind.METHOD, "A"),
    ]


def test_interface_enum_annotation_count_as_classes():
    ids, _ = extract_identifiers(
        _unit("interface I {} enum E { ONE } @interface N { String value(); }")
    )
    assert _kinds_and_names(ids) == [
        (IdentifierKind.CLASS, "I"),
        (IdentifierKind.CLASS, "E"),
        (IdentifierKind.ATTRIBUTE, "ONE"),
        (IdentifierKind.CLASS, "N"),
        (IdentifierKind.METHOD, "value"),
    ]


def test_generics_do_not_confuse_declarators():
    ids, _ = extract_identifiers(
        _unit(
            "import java.util.*;\n"
            "class A {\n"
            "    Map<String, List<Integer>> index;\n"
            "    <T extends Comparable<? super T>> List<T> wrap(T item) { return null; }\n"
            "}\n"
        )
    )
    assert _kinds_and_names(ids) == [
        (IdentifierKind.CLASS, "A"),
        (IdentifierKind.ATTRIBUTE, "index"),
        (IdentifierKind.METHOD, "wrap"),
    ]


def test_strings_comments_and_annotations_are_ignored():
    ids, _ = extract_identifiers(
        _unit(
            "// class NotReal { int bogus; }\n"
            "/* void alsoBogus() {} */\n"
            "@SuppressWarnings({\"unchecked\", \"rawtypes\"})\n"
            "class A {\n"
            "    String s = \"class Fake { } \\\" still a string\";\n"
            '    String t = """\n        \\""" class Fake { }\n        """;\n'
            "    char c = '{';\n"
            "    @Deprecated int real;\n"
            "}\n"
        )
    )
    assert _kinds_and_names(ids) == [
        (IdentifierKind.CLASS, "A"),
        (IdentifierKind.ATTRIBUTE, "s"),
        (IdentifierKind.ATTRIBUTE, "t"),
        (IdentifierKind.ATTRIBUTE, "c"),
        (IdentifierKind.ATTRIBUTE, "real"),
    ]


def test_anonymous_class_in_initializer_is_skipped():
    ids, _ = extract_identifiers(
        _unit(
            "class A {\n"
            "    Runnable r = new Runnable() { public void run() { } };\n"
            "    void after() { }\n"
            "}\n"
        )
    )
    assert _kinds_and_names(ids) == [
        (IdentifierKind.CLASS, "A"),
        (IdentifierKind.ATTRIBUTE, "r"),
        (IdentifierKind.METHOD, "after"),
    ]


_BODIES = {
    "local_class": "\n        int local = 1;\n        class Local { int inner; }\n    ",
    "string": 'String s = "}";',
    "string_escapes": 'String s = "\\"}"; String t = "{\\\\";',
    "char": "char c = '}'; char d = '{';",
    "char_escape": "char q = '\\''; char r = '}';",
    "line_comment": "// } closes nothing\n",
    "block_comment": "/* } { */ /*/ } */",
    "text_block": 'String t = """\n        } "quoted" {\n        """;',
    "text_block_escape": 'String t = """\n        \\""" x\n        """;',
    "nested_blocks": "if (x) { { } } else { }",
    "lambdas": "Runnable r = () -> { }; f(y -> { return y / 2; });",
}

_CONTAINERS = {
    "method": ("void m() {%s}", [(IdentifierKind.METHOD, "m")]),
    "initializer": ("static {%s}", []),
    "array": ("int[][] grid = {{1}, {%s}};", [(IdentifierKind.ATTRIBUTE, "grid")]),
    "anonymous": ("Object o = new Object() { void run() {%s} };", [(IdentifierKind.ATTRIBUTE, "o")]),
}


@pytest.mark.parametrize("body", _BODIES.values(), ids=_BODIES.keys())
@pytest.mark.parametrize(("container", "expected"), _CONTAINERS.values(), ids=_CONTAINERS.keys())
def test_method_bodies_are_not_scanned(body, container, expected):
    ids, diagnostics = extract_identifiers(
        _unit("class A {\n    " + container % body + "\n    int after;\n}\n")
    )
    assert _kinds_and_names(ids) == [
        (IdentifierKind.CLASS, "A"),
        *expected,
        (IdentifierKind.ATTRIBUTE, "after"),
    ]
    assert diagnostics == []


def test_static_initializer_contributes_nothing():
    ids, _ = extract_identifiers(_unit("class A { static { int x = 1; } int y; }"))
    assert _kinds_and_names(ids) == [
        (IdentifierKind.CLASS, "A"),
        (IdentifierKind.ATTRIBUTE, "y"),
    ]


def test_declaration_lines_are_recorded():
    ids, _ = extract_identifiers(
        _unit(
            "package p;\n"          # line 1
            "\n"
            "class A {\n"           # line 3
            "    int x;\n"          # line 4
            "\n"
            "    void m(\n"         # line 6: name token line
            "        int arg) {\n"
            "    }\n"
            "}\n"
        )
    )
    assert [(i.simple_name, i.line) for i in ids] == [
        ("p", 1),
        ("A", 3),
        ("x", 4),
        ("m", 6),
    ]


def test_package_qualified_name_uses_last_segment():
    ids, _ = extract_identifiers(_unit("package a.b.c;"))
    assert len(ids) == 1
    assert ids[0].kind is IdentifierKind.PACKAGE
    assert ids[0].simple_name == "c"
    assert ids[0].qualified_name == "a.b.c"


def test_qualified_names_nest(menagerie_ids):
    by_name = {i.qualified_name for i in menagerie_ids}
    assert "com.example.zoo.Animals.Cage.size" in by_name
    assert "com.example.zoo.birds.Hawk.HARRIS.wingspanCm" in by_name
    for identifier in menagerie_ids:
        assert identifier.qualified_name.endswith(identifier.simple_name)


def test_simple_names_match_lexical_rule(menagerie_ids, drawing_shapes_ids):
    for identifier in menagerie_ids + drawing_shapes_ids:
        assert IDENTIFIER_RE.fullmatch(identifier.simple_name)


def test_name_classes_agree():
    """On every code point below U+10000, ``_is_name``, ``IDENTIFIER_RE`` and
    ``_TOKEN_RE``'s ``ident`` group agree on what starts a name and, after
    ``a``, on what continues one; the fast path's ASCII name is their ASCII
    subset."""
    ascii_name = re.compile(extractor._expand("`ASCII_NAME`")).fullmatch
    token = extractor._TOKEN_RE.match
    for code in range(0x10000):
        char = chr(code)
        starts = extractor._is_name(char) is not None
        assert starts == (IDENTIFIER_RE.fullmatch(char) is not None), hex(code)
        assert starts == (token(char).lastgroup == "ident"), hex(code)
        assert (ascii_name(char) is not None) == (starts and code < 128), hex(code)
        name = "a" + char
        continues = IDENTIFIER_RE.fullmatch(name) is not None
        assert continues == (token(name).group("ident") == name), hex(code)
        assert (ascii_name(name) is not None) == (continues and code < 128), hex(code)


def test_menagerie_hand_count(menagerie_ids):
    counts = {kind: 0 for kind in IdentifierKind}
    for identifier in menagerie_ids:
        counts[identifier.kind] += 1
    assert counts[IdentifierKind.PACKAGE] == 2
    assert counts[IdentifierKind.CLASS] == 7
    assert counts[IdentifierKind.ATTRIBUTE] == 13
    assert counts[IdentifierKind.METHOD] == 15
    assert len(menagerie_ids) == 37


def test_kind_sum_invariant(menagerie_ids, drawing_shapes_ids):
    for ids in (menagerie_ids, drawing_shapes_ids):
        by_kind = {kind: 0 for kind in IdentifierKind}
        for identifier in ids:
            by_kind[identifier.kind] += 1
        assert sum(by_kind.values()) == len(ids)


def test_package_deduplicated_corpus_wide(drawing_shapes_ids):
    packages = [i for i in drawing_shapes_ids if i.kind is IdentifierKind.PACKAGE]
    assert [p.qualified_name for p in packages] == ["shapes"]


def test_drawing_shapes_inventory(drawing_shapes_ids, drawing_shapes_expected):
    # the fixture's hand-listed inventory, in path-byte order, and its kind counts
    assert [
        (i.file, i.kind.value, i.simple_name, i.qualified_name) for i in drawing_shapes_ids
    ] == [
        (e["file"], e["kind"], e["simpleName"], e["qualifiedName"])
        for e in drawing_shapes_expected["identifiers"]
    ]
    kinds = Counter(i.kind.value for i in drawing_shapes_ids)
    assert drawing_shapes_expected["kindCounts"] == kinds


def test_extraction_is_deterministic(drawing_shapes_dir):
    first = extract_corpus(scan_tree(drawing_shapes_dir))
    second = extract_corpus(scan_tree(drawing_shapes_dir))
    assert first == second


def test_scan_tree_empty_directory(tmp_path):
    assert scan_tree(tmp_path) == []


def test_scan_tree_sorts_by_path_bytes(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "a" / "B.java").write_text("class B {}")
    (tmp_path / "A.java").write_text("class A {}")
    units = scan_tree(tmp_path)
    assert [u.path for u in units] == ["A.java", "a/B.java"]


def test_scan_tree_filters_extension(tmp_path):
    (tmp_path / "Readme.md").write_text("nothing to see")
    assert scan_tree(tmp_path) == []


def test_scan_tree_missing_root(tmp_path):
    with pytest.raises(CorpusError):
        scan_tree(tmp_path / "absent")


def _rglob_listing(root):
    """The ``.java`` files ``rglob`` finds: the reference for ``scan_tree``'s own walk."""
    paths = (p.relative_to(root).as_posix() for p in root.rglob("*.java") if p.is_file())
    return sorted(paths, key=lambda rel: rel.encode("utf-8"))


def test_scan_tree_lists_what_rglob_lists(tmp_path):
    root, outside = tmp_path / "root", tmp_path / "outside"
    for directory in (root / "a" / "b", root / ".hidden", root / "Dir.java", outside):
        directory.mkdir(parents=True)
    for path in (root / "Top.java", root / "a" / "b" / "Deep.java",
                 root / ".hidden" / "Hidden.java", root / "Dir.java" / "In.java",
                 outside / "Out.java"):
        path.write_text(f"class {path.stem} {{}}")
    (root / "Notes.txt").write_text("class Notes {}")
    (root / "Link.java").symlink_to(outside / "Out.java")
    (root / "linked").symlink_to(outside, target_is_directory=True)
    (root / "Linked.java").symlink_to(outside, target_is_directory=True)
    (root / "Broken.java").symlink_to(tmp_path / "absent.java")
    (root / "Loop.java").symlink_to(root / "Loop.java")
    listed = [unit.path for unit in scan_tree(root)]
    assert listed == _rglob_listing(root)
    assert listed == [".hidden/Hidden.java", "Dir.java/In.java", "Link.java", "Top.java",
                      "a/b/Deep.java"]


def test_scan_tree_skips_a_directory_it_may_not_list(tmp_path, monkeypatch):
    for rel in ("A.java", "open/B.java", "shut/C.java", "shut/deeper/D.java"):
        (tmp_path / rel).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / rel).write_text("class X {}")
    scandir = os.scandir

    def refusing_scandir(path):
        if Path(path).name == "shut":
            raise PermissionError(13, "Permission denied", os.fspath(path))
        return scandir(path)

    monkeypatch.setattr(os, "scandir", refusing_scandir)
    listed = [unit.path for unit in scan_tree(tmp_path)]
    assert listed == _rglob_listing(tmp_path) == ["A.java", "open/B.java"]


def test_unreadable_file_becomes_diagnostic(tmp_path, monkeypatch):
    (tmp_path / "A.java").write_text("class A {}")
    read_from = []

    class Failing(io.FileIO):
        def read(self, size=-1):
            read_from.append(self.fileno())
            raise OSError("simulated unreadable file")

    with monkeypatch.context() as patch:
        patch.setattr(extractor, "open", lambda path, *_, **__: Failing(path), raising=False)
        units = scan_tree(tmp_path)
    assert len(units) == 1
    assert units[0].text == ""
    assert units[0].diagnostics == (("unreadable file: simulated unreadable file", 0),)
    with pytest.raises(OSError):  # the file was closed all the same
        os.fstat(read_from[0])


def test_file_larger_than_a_read_chunk_is_read_whole(tmp_path):
    lines = ["class A {"]
    while sum(map(len, lines)) < 4 * 65536 + 1:  # more than four reads of a 64 KiB buffer
        lines.append(f"  int field{len(lines)};  // to fill the file")
    lines += ["  void last() { }", "}", ""]
    text = "\n".join(lines)
    (tmp_path / "A.java").write_text(text)
    (unit,) = scan_tree(tmp_path)
    assert unit == SourceUnit("A.java", text)
    ids, diagnostics = extract_identifiers(unit)
    assert (ids[-1].qualified_name, ids[-1].line, diagnostics) == ("A.last", len(lines) - 2, [])


def test_empty_file_is_read_as_empty_text(tmp_path):
    (tmp_path / "A.java").write_bytes(b"")
    assert scan_tree(tmp_path) == [SourceUnit("A.java", "")]


def test_file_made_a_directory_after_listing_is_reported_as_open_reports_it(tmp_path):
    (tmp_path / "A.java").write_text("class A {}")
    units = iter_tree(tmp_path)  # lists the tree now and reads each file when reached
    (tmp_path / "A.java").unlink()
    (tmp_path / "A.java").mkdir()
    with pytest.raises(IsADirectoryError) as raised:
        open(tmp_path / "A.java", "rb")
    assert list(units) == [SourceUnit("A.java", "", ((f"unreadable file: {raised.value}", 0),))]


@pytest.mark.parametrize(
    ("cwd", "root", "path"),
    [("sub", ".", "A.java"), (".", "./sub/", "sub/A.java"), (".", "sub", "sub/A.java")],
    ids=["dot", "dot_sub_slash", "sub"],
)
def test_unreadable_file_is_named_by_its_path_under_the_root(
    tmp_path, monkeypatch, cwd, root, path
):
    """The diagnostic names the file as ``Path(root) / rel`` spells it."""
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "A.java").write_text("class A {}")
    (tmp_path / "sub" / "B.java").write_text("class B {}")
    monkeypatch.chdir(tmp_path / cwd)
    units = iter_tree(root)  # lists the tree now and reads each file when reached
    (tmp_path / "sub" / "A.java").unlink()
    message = f"unreadable file: [Errno 2] No such file or directory: {path!r}"
    assert [(unit.path, unit.text, unit.diagnostics) for unit in units] == [
        ("A.java", "", ((message, 0),)),
        ("B.java", "class B {}", ()),
    ]


def test_extract_units_yields_each_files_identifiers_and_diagnostics():
    """Each unit is yielded as it came, with its reading diagnostics before its
    parse diagnostics; a package that an earlier unit declared is not yielded again."""
    read = Diagnostic("invalid UTF-8 bytes were replaced", 0)
    first = SourceUnit("A.java", "package p;\nclass A {\n", (read,))
    second = SourceUnit("B.java", "package p;\nclass B {}")
    extracted = list(extract_units([first, second]))
    assert extracted[0][0] is first and extracted[1][0] is second
    assert [([i.qualified_name for i in ids], found) for _, ids, found in extracted] == [
        (["p", "p.A"], [read, ("unbalanced '{'", 2)]),
        (["p.B"], []),
    ]
    assert first == SourceUnit("A.java", "package p;\nclass A {\n", (read,))


def test_bom_and_crlf_sources(tmp_path):
    (tmp_path / "A.java").write_bytes(
        b"\xef\xbb\xbfpackage p;\r\nclass A {\r\n    int x;\r\n}\r\n"
    )
    units = scan_tree(tmp_path)
    assert not units[0].diagnostics
    ids = extract_corpus(units)
    assert [(i.simple_name, i.line) for i in ids] == [("p", 1), ("A", 2), ("x", 3)]


def test_invalid_utf8_is_replaced_with_diagnostic(tmp_path):
    (tmp_path / "A.java").write_bytes(b"class A { int x; }\n// caf\xe9 comment\n")
    units = scan_tree(tmp_path)
    assert any("UTF-8" in d.message for d in units[0].diagnostics)
    ids = extract_corpus(units)
    assert [i.simple_name for i in ids] == ["A", "x"]


def test_valid_utf8_holding_a_replacement_character_gets_no_diagnostic(tmp_path):
    """U+FFFD is a character like any other; ``javac -encoding UTF-8`` accepts it."""
    source = 'class A { String s = "\ufffd"; }'
    (tmp_path / "A.java").write_bytes(source.encode("utf-8"))  # "\ufffd" is EF BF BD
    assert scan_tree(tmp_path) == [SourceUnit("A.java", source)]


def test_broken_source_recovers_with_diagnostics(broken_dir):
    extracted = list(extract_units(scan_tree(broken_dir)))
    assert [i.simple_name for _, ids, _ in extracted for i in ids] == [
        "broken", "Broken", "fine", "bad"
    ]
    assert extracted[0][2]


def test_garbage_never_raises():
    for text in ("", ";;;", "} } {", "class", "%%%", 'String s = "unterminated',
                 "/* unterminated", "class A { void m( }",
                 "class A {}" + " " * 50_000,  # a long tail of whitespace lexes in linear time
                 "class A {" * 5000, "class A {" * 5000 + "}" * 5000, "enum E { C {" * 2000):
        unit = _unit(text)
        extract_identifiers(unit)  # must not raise


@pytest.mark.parametrize("closed", [True, False], ids=["closed", "unclosed"])
@pytest.mark.parametrize(
    ("opening", "closing", "depth", "declared"),
    [
        ("class A {\n", "}", 5000, [(IdentifierKind.CLASS, "A")]),
        # each constant body holds the next enum
        ("enum E { C {\n", "} }", 2000,
         [(IdentifierKind.CLASS, "E"), (IdentifierKind.ATTRIBUTE, "C")]),
    ],
    ids=["classes", "enum_constant_bodies"],
)
def test_deep_nesting_keeps_every_declaration(opening, closing, depth, declared, closed):
    text = opening * depth + (closing * depth if closed else "")
    ids, diagnostics = extract_identifiers(_unit(text))
    assert _kinds_and_names(ids) == declared * depth
    assert [i.line for i in ids] == [1 + n // len(declared) for n in range(len(ids))]
    assert ids[0].qualified_name == ids[0].simple_name
    for outer, inner in zip(ids, ids[1:]):
        assert inner.qualified_name == f"{outer.qualified_name}.{inner.simple_name}"
    # every body left open is reported at its '{', innermost first
    unclosed = [] if closed else [
        ("unbalanced '{'", line) for line in range(depth, 0, -1) for _ in declared
    ]
    assert [(d.message, d.line) for d in diagnostics] == unclosed


def test_json_dump_shape(drawing_shapes_ids):
    payload = [identifier_to_dict(i) for i in drawing_shapes_ids]
    parsed = json.loads(json.dumps(payload))
    assert {"kind", "simpleName", "qualifiedName", "file", "line"} == set(parsed[0])
    assert parsed[0]["kind"] in {"Package", "Class", "Attribute", "Method"}


_MODULE = "module com.example.app { requires java.logging; }"
_OPEN_MODULE = (
    "import java.lang.annotation.*; @Deprecated open module com.example.app "
    "{ requires transitive java.logging; uses java.util.logging.Filter; }"
)


def _body_at_depth(depth, statement):
    """Line 2 opens a method whose line ``depth + 2``, ``depth`` braces deep, is ``statement``."""
    return (
        "class A {\n void m() {\n" + "  {\n" * (depth - 1) + f"  {statement}\n"
        + "  }\n" * depth + " int after;\n}"
    )


@pytest.mark.parametrize(
    ("source", "expected"),
    [
        ("class A {}\n/* open", [("unterminated block comment", 2)]),
        (
            'class A {\n String s = """\nopen',
            [("unterminated text block", 2), ("field declaration ends at end of file", 2),
             ("unbalanced '{'", 1)],
        ),
        ('class A {\n String s = "open\n; }', [("unterminated string literal", 2)]),
        ("class A {\n char c = 'x\n; }", [("unterminated character literal", 2)]),
        (
            "class A {\n void m(\n int x { }",
            [("unbalanced '('", 2), ("method declaration ends at end of file", 2),
             ("unbalanced '{'", 1)],
        ),
        (
            "class A {\n int x = a[0;\n}",
            [("unbalanced '['", 2), ("field declaration ends at end of file", 2),
             ("unbalanced '{'", 1)],
        ),
        ("class A {\n\n int x;", [("unbalanced '{'", 1)]),
        ("package p;\nint x;", [("unexpected 'int' at top level", 2)]),
        ('package p;\n"lit" x;', [("unexpected '\"lit\"' at top level", 2)]),
        ("package p;\n'c' x;", [("unexpected \"'c'\" at top level", 2)]),
        ("}\nclass A {}", [("unmatched '}' at top level", 1)]),
        ("\n{ int x; }\nclass A {}", [("unexpected '{' at top level", 2)]),
        ("package ;\nclass A {}", [("package declaration without a name", 1)]),
        ("\nclass\n{ }", [("type declaration without a name", 2)]),
        ("class A\nextends B", [("missing body for type 'A'", 1)]),
        ('enum E {\n A, "lit", B\n}', [("unexpected '\"lit\"' in enum constants", 2)]),
        ("enum E {\n A, B;\n (x);\n}", [("stray '(' in type body", 3)]),
        ("class A {\n static int {\n } }", [("unexpected '{' after 'int'", 2)]),
        ("class A {\n int x\n}", [("incomplete member before '}'", 3)]),
        ("class A {\n int x", [("incomplete member at end of file", 2), ("unbalanced '{'", 1)]),
        ("class A {\n void m()\n}", [("method declaration ends abruptly", 2)]),
        ("class A {\n int x = 1\n}", [("field declaration ends abruptly", 3)]),
        # reported at the first declarator, not the last
        (
            "class A {\n int x,\n y = 1",
            [("field declaration ends at end of file", 2), ("unbalanced '{'", 1)],
        ),
        (
            "class A {\n\n = 1",
            [
                ("field declarator without a name", 3),
                ("field declaration ends at end of file", 3),
                ("unbalanced '{'", 1),
            ],
        ),
        # Java's "/*/" opens a comment without closing it
        ("class A {}\n/*/", [("unterminated block comment", 2)]),
        # literals are checked inside skipped bodies too, at their own line
        (
            'class A {\n void m() {\n  f("open\n  );\n }\n int after;\n}',
            [("unterminated string literal", 3)],
        ),
        ("class A {\n void m() {\n  int x = 1;\n", [("unbalanced '{'", 2), ("unbalanced '{'", 1)]),
        # an escaped quote closes nothing
        (
            'class A { String s = "abc\\"',
            [("unterminated string literal", 1), ("field declaration ends at end of file", 1),
             ("unbalanced '{'", 1)],
        ),
        # a member where an enum constant should be ends the constant section
        ("enum E {\n int x;\n}", [("unexpected 'int' in enum constants", 2)]),
        ("enum E {\n class F {}\n}", [("unexpected 'class' in enum constants", 2)]),
        # a method named by a keyword is left to the token parser, which reports it
        ("class A {\n void if();\n}", [("stray '(' in type body", 2)]),
        # a '}' ends a type header that has no body, which is reported as at end of file
        (
            "class A { class B }\n int y; }",
            [
                ("missing body for type 'B'", 1),
                ("unexpected 'int' at top level", 2),
                ("unmatched '}' at top level", 2),
            ],
        ),
        # a module declaration is no defect; an `open` that starts none still is
        (_MODULE, []),
        (_OPEN_MODULE, []),
        ("open class A {}", [("unexpected 'open' at top level", 1)]),
        # a literal or comment left open inside a method body, at depth 1, 2 and 3,
        # and a text block whose '}' closes nothing
        *[
            (_body_at_depth(depth, statement), expected)
            for depth in (1, 2, 3)
            for statement, expected in [
                ('f("open', [("unterminated string literal", depth + 2)]),
                ("c = 'x", [("unterminated character literal", depth + 2)]),
                (
                    "/* open",
                    [("unterminated block comment", depth + 2), ("unbalanced '{'", 2),
                     ("unbalanced '{'", 1)],
                ),
                ('s = """\n  }\n  """;', []),
            ]
        ],
        # a compact constructor's name is its own record's
        ("class A {\n A { }\n}", [("unexpected '{' after 'A'", 2)]),
        ("record R() {\n record S() { R { } }\n}", [("unexpected '{' after 'R'", 2)]),
        # only modifiers and annotations may come before it
        ("record R() {\n int R { }\n}", [("unexpected '{' after 'R'", 2)]),
        ("record R() {\n x.R { }\n}", [("unexpected '{' after 'R'", 2)]),
        ("record R() {\n R[] { }\n}", [("unexpected '{' after 'R'", 2)]),
        # a nested '(' is counted, so `f((1);` leaves one '(' open to the end
        (
            "class A {\n int x = f((1);\n int z;\n}",
            [("unbalanced '('", 2), ("field declaration ends at end of file", 2),
             ("unbalanced '{'", 1)],
        ),
        # javac rejects a package name that is not names joined by single dots, and
        # a second package declaration, wherever it comes and whichever path takes it
        (
            "class A {}\npackage a b;",
            [("package declaration after an import or type", 2),
             ("malformed package declaration", 2)],
        ),
        ("package a..b;", [("malformed package declaration", 1)]),
        ("package a.*;", [("malformed package declaration", 1)]),
        ("package .a;", [("malformed package declaration", 1)]),
        ("package a.\nclass A {}", [("malformed package declaration", 1)]),
        ("package a;\nclass A {}\npackage b;", [("second package declaration", 3)]),
        ("package a;\n// c\n/* d */ package b;", [("second package declaration", 3)]),
        ("package a;\npackage /* c */ b;", [("second package declaration", 2)]),
        (
            "package a;\n\npackage b c;",
            [("second package declaration", 3), ("malformed package declaration", 3)],
        ),
        (
            "package a b;\npackage c;",
            [("malformed package declaration", 1), ("second package declaration", 2)],
        ),
        # javac rejects a package declaration after an import or a type, whichever
        # path takes either
        *[
            (source, [("package declaration after an import or type", 2)])
            for source in [
                "class A {}\npackage b;\nclass B {}",
                "import x.Y;\npackage b;\nclass B {}",
                "@A class A {}\npackage b;",
                "import static /* c */ x.Y;\npackage b;",
                "import x.Y;\npackage /* c */ b;",
            ]
        ],
        # javac expects '{' where ';' ends a type header
        *[
            (source, [(f"missing body for type {name!r}", 2)])
            for source, name in [
                ("\nclass A;\nclass B { int x; }", "A"),
                ("class A {\n enum E;\n int x;\n}", "E"),
                ("class A {}\nrecord R(int x);", "R"),
            ]
        ],
        # a reserved keyword names no type, on either path
        ("\nclass new { int x; }", [("type declaration without a name", 2)]),
        ("class A {\n interface int { }\n}", [("type declaration without a name", 2)]),
        # nor does a restricted identifier (JLS 3.8), on either path
        *[
            (source.replace("X", name), [("type declaration without a name", 2)])
            for name in ("permits", "record", "sealed", "var", "yield")
            for source in ("\nclass X { int x; }", "class A {\n interface X { }\n}")
        ],
        ("class A {\n record var(int x) { }\n}", [("type declaration without a name", 2)]),
        # a reserved keyword names no enum constant and no package segment
        (
            "enum E {\n int, goto;\n}",
            [("unexpected 'int' in enum constants", 2),
             ("unexpected 'int' in field declarators", 2),
             ("unexpected 'goto' in field declarators", 2)],
        ),
        ("\npackage int.x;\nclass A {}", [("malformed package declaration", 2)]),
        ("package a\n  . true;", [("malformed package declaration", 1)]),
        # a Ctrl-Z at the top level ends the input (JLS 3.5)
        ("class G {}\x1a\n", []),
        ("class H {}\x1a class I {}", []),
        ('class H {}\x1a "open', []),
        # and so does one where a member or an enum constant would start; javac
        # reports "reached end of file while parsing"
        ("class A { \x1a int x; }", [("unbalanced '{'", 1)]),
        ("class A {\n class B {\n \x1a }\n}", [("unbalanced '{'", 2), ("unbalanced '{'", 1)]),
        ("enum E {\n C,\n \x1a D;\n}", [("unbalanced '{'", 1)]),
        ('class A {\n void m() { }\n \x1a "open }', [("unbalanced '{'", 1)]),
        # an annotation where a later declarator's name goes, at its own line
        ("class A {\n int a,\n @T b;\n}", [("unexpected '@' in field declarators", 3)]),
        (
            "class A {\n int a = 0,\n @T(1)\n @U b, c;\n}",
            [("unexpected '@' in field declarators", 3),
             ("unexpected '@' in field declarators", 4)],
        ),
        # a top-level declaration cut off by the end of the input is reported at its
        # first token; javac 17: "reached end of file while parsing"
        ("import", [("import declaration ends at end of file", 1)]),
        ("package a;\nimport a\n.b", [("import declaration ends at end of file", 2)]),
        ("\nmodule a.b", [("module declaration ends at end of file", 2)]),
        ("\nopen module a.b", [("module declaration ends at end of file", 2)]),
        ("\npublic", [("declaration ends at end of file", 2)]),
        ("@", [("declaration ends at end of file", 1)]),
        ("\n@A(1)\nfinal", [("declaration ends at end of file", 2)]),
        ("public non-sealed", [("declaration ends at end of file", 1)]),
        ("class A {}\nstatic \x1a class B {}", [("declaration ends at end of file", 2)]),
        # and so is one that a ';' ends; javac 17: "class, interface, enum, or record expected"
        ("public ;", [("declaration ends at ';'", 1)]),
        ("@A ;", [("declaration ends at ';'", 1)]),
        ("\nfinal\n;", [("declaration ends at ';'", 2)]),
        ("class A {}\npublic ;", [("declaration ends at ';'", 2)]),
        ("\n@A(1) static\n;\nclass B {}", [("declaration ends at ';'", 2)]),
        # a keyword where a field declarator's name goes, at its own line;
        # javac 17: "<identifier> expected"
        ("class A {\n int return;\n}", [("unexpected 'return' in field declarators", 2)]),
        ("class A {\n int return = 1;\n}", [("unexpected 'return' in field declarators", 2)]),
        ("class A {\n int a,\n return;\n}", [("unexpected 'return' in field declarators", 3)]),
        ("class A {\n int if,\n b;\n}", [("unexpected 'if' in field declarators", 2)]),
        # and one that an import, package or module declaration follows, at the
        # first modifier; javac 17: "class, interface, enum, or record expected",
        # or "modifier static not allowed here" before a module
        ("public import a.b;", [("declaration ends at 'import'", 1)]),
        ("\n@A\nimport a.b;", [("declaration ends at 'import'", 2)]),
        ("public package a;", [("declaration ends at 'package'", 1)]),
        ("@A\npublic\npackage a;", [("declaration ends at 'package'", 2)]),
        ("static module a {}", [("declaration ends at 'module'", 1)]),
        ("@A static open module a {}", [("declaration ends at 'open'", 1)]),
        # but annotations alone may precede a package or a module (JLS 7.4.1,
        # 7.7): javac 17 accepts both, in package-info.java and module-info.java
        ("@A\npackage a;", []),
        ("@A\nmodule a {}", []),
        # a field declarator with no name, at the token where its name goes;
        # javac 17: "illegal start of type" in the first row, else "<identifier> expected"
        ("class A {\n = 1;\n}", [("field declarator without a name", 2)]),
        ("class A {\n int a = 1,\n ;\n}", [("field declarator without a name", 3)]),
        ("class A {\n int a,\n ;\n}", [("field declarator without a name", 3)]),
        ("class A {\n int a = 1,\n = 2;\n}", [("field declarator without a name", 3)]),
        # but empty declarations are none
        ("class A { ; int x;; }", []),
    ],
)
def test_diagnostic_messages_and_lines(source, expected):
    unit = _unit(source)
    _, diagnostics = extract_identifiers(unit)
    assert [(d.message, d.line) for d in diagnostics] == expected
    assert unit == _unit(source)  # extraction leaves its input as it was


def test_type_header_ended_by_a_brace_keeps_its_name():
    ids, _ = extract_identifiers(_unit("class A { class B }\n int y; }"))
    assert [(i.kind, i.qualified_name) for i in ids] == [
        (IdentifierKind.CLASS, "A"),
        (IdentifierKind.CLASS, "A.B"),
    ]


@pytest.mark.parametrize(
    ("source", "expected"),
    [
        ("enum E {\n int x;\n}", [(IdentifierKind.ATTRIBUTE, "E.x")]),
        ("enum E {\n class F {}\n}", [(IdentifierKind.CLASS, "E.F")]),
        # a backslash before a line break escapes nothing outside a text block
        (
            'class A {\n String s = "abc\\\n int after;\n String u = "x";\n int last;\n}',
            [(IdentifierKind.ATTRIBUTE, "A.s"), (IdentifierKind.ATTRIBUTE, "A.u"),
             (IdentifierKind.ATTRIBUTE, "A.last")],
        ),
        (
            'class A {\n void m() {\n  String s = "abc\\\n }\n int after;\n}',
            [(IdentifierKind.METHOD, "A.m"), (IdentifierKind.ATTRIBUTE, "A.after")],
        ),
    ],
)
def test_declarations_after_a_malformed_line_are_kept(source, expected):
    ids, diagnostics = extract_identifiers(_unit(source))
    assert [(i.kind, i.qualified_name) for i in ids[1:]] == expected
    assert len(diagnostics) == 1


@pytest.mark.parametrize(
    ("source", "expected"),
    [
        (
            "public non-sealed class Foo extends Base { int x; }",
            [(IdentifierKind.CLASS, "Foo"), (IdentifierKind.ATTRIBUTE, "Foo.x")],
        ),
        (
            "non-sealed interface Shape extends Base { void draw(); }",
            [(IdentifierKind.CLASS, "Shape"), (IdentifierKind.METHOD, "Shape.draw")],
        ),
        # a comma inside type arguments of an initializer starts no declarator
        (
            "class A { private Map<String, Integer> counts = new HashMap<String, Integer>(); }",
            [(IdentifierKind.CLASS, "A"), (IdentifierKind.ATTRIBUTE, "A.counts")],
        ),
        (
            "class A { List<String> names = Collections.<String, Object>emptyList(), others; }",
            [(IdentifierKind.CLASS, "A"), (IdentifierKind.ATTRIBUTE, "A.names"),
             (IdentifierKind.ATTRIBUTE, "A.others")],
        ),
        (
            "class A { Supplier<Object> s = Foo::<String, Integer>bar, t; }",
            [(IdentifierKind.CLASS, "A"), (IdentifierKind.ATTRIBUTE, "A.s"),
             (IdentifierKind.ATTRIBUTE, "A.t")],
        ),
        # ... while a comparison's '<' opens none
        (
            "class A { int x = a < b ? 1 : 2, y; }",
            [(IdentifierKind.CLASS, "A"), (IdentifierKind.ATTRIBUTE, "A.x"),
             (IdentifierKind.ATTRIBUTE, "A.y")],
        ),
        (
            "class A { boolean z = p < q, w = r > s; }",
            [(IdentifierKind.CLASS, "A"), (IdentifierKind.ATTRIBUTE, "A.z"),
             (IdentifierKind.ATTRIBUTE, "A.w")],
        ),
        # type arguments after an annotated `new` type and after `instanceof`
        (
            "class A { Object q = new @Ann HashMap<String, Integer>(), r; }",
            [(IdentifierKind.CLASS, "A"), (IdentifierKind.ATTRIBUTE, "A.q"),
             (IdentifierKind.ATTRIBUTE, "A.r")],
        ),
        (
            "class A { boolean b = o instanceof Map<?, ?> m && m.isEmpty(), c; }",
            [(IdentifierKind.CLASS, "A"), (IdentifierKind.ATTRIBUTE, "A.b"),
             (IdentifierKind.ATTRIBUTE, "A.c")],
        ),
        # type arguments before '::', and after a `new` type's annotation arguments
        (
            "class A { Supplier<Object> s = HashMap<String, Integer>::new, t; }",
            [(IdentifierKind.CLASS, "A"), (IdentifierKind.ATTRIBUTE, "A.s"),
             (IdentifierKind.ATTRIBUTE, "A.t")],
        ),
        (
            "class A { Object q = new @Ann(1) HashMap<String, Integer>(), r; }",
            [(IdentifierKind.CLASS, "A"), (IdentifierKind.ATTRIBUTE, "A.q"),
             (IdentifierKind.ATTRIBUTE, "A.r")],
        ),
        # header forms that only the random soups reached before
        (
            "class Box<T extends Comparable<T>> implements Comparable<Box<T>> {\n"
            "    public int compareTo(Box<T> o) { return 0; }\n}",
            [(IdentifierKind.CLASS, "Box"), (IdentifierKind.METHOD, "Box.compareTo")],
        ),
        (
            "record Unit() { static int count; }",
            [(IdentifierKind.CLASS, "Unit"), (IdentifierKind.ATTRIBUTE, "Unit.count")],
        ),
        (
            '@interface Tags { String[] value() default {"a", "b"}; int size(); }',
            [(IdentifierKind.CLASS, "Tags"), (IdentifierKind.METHOD, "Tags.value"),
             (IdentifierKind.METHOD, "Tags.size")],
        ),
        (
            "class B { @interface Marker { } int x; }",
            [(IdentifierKind.CLASS, "B"), (IdentifierKind.CLASS, "B.Marker"),
             (IdentifierKind.ATTRIBUTE, "B.x")],
        ),
        (
            "class C { @java.lang.Deprecated int legacy; }",
            [(IdentifierKind.CLASS, "C"), (IdentifierKind.ATTRIBUTE, "C.legacy")],
        ),
        (
            "class D { int grid()[] { return null; } }",
            [(IdentifierKind.CLASS, "D"), (IdentifierKind.METHOD, "D.grid")],
        ),
        (
            "enum E { @Deprecated OLD, NEW }",
            [(IdentifierKind.CLASS, "E"), (IdentifierKind.ATTRIBUTE, "E.OLD"),
             (IdentifierKind.ATTRIBUTE, "E.NEW")],
        ),
        # a comma starts a declarator when names, ',', '[', ']', '@' and '.' after
        # it reach '=' or ';', and separates type arguments when they reach '>'
        (
            "class A { Supplier<Object> s = HashMap<String /* c */, Integer>::new, t; }",
            [(IdentifierKind.CLASS, "A"), (IdentifierKind.ATTRIBUTE, "A.s"),
             (IdentifierKind.ATTRIBUTE, "A.t")],
        ),
        (
            "class A { Supplier<Object> s = HashMap<@B(1) String, Integer>::new, t; }",
            [(IdentifierKind.CLASS, "A"), (IdentifierKind.ATTRIBUTE, "A.s"),
             (IdentifierKind.ATTRIBUTE, "A.t")],
        ),
        (
            "class A { Object q = new @a.Ann(1) HashMap<String, Integer>(), r; }",
            [(IdentifierKind.CLASS, "A"), (IdentifierKind.ATTRIBUTE, "A.q"),
             (IdentifierKind.ATTRIBUTE, "A.r")],
        ),
        (
            "class A { int a = 1, b @T [], c; }",
            [(IdentifierKind.CLASS, "A"), (IdentifierKind.ATTRIBUTE, "A.a"),
             (IdentifierKind.ATTRIBUTE, "A.b"), (IdentifierKind.ATTRIBUTE, "A.c")],
        ),
        (
            "class A { Object t = new Triple<A, B[], C>(), u; }",
            [(IdentifierKind.CLASS, "A"), (IdentifierKind.ATTRIBUTE, "A.t"),
             (IdentifierKind.ATTRIBUTE, "A.u")],
        ),
        (
            "class A<K, V> { int x, y; Object o = new HashMap<K, List<V>>(), p = x < y, q; }",
            [(IdentifierKind.CLASS, "A"), (IdentifierKind.ATTRIBUTE, "A.x"),
             (IdentifierKind.ATTRIBUTE, "A.y"), (IdentifierKind.ATTRIBUTE, "A.o"),
             (IdentifierKind.ATTRIBUTE, "A.p"), (IdentifierKind.ATTRIBUTE, "A.q")],
        ),
        # forms on the edge of the member-header fast path; a keyword names no
        # field before '=' either
        ("class A { int new = 1; }", [(IdentifierKind.CLASS, "A")]),
        ("class A { int default; }", [(IdentifierKind.CLASS, "A")]),
        (
            "interface I { default void m() {} }",
            [(IdentifierKind.CLASS, "I"), (IdentifierKind.METHOD, "I.m")],
        ),
        (
            "@interface N { int x() default 5; }",
            [(IdentifierKind.CLASS, "N"), (IdentifierKind.METHOD, "N.x")],
        ),
        (
            "class A { record R(int x) {} }",
            [(IdentifierKind.CLASS, "A"), (IdentifierKind.CLASS, "A.R")],
        ),
        (
            "class A { int caf\u00e9; }",
            [(IdentifierKind.CLASS, "A"), (IdentifierKind.ATTRIBUTE, "A.caf\u00e9")],
        ),
        (
            "class A { long n = 1L; }",
            [(IdentifierKind.CLASS, "A"), (IdentifierKind.ATTRIBUTE, "A.n")],
        ),
        (
            'class A { String s = "a\\"b"; }',
            [(IdentifierKind.CLASS, "A"), (IdentifierKind.ATTRIBUTE, "A.s")],
        ),
        (
            "class A { int[] a, b; }",
            [(IdentifierKind.CLASS, "A"), (IdentifierKind.ATTRIBUTE, "A.a"),
             (IdentifierKind.ATTRIBUTE, "A.b")],
        ),
        (
            "class A { a.b.C d; C[] e[]; }",
            [(IdentifierKind.CLASS, "A"), (IdentifierKind.ATTRIBUTE, "A.d"),
             (IdentifierKind.ATTRIBUTE, "A.e")],
        ),
        (
            "class A {\n  public static\n  int[]\n  count\n  [] = 0\n  ;\n}",
            [(IdentifierKind.CLASS, "A", 1), (IdentifierKind.ATTRIBUTE, "A.count", 4)],
        ),
        # a keyword after a declarator comma names no field, as before ';'
        (
            "class A { int a, default; }",
            [(IdentifierKind.CLASS, "A"), (IdentifierKind.ATTRIBUTE, "A.a")],
        ),
        (
            "class A { int a = 1, abstract; }",
            [(IdentifierKind.CLASS, "A"), (IdentifierKind.ATTRIBUTE, "A.a")],
        ),
        # a type header ended by ';' opens no body
        (
            "class A;\nclass B { int x; }",
            [(IdentifierKind.CLASS, "A"), (IdentifierKind.CLASS, "B"),
             (IdentifierKind.ATTRIBUTE, "B.x")],
        ),
        # annotated dims after a parameter list (JLS 8.4)
        (
            "class A { int m() @Ann [] ; int n; }",
            [(IdentifierKind.CLASS, "A"), (IdentifierKind.METHOD, "A.m"),
             (IdentifierKind.ATTRIBUTE, "A.n")],
        ),
        # a module declaration (JLS 7.7) declares no identifier
        (_MODULE, []),
        (_OPEN_MODULE, []),
        # a compact record constructor (JLS 8.10.4) is its record's method
        (
            "record Point(int x, int y) {\n  Point {\n    if (x < 0) { x = 0; }\n  }\n}",
            [(IdentifierKind.CLASS, "Point", 1), (IdentifierKind.METHOD, "Point.Point", 2)],
        ),
        (
            "class A { record R<T>(T t) { @Deprecated public R { } int n; } }",
            [(IdentifierKind.CLASS, "A", 1), (IdentifierKind.CLASS, "A.R", 1),
             (IdentifierKind.METHOD, "A.R.R", 1), (IdentifierKind.ATTRIBUTE, "A.R.n", 1)],
        ),
        # a comma after nested parentheses is still inside the outer ones
        (
            "class A { int x = f((a), y = 2); }",
            [(IdentifierKind.CLASS, "A"), (IdentifierKind.ATTRIBUTE, "A.x")],
        ),
        (
            "class A { @B(((1)), c = 2) int y; }",
            [(IdentifierKind.CLASS, "A"), (IdentifierKind.ATTRIBUTE, "A.y")],
        ),
        # a stray ';' in a type body is an empty declaration: no member, no warning
        (
            "class A { ; int x; }",
            [(IdentifierKind.CLASS, "A"), (IdentifierKind.ATTRIBUTE, "A.x")],
        ),
        (
            "class A {\n    int x;;\n}",
            [(IdentifierKind.CLASS, "A", 1), (IdentifierKind.ATTRIBUTE, "A.x", 2)],
        ),
        # the top-level fast path's boundaries; javac 17 accepts each row before the
        # unterminated comment and rejects the last three, whose output is pinned as it is
        (
            "package a\n  . b\n  ;\nclass A {}",
            [(IdentifierKind.PACKAGE, "a.b", 1), (IdentifierKind.CLASS, "a.b.A", 4)],
        ),
        (
            "package /* c */ a.b;\nclass A {}",
            [(IdentifierKind.PACKAGE, "a.b", 1), (IdentifierKind.CLASS, "a.b.A", 2)],
        ),
        ("import static a.B.*;\nclass A {}", [(IdentifierKind.CLASS, "A", 2)]),
        (
            "// c\n/** d */ public final class A extends b.C implements D, E {}",
            [(IdentifierKind.CLASS, "A", 2)],
        ),
        ("@Deprecated class A {}", [(IdentifierKind.CLASS, "A")]),
        ("class A<T> {}", [(IdentifierKind.CLASS, "A")]),
        (
            "enum E { X, Y; int z; }",
            [(IdentifierKind.CLASS, "E"), (IdentifierKind.ATTRIBUTE, "E.X"),
             (IdentifierKind.ATTRIBUTE, "E.Y"), (IdentifierKind.ATTRIBUTE, "E.z")],
        ),
        ("class A {} class B {}", [(IdentifierKind.CLASS, "A"), (IdentifierKind.CLASS, "B")]),
        ("/*\nclass A {}", []),
        (
            "package a;\npackage b;\nclass A {}",
            [(IdentifierKind.PACKAGE, "a", 1), (IdentifierKind.PACKAGE, "b", 2),
             (IdentifierKind.CLASS, "b.A", 3)],
        ),
        ("class A {} }", [(IdentifierKind.CLASS, "A")]),
        # javac rejects these as well; their names are kept as the token parser reads them
        (
            "package a b;\nclass A {}",
            [(IdentifierKind.PACKAGE, "a.b", 1), (IdentifierKind.CLASS, "a.b.A", 2)],
        ),
        (
            "package a..b;\nclass A {}",
            [(IdentifierKind.PACKAGE, "a.b", 1), (IdentifierKind.CLASS, "a.b.A", 2)],
        ),
        (
            "package a.*;\nclass A {}",
            [(IdentifierKind.PACKAGE, "a", 1), (IdentifierKind.CLASS, "a.A", 2)],
        ),
        (
            "package a;\nclass A {}\n/* c */\npackage b;\nclass B {}",
            [(IdentifierKind.PACKAGE, "a", 1), (IdentifierKind.CLASS, "a.A", 2),
             (IdentifierKind.PACKAGE, "b", 4), (IdentifierKind.CLASS, "b.B", 5)],
        ),
        # a keyword names no field before a declarator comma either
        (
            "class A { int this, b; }",
            [(IdentifierKind.CLASS, "A"), (IdentifierKind.ATTRIBUTE, "A.b")],
        ),
        (
            "class A { int new = 1, b; }",
            [(IdentifierKind.CLASS, "A"), (IdentifierKind.ATTRIBUTE, "A.b")],
        ),
        # JLS 3.9: a contextual keyword names a member, a reserved one or a literal does not
        (
            "class A { int sealed; void sealed() { } }",
            [(IdentifierKind.CLASS, "A"), (IdentifierKind.ATTRIBUTE, "A.sealed"),
             (IdentifierKind.METHOD, "A.sealed")],
        ),
        (
            "class A { int int; int true; int goto; int _; int x; }",
            [(IdentifierKind.CLASS, "A"), (IdentifierKind.ATTRIBUTE, "A.x")],
        ),
        # JLS 3.4 and 3.5: a lone CR ends a line, and a final Ctrl-Z is ignored
        (
            "package p;\r// note\rclass A {\r int x;\r void m() { }\r}\r",
            [(IdentifierKind.PACKAGE, "p", 1), (IdentifierKind.CLASS, "p.A", 3),
             (IdentifierKind.ATTRIBUTE, "p.A.x", 4), (IdentifierKind.METHOD, "p.A.m", 5)],
        ),
        (
            "class A { int x; }\x1a",
            [(IdentifierKind.CLASS, "A"), (IdentifierKind.ATTRIBUTE, "A.x")],
        ),
        # JLS 3.8: a restricted identifier names a member but no type
        (
            "class A { int var; void record() { } }",
            [(IdentifierKind.CLASS, "A"), (IdentifierKind.ATTRIBUTE, "A.var"),
             (IdentifierKind.METHOD, "A.record")],
        ),
        ("class var { int x; }\nclass B {}", [(IdentifierKind.CLASS, "B", 2)]),
        # JLS 3.9: a reserved keyword names no enum constant; a package named by one
        # is kept, as the token parser reads it
        ("enum E { int, goto; }", [(IdentifierKind.CLASS, "E")]),
        (
            "package int.x;\nclass A {}",
            [(IdentifierKind.PACKAGE, "int.x", 1), (IdentifierKind.CLASS, "int.x.A", 2)],
        ),
        # JLS 3.5: a Ctrl-Z at the top level ends the input
        ("class H {}\x1a class I {}", [(IdentifierKind.CLASS, "H")]),
        # and so does one where a member or an enum constant would start
        (
            "class A {\n int x;\n \x1a int y;\n}",
            [(IdentifierKind.CLASS, "A"), (IdentifierKind.ATTRIBUTE, "A.x")],
        ),
        ("enum E { C { \x1a } }", [(IdentifierKind.CLASS, "E"), (IdentifierKind.ATTRIBUTE, "E.C")]),
        # and so does one in the middle of a member, a method body or a parameter
        # list; javac reports "reached end of file while parsing" on each
        ("class A { int \x1a x; }", [(IdentifierKind.CLASS, "A")]),
        (
            "class A { void m() { \x1a } }",
            [(IdentifierKind.CLASS, "A"), (IdentifierKind.METHOD, "A.m")],
        ),
        (
            "class A { void m(int \x1a b) {} }",
            [(IdentifierKind.CLASS, "A"), (IdentifierKind.METHOD, "A.m")],
        ),
        # a Ctrl-Z inside a literal or a comment is text, which javac accepts
        (
            'class A {\n String s = "\x1a"; /* \x1a */\n'
            " void m() { c = '\x1a'; } // \x1a\n int y;\n}",
            [(IdentifierKind.CLASS, "A", 1), (IdentifierKind.ATTRIBUTE, "A.s", 2),
             (IdentifierKind.METHOD, "A.m", 3), (IdentifierKind.ATTRIBUTE, "A.y", 4)],
        ),
        # an annotation with arguments on a later declarator's dims, after an
        # initializer; javac 17 accepts each with a TYPE_USE annotation T
        (
            "class A { int a = 0, b @T(1) [], c; }",
            [(IdentifierKind.CLASS, "A"), (IdentifierKind.ATTRIBUTE, "A.a"),
             (IdentifierKind.ATTRIBUTE, "A.b"), (IdentifierKind.ATTRIBUTE, "A.c")],
        ),
        (
            "class A { int a = 0, b @T(x = 1) [], c = 2; }",
            [(IdentifierKind.CLASS, "A"), (IdentifierKind.ATTRIBUTE, "A.a"),
             (IdentifierKind.ATTRIBUTE, "A.b"), (IdentifierKind.ATTRIBUTE, "A.c")],
        ),
        (
            "class A { int a = 0, b @p.T(1) [], c; }",
            [(IdentifierKind.CLASS, "A"), (IdentifierKind.ATTRIBUTE, "A.a"),
             (IdentifierKind.ATTRIBUTE, "A.b"), (IdentifierKind.ATTRIBUTE, "A.c")],
        ),
        # an annotation where a later declarator's name goes is skipped, and the
        # name after it is the declarator's; javac 17: "<identifier> expected"
        (
            "class A { int a, @T b; }",
            [(IdentifierKind.CLASS, "A"), (IdentifierKind.ATTRIBUTE, "A.a"),
             (IdentifierKind.ATTRIBUTE, "A.b")],
        ),
        (
            "class A { int a = 0, @T(1) b; }",
            [(IdentifierKind.CLASS, "A"), (IdentifierKind.ATTRIBUTE, "A.a"),
             (IdentifierKind.ATTRIBUTE, "A.b")],
        ),
        # a top-level declaration cut off by the end of the input
        ("package a;\nimport a.b", [(IdentifierKind.PACKAGE, "a")]),
        ("class A {}\npublic", [(IdentifierKind.CLASS, "A")]),
        # and one that a ';' ends leaves the type after it as it is
        ("public ; class B {}", [(IdentifierKind.CLASS, "B")]),
        # a keyword names no field declarator and is reported
        (
            "class A { int a, return; }",
            [(IdentifierKind.CLASS, "A"), (IdentifierKind.ATTRIBUTE, "A.a")],
        ),
        (
            "class A { int if, b; }",
            [(IdentifierKind.CLASS, "A"), (IdentifierKind.ATTRIBUTE, "A.b")],
        ),
        # a modifier before an import or a package changes neither
        ("public import a.b;\nclass B {}", [(IdentifierKind.CLASS, "B")]),
        (
            "public package a;\nclass B {}",
            [(IdentifierKind.PACKAGE, "a"), (IdentifierKind.CLASS, "a.B")],
        ),
        # a field declarator with no name is reported, and the others are kept
        (
            "class A { = 1; int b; }",
            [(IdentifierKind.CLASS, "A"), (IdentifierKind.ATTRIBUTE, "A.b")],
        ),
        (
            "class A { int a = 1, ; }",
            [(IdentifierKind.CLASS, "A"), (IdentifierKind.ATTRIBUTE, "A.a")],
        ),
        (
            "class A { int a, , b; }",
            [(IdentifierKind.CLASS, "A"), (IdentifierKind.ATTRIBUTE, "A.a"),
             (IdentifierKind.ATTRIBUTE, "A.b")],
        ),
    ],
    ids=["class", "interface", "generic_new", "generic_call", "generic_method_ref",
         "conditional", "comparisons", "annotated_generic_new", "generic_instanceof",
         "generic_type_method_ref", "annotation_arguments_generic_new",
         "bounded_generic_header", "componentless_record", "array_default",
         "nested_annotation_type", "qualified_annotation", "array_dims_after_params",
         "annotated_enum_constant", "commented_type_method_ref",
         "annotated_argument_method_ref", "qualified_annotation_generic_new",
         "annotated_dims_later_declarator", "array_type_argument",
         "nested_type_arguments_then_comparison", "keyword_field_with_initializer",
         "keyword_field", "interface_default_method", "annotation_element_default",
         "nested_record", "non_ascii_field", "long_literal_initializer",
         "escaped_string_initializer", "array_type_declarators", "qualified_and_array_types",
         "member_over_several_lines", "keyword_after_declarator_comma",
         "keyword_after_initialized_declarator", "type_header_ended_by_semicolon",
         "annotated_dims_after_params", "module_declaration", "open_module_declaration",
         "compact_constructor", "nested_generic_compact_constructor",
         "nested_parentheses_in_initializer", "nested_parentheses_in_annotation",
         "stray_semicolon_before_field", "stray_semicolon_after_field",
         "package_over_several_lines", "commented_package_name", "static_on_demand_import",
         "commented_type_header", "annotated_type_header", "generic_type_header",
         "enum_constants_then_member", "two_top_level_types", "unterminated_comment_before_type",
         "two_package_declarations", "unmatched_brace_after_type", "package_name_with_a_space",
         "package_name_with_two_dots", "on_demand_package_name",
         "package_declaration_after_a_type", "keyword_before_declarator_comma",
         "initialized_keyword_before_declarator_comma", "contextual_keyword_names",
         "reserved_keyword_and_literal_names", "cr_line_ends", "final_ctrl_z",
         "restricted_identifier_member_names", "restricted_identifier_type_name",
         "keyword_enum_constants", "keyword_package_segment", "top_level_ctrl_z",
         "body_ctrl_z", "enum_constant_body_ctrl_z", "member_ctrl_z", "method_body_ctrl_z",
         "parameter_list_ctrl_z", "literal_and_comment_ctrl_z",
         "annotation_arguments_on_later_dims", "annotation_element_on_later_dims",
         "qualified_annotation_arguments_on_later_dims", "annotation_before_later_declarator",
         "annotation_arguments_before_initialized_declarator", "import_cut_off_by_end_of_file",
         "modifier_cut_off_by_end_of_file", "modifier_ended_by_semicolon",
         "keyword_later_declarator", "keyword_first_declarator_before_comma",
         "modifier_before_import", "modifier_before_package", "nameless_field_declarator",
         "nameless_declarator_after_initializer", "nameless_declarator_between_commas"],
)
def test_top_level_non_sealed_type_is_extracted(source, expected):
    # JLS 17 section 8.1.1.2: `non-sealed` is a modifier at the top level too
    ids, diagnostics = extract_identifiers(_unit(source))
    width = len(expected[0]) if expected else 0  # a row may pin each line as a third field
    assert [(i.kind, i.qualified_name, i.line)[:width] for i in ids] == expected
    assert [(d.message, d.line) for d in diagnostics] == _TOP_LEVEL_DIAGNOSTICS.get(source, [])


#: The diagnostics of the rows above that get any; every other row gets none.
_TOP_LEVEL_DIAGNOSTICS = {
    "/*\nclass A {}": [("unterminated block comment", 1)],
    "package a;\npackage b;\nclass A {}": [("second package declaration", 2)],
    "class A {} }": [("unmatched '}' at top level", 1)],
    "class A;\nclass B { int x; }": [("missing body for type 'A'", 1)],
    "package a b;\nclass A {}": [("malformed package declaration", 1)],
    "package a..b;\nclass A {}": [("malformed package declaration", 1)],
    "package a.*;\nclass A {}": [("malformed package declaration", 1)],
    "package a;\nclass A {}\n/* c */\npackage b;\nclass B {}": [
        ("second package declaration", 4)
    ],
    "class var { int x; }\nclass B {}": [("type declaration without a name", 1)],
    "enum E { int, goto; }": [("unexpected 'int' in enum constants", 1)],
    "package int.x;\nclass A {}": [("malformed package declaration", 1)],
    "class A {\n int x;\n \x1a int y;\n}": [("unbalanced '{'", 1)],
    "enum E { C { \x1a } }": [("unbalanced '{'", 1), ("unbalanced '{'", 1)],
    "class A { int \x1a x; }": [("incomplete member at end of file", 1), ("unbalanced '{'", 1)],
    "class A { void m() { \x1a } }": [("unbalanced '{'", 1), ("unbalanced '{'", 1)],
    "class A { void m(int \x1a b) {} }": [
        ("unbalanced '('", 1), ("method declaration ends at end of file", 1), ("unbalanced '{'", 1)
    ],
    "class A { int a, @T b; }": [("unexpected '@' in field declarators", 1)],
    "class A { int a = 0, @T(1) b; }": [("unexpected '@' in field declarators", 1)],
    "package a;\nimport a.b": [("import declaration ends at end of file", 2)],
    "class A {}\npublic": [("declaration ends at end of file", 2)],
    "public ; class B {}": [("declaration ends at ';'", 1)],
    "class A { int new = 1; }": [("unexpected 'new' in field declarators", 1)],
    "class A { int default; }": [("unexpected 'default' in field declarators", 1)],
    "class A { int a, default; }": [("unexpected 'default' in field declarators", 1)],
    "class A { int a = 1, abstract; }": [("unexpected 'abstract' in field declarators", 1)],
    "class A { int this, b; }": [("unexpected 'this' in field declarators", 1)],
    "class A { int new = 1, b; }": [("unexpected 'new' in field declarators", 1)],
    "class A { int int; int true; int goto; int _; int x; }": [
        (f"unexpected {name!r} in field declarators", 1) for name in ("int", "true", "goto", "_")
    ],
    "enum E { int, goto; }": [
        ("unexpected 'int' in enum constants", 1),
        ("unexpected 'int' in field declarators", 1),
        ("unexpected 'goto' in field declarators", 1),
    ],
    "class A { int a, return; }": [("unexpected 'return' in field declarators", 1)],
    "class A { int if, b; }": [("unexpected 'if' in field declarators", 1)],
    "public import a.b;\nclass B {}": [("declaration ends at 'import'", 1)],
    "public package a;\nclass B {}": [("declaration ends at 'package'", 1)],
    "class A { = 1; int b; }": [("field declarator without a name", 1)],
    "class A { int a = 1, ; }": [("field declarator without a name", 1)],
    "class A { int a, , b; }": [("field declarator without a name", 1)],
}


_SOUP = st.sampled_from(
    "package import class interface enum record extends implements permits throws "
    "public static final abstract default sealed void int new return this A B x y "
    "( ) { } [ ] ; , . @ < > = + - * / "
    "\"s\" \" 'c' ' 1 1.5e3 \"\"\"\nt\"\"\" \"\"\" // /* */ $ _ \u0663".split(" ")
)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(["", "class A {\n", "enum E { C;\n", "class A { void m() {\n"]),
    st.lists(st.tuples(_SOUP, st.sampled_from([" ", "\n", ""])), max_size=200),
)
def test_token_soup_extracts_without_raising(opening, pieces):
    _check_extraction(opening + "".join(token + sep for token, sep in pieces))


@settings(max_examples=300, deadline=None)
@given(st.text())
def test_any_text_extracts_without_raising(text):
    _check_extraction(text)


def _check_extraction(text):
    """Extraction does not raise, and what it returns is well formed."""
    ids, diagnostics = extract_identifiers(_unit(text))
    assert all(IDENTIFIER_RE.fullmatch(i.simple_name) for i in ids)
    last_line = text.count("\n") + text.count("\r") - text.count("\r\n") + 1
    assert all(1 <= i.line <= last_line for i in ids)
    assert all(1 <= d.line <= last_line for d in diagnostics)
