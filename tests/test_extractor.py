import json

import pytest
from hypothesis import given, settings, strategies as st

from codecloud import (
    CorpusError,
    IdentifierKind,
    SourceUnit,
    compute_stats,
    extract_corpus,
    extract_identifiers,
    scan_tree,
)
from codecloud.extractor import IDENTIFIER_RE, _Extraction, identifier_to_dict


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
    """The run after a comma is scanned once, not again for each comma in it."""
    count = 20_000
    source = "class A { int " + ", ".join(f"a{index}" for index in range(count)) + "; }"
    tokens = 2 * count + 5
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
    stats = compute_stats(drawing_shapes_ids, [], 0)
    assert drawing_shapes_expected["kindCounts"] == {
        "Package": stats.packages,
        "Class": stats.classes,
        "Attribute": stats.attributes,
        "Method": stats.methods,
    }


def test_extraction_is_deterministic(drawing_shapes_dir):
    first = extract_corpus(scan_tree(drawing_shapes_dir))
    second = extract_corpus(scan_tree(drawing_shapes_dir))
    assert first == second


def test_parallel_matches_sequential(menagerie_dir):
    units_a = scan_tree(menagerie_dir)
    units_b = scan_tree(menagerie_dir)
    assert extract_corpus(units_a, parallel=True) == extract_corpus(units_b, parallel=False)


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


def test_unreadable_file_becomes_diagnostic(tmp_path, monkeypatch):
    (tmp_path / "A.java").write_text("class A {}")
    from pathlib import Path

    real = Path.read_bytes

    def failing(self):
        if self.name == "A.java":
            raise OSError("simulated unreadable file")
        return real(self)

    monkeypatch.setattr(Path, "read_bytes", failing)
    units = scan_tree(tmp_path)
    assert len(units) == 1
    assert units[0].text == ""
    assert units[0].diagnostics


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


def test_broken_source_recovers_with_diagnostics(broken_dir):
    units = scan_tree(broken_dir)
    ids = extract_corpus(units)
    assert [i.simple_name for i in ids] == ["broken", "Broken", "fine", "bad"]
    assert units[0].diagnostics


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
            [("field declaration ends at end of file", 3), ("unbalanced '{'", 1)],
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
    ],
)
def test_diagnostic_messages_and_lines(source, expected):
    unit = _unit(source)
    _, diagnostics = extract_identifiers(unit)
    assert [(d.message, d.line) for d in diagnostics] == expected
    assert unit == _unit(source)  # extraction leaves its input as it was


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
    ],
    ids=["class", "interface", "generic_new", "generic_call", "generic_method_ref",
         "conditional", "comparisons", "annotated_generic_new", "generic_instanceof",
         "generic_type_method_ref", "annotation_arguments_generic_new",
         "bounded_generic_header", "componentless_record", "array_default",
         "nested_annotation_type", "qualified_annotation", "array_dims_after_params",
         "annotated_enum_constant", "commented_type_method_ref",
         "annotated_argument_method_ref", "qualified_annotation_generic_new",
         "annotated_dims_later_declarator", "array_type_argument",
         "nested_type_arguments_then_comparison"],
)
def test_top_level_non_sealed_type_is_extracted(source, expected):
    # JLS 17 section 8.1.1.2: `non-sealed` is a modifier at the top level too
    ids, diagnostics = extract_identifiers(_unit(source))
    assert [(i.kind, i.qualified_name) for i in ids] == expected
    assert diagnostics == []


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
    last_line = text.count("\n") + 1
    assert all(1 <= i.line <= last_line for i in ids)
    assert all(1 <= d.line <= last_line for d in diagnostics)
