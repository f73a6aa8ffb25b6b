"""Declaration-level scanning of Java source trees.

A lexer cuts the source into token texts, dropping comments and keeping each
literal whole, and a brace-tracking parser walks the token texts and emits
one identifier per declaration: the package declaration, every type
declaration (class, interface, enum, annotation type, record; nested
included), every field declarator and enum constant, and every method or
constructor.  The parser reads tokens only up to the next '{'.  Method
bodies, initializer blocks and brace initializers (anonymous class bodies
included) are skipped by a character scan that counts braces outside comments
and literals; only inside parentheses or brackets (``f(new T() { })``) are
they walked token by token.  An unterminated literal or comment is diagnosed
either way.  Local variables, parameters, and type parameters are never
inspected, so the parser needs no expression grammar.  Files that do not
parse cleanly recover at the next plausible boundary and report diagnostics
instead of failing.  Open type bodies are kept on an explicit stack, not in
recursion, so no nesting depth makes extraction raise.
"""

from __future__ import annotations

import re
from enum import Enum
from pathlib import Path
from typing import NamedTuple

#: Java identifier shape: letter/underscore/dollar start, then letters,
#: digits, underscores, dollars.  The parser emits only tokens that
#: ``_is_name`` accepts, which have this shape; tests check names against it.
IDENTIFIER_RE = re.compile(r"[^\W\d][\w$]*|[_$][\w$]*")

_MODIFIERS = frozenset(
    "public private protected static final abstract native synchronized "
    "transient volatile strictfp default sealed".split()
)
_TYPE_KEYWORDS = frozenset({"class", "interface", "enum"})
_KEYWORDS_NEVER_NAMES = frozenset(
    "package import class interface enum extends implements throws new "
    "return if else for while do switch case break continue try catch "
    "finally throw this super instanceof void".split()
) | _MODIFIERS


class CorpusError(Exception):
    """Fatal problem with the corpus root (missing or unreadable)."""


class IdentifierKind(Enum):
    PACKAGE = "Package"
    CLASS = "Class"
    ATTRIBUTE = "Attribute"
    METHOD = "Method"


class Diagnostic(NamedTuple):
    message: str
    line: int


class _SourceUnitFields(NamedTuple):
    path: str
    text: str
    diagnostics: list[Diagnostic]


class SourceUnit(_SourceUnitFields):
    """One ``.java`` file: path, decoded text, and non-fatal parse warnings.

    Each unit gets its own ``diagnostics`` list, which corpus assembly extends.
    """

    __slots__ = ()

    def __new__(cls, path: str, text: str, diagnostics: list[Diagnostic] | None = None):
        return super().__new__(cls, path, text, [] if diagnostics is None else diagnostics)


class Identifier(NamedTuple):
    """One declared program element."""

    kind: IdentifierKind
    simple_name: str
    qualified_name: str
    file: str
    line: int


def identifier_to_dict(identifier: Identifier) -> dict:
    """JSON-dump shape for one identifier."""
    return {
        "kind": identifier.kind.value,
        "simpleName": identifier.simple_name,
        "qualifiedName": identifier.qualified_name,
        "file": identifier.file,
        "line": identifier.line,
    }


# --- lexer ---------------------------------------------------------------

#: Comments and literals, shared by the token scanner and the body scanner so
#: that the two agree on where each one ends.  A backslash escapes the next
#: character in a literal, so an escaped quote never closes one; only a text
#: block lets it escape a line break.
_COMMENTS_AND_LITERALS = r"""
      (?P<line_comment>//[^\n]*)
    | (?P<block_comment>/\*.*?(?:(?P<block_comment_end>\*/)|\Z))
    | (?P<text_block>\"{3}(?:\\.|.)*?(?:(?P<text_block_end>\"{3})|\Z))
    | (?P<string>"(?:\\[^\n]|[^"\\\n])*(?P<string_end>")?)
    | (?P<char>'(?:\\[^\n]|[^'\\\n])*(?P<char_end>')?)
"""

#: One token after optional whitespace.  The final ``\Z`` takes trailing
#: whitespace in one match; without it every trailing position would be
#: searched again, which is quadratic in the length of the tail.
_TOKEN_RE = re.compile(
    r"\s*(?:" + _COMMENTS_AND_LITERALS + r"""
    | (?P<ident>(?:[^\W\d]|\$)[\w$]*)
    | (?P<number>[0-9][0-9a-zA-Z_]*(?:\.[0-9a-zA-Z_]*)?(?:[eEpP][+-]?[0-9]+)?|\.[0-9][0-9a-zA-Z_]*)
    | (?P<punct>\S)
    | \Z
    )""",
    re.VERBOSE | re.DOTALL,
)

#: A skipped body in as few matches as possible: a run of characters that
#: cannot open a comment, a literal or a brace; a brace; a comment or
#: literal whole; or a '/' that opens neither.
_BODY_RE = re.compile(
    r"""[^{}"'/]+ | (?P<open>\{) | (?P<close>\}) | """ + _COMMENTS_AND_LITERALS + " | /",
    re.VERBOSE | re.DOTALL,
)

#: group -> (its closing delimiter's group, name in the diagnostic)
_CLOSERS = {
    "block_comment": ("block_comment_end", "block comment"),
    "text_block": ("text_block_end", "text block"),
    "string": ("string_end", "string literal"),
    "char": ("char_end", "character literal"),
}
_COMMENTS = frozenset({"line_comment", "block_comment"})

#: A token is a name exactly when it starts the way the ``ident`` group does.
_is_name = re.compile(r"[^\W\d]|\$").match


# --- parser --------------------------------------------------------------

_OPEN_TO_CLOSE = {"(": ")", "[": "]"}
_MEMBER_ENDS = frozenset("(=,;{}")
#: What may follow an enum constant's name (JLS 8.9.1).
_CONSTANT_ENDS = frozenset(",;}({")
#: Besides names, the tokens of a run of declarators after a comma (JLS 8.3),
#: and the tokens that may end that run; "" is the end of the file.
_DECLARATOR_RUN = frozenset(",[]@.")
_DECLARATOR_RUN_ENDS = frozenset(("=", ";", "}", ""))


class _Extraction:
    """Single-file parse state: token buffer and cursor plus output accumulators.

    The buffer holds each token's text and start offset.  It is lexed on
    demand, up to and including the next '{', so a body that is skipped as a
    whole is never tokenized: :meth:`_skip_body` counts its braces with
    :data:`_BODY_RE` instead.  Line numbers are computed from offsets only
    where something is emitted or diagnosed.

    ``scope`` arguments are the qualified-name prefix of the enclosing package
    and types: their names, each followed by '.'.
    ``bodies`` is the stack of open type bodies, innermost last: each entry
    holds the body's scope, the position of its '{' and whether the body is
    still in its enum-constant section.  :meth:`run` parses the innermost
    body's next member, so nesting depth costs no recursion.
    """

    def __init__(self, unit: SourceUnit):
        self.path = unit.path
        self.text = unit.text
        self.lexed_to = 0  # offset where lexing resumes
        self.tokens: list[str] = []
        self.offsets: list[int] = []
        self.pos = 0
        self.bodies: list[tuple[str, int, bool]] = []
        self.package = ""
        self.out: list[Identifier] = []
        self.lexer_diagnostics: list[Diagnostic] = []
        self.parser_diagnostics: list[Diagnostic] = []
        self.line_at = 0  # offset of the latest line lookup ...
        self.line = 1  # ... and its line

    # -- lexer --

    def _fill(self) -> bool:
        """Lex on through the next '{' or to the end; whether tokens were added."""
        count = len(self.tokens)
        for match in _TOKEN_RE.finditer(self.text, self.lexed_to):
            kind = match.lastgroup
            if kind in _CLOSERS:
                self._check_closed(match, kind)
            if kind is None or kind in _COMMENTS:
                continue
            value = match.group(kind)
            self.tokens.append(value)
            self.offsets.append(match.start(kind))
            if value == "{":
                self.lexed_to = match.end()
                break
        else:
            self.lexed_to = len(self.text)
        return len(self.tokens) > count

    def _check_closed(self, match: re.Match, kind: str) -> None:
        closer, what = _CLOSERS[kind]
        if match.group(closer) is None:
            line = self._line(match.start(kind))
            self.lexer_diagnostics.append(Diagnostic(f"unterminated {what}", line))

    def _line(self, offset: int) -> int:
        """1-based line of ``offset``, counted from the previous lookup."""
        if offset >= self.line_at:
            self.line += self.text.count("\n", self.line_at, offset)
        else:
            self.line -= self.text.count("\n", offset, self.line_at)
        self.line_at = offset
        return self.line

    # -- token helpers --

    def _peek(self, offset: int = 0) -> str:
        """The token ``offset`` places ahead of the cursor, or "" past the end."""
        index = self.pos + offset
        while index >= len(self.tokens):
            if not self._fill():
                return ""
        return self.tokens[index]

    def _diag(self, message: str, at: int) -> None:
        """Report ``message`` at the line of the token at index ``at``."""
        self.parser_diagnostics.append(Diagnostic(message, self._line(self.offsets[at])))

    def _emit(self, kind: IdentifierKind, simple: str, scope: str, at: int) -> None:
        line = self._line(self.offsets[at])
        self.out.append(Identifier(kind, simple, scope + simple, self.path, line))

    def _skip_balanced(self) -> None:
        """Skip past a balanced bracket group; cursor sits on the opener."""
        start = self.pos
        opener = self.tokens[start]
        if opener == "{":  # the last token lexed: no lookahead passes a '{'
            self._skip_body()
            return
        closer = _OPEN_TO_CLOSE[opener]
        depth = 1
        self.pos += 1
        while self.pos < len(self.tokens) or self._fill():
            value = self.tokens[self.pos]
            self.pos += 1
            if value == opener:
                depth += 1
            elif value == closer:
                depth -= 1
                if depth == 0:
                    return
        self._diag(f"unbalanced {opener!r}", start)

    def _skip_body(self) -> None:
        """Skip the unlexed body of the '{' under the cursor by counting braces."""
        depth = 1
        for match in _BODY_RE.finditer(self.text, self.lexed_to):
            kind = match.lastgroup
            if kind == "open":
                depth += 1
            elif kind == "close":
                depth -= 1
                if depth == 0:
                    self.lexed_to = match.end()
                    self.pos += 1
                    return
            elif kind in _CLOSERS:
                self._check_closed(match, kind)
        self.lexed_to = len(self.text)
        self._diag("unbalanced '{'", self.pos)
        self.pos += 1

    def _skip_annotation(self) -> None:
        """Skip ``@Name``, ``@pkg.Name``, ``@Name(...)``; cursor on '@'."""
        self.pos += 1
        while True:
            if not _is_name(self._peek()):
                return
            self.pos += 1
            if self._peek() != ".":
                break
            self.pos += 1
        if self._peek() == "(":
            self._skip_balanced()

    def _skip_statement(self) -> None:
        """Recovery: drop tokens up to the next ';', balanced '{...}', or '}'."""
        while self.pos < len(self.tokens) or self._fill():
            value = self.tokens[self.pos]
            if value == ";":
                self.pos += 1
                return
            if value == "{":
                self._skip_balanced()
                return
            if value == "}":
                return
            self.pos += 1

    def _at_type(self, value: str) -> bool:
        """Whether the cursor, on ``value``, starts a type declaration."""
        if value == "@":
            return self._peek(1) == "interface"
        if value == "record":
            return _is_name(self._peek(1)) is not None and self._peek(2) in ("(", "<")
        return value in _TYPE_KEYWORDS

    # -- grammar --

    def run(self) -> tuple[list[Identifier], list[Diagnostic]]:
        while self.pos < len(self.tokens) or self._fill():
            value = self.tokens[self.pos]
            if self.bodies:
                scope, open_at, in_constants = self.bodies[-1]
                if value == "}":
                    self.pos += 1
                    self.bodies.pop()
                elif in_constants:
                    self._parse_enum_constant(value, scope, open_at)
                else:
                    self._parse_member(scope)
            elif value == "package":
                self._parse_package()
            elif value == "import":
                self.pos += 1
                self._skip_statement()
            elif self._at_type(value):
                self._parse_type(self.package)
            elif value in _MODIFIERS or value == ";":
                self.pos += 1
            elif value == "@":
                self._skip_annotation()
            elif value == "}":
                self._diag("unmatched '}' at top level", self.pos)
                self.pos += 1
            elif value == "{":
                self._diag("unexpected '{' at top level", self.pos)
                self._skip_balanced()
            elif value == "non" and self._peek(1) == "-" and self._peek(2) == "sealed":
                self.pos += 3  # the `non-sealed` modifier
            else:
                self._diag(f"unexpected {value!r} at top level", self.pos)
                self.pos += 1
                self._skip_statement()
        for _, open_at, _ in reversed(self.bodies):
            self._diag("unbalanced '{'", open_at)
        return self.out, self.lexer_diagnostics + self.parser_diagnostics

    def _parse_package(self) -> None:
        start = self.pos
        self.pos += 1
        segments: list[str] = []
        while True:
            value = self._peek()
            if _is_name(value):
                segments.append(value)
            elif value != ".":
                break
            self.pos += 1
        self._skip_statement()
        if not segments:
            self._diag("package declaration without a name", start)
            return
        prefix = "".join(segment + "." for segment in segments[:-1])
        self._emit(IdentifierKind.PACKAGE, segments[-1], prefix, start)
        self.package = prefix + segments[-1] + "."

    def _parse_type(self, scope: str) -> None:
        """Parse a type header and open its body; cursor on its keyword (or '@')."""
        start = self.pos
        is_enum = self.tokens[start] == "enum"
        self.pos += 2 if self.tokens[start] == "@" else 1  # '@' 'interface'
        name = self._peek()
        if not _is_name(name):
            self._diag("type declaration without a name", start)
            self._skip_statement()
            return
        name_at = self.pos
        self.pos += 1
        self._emit(IdentifierKind.CLASS, name, scope, name_at)

        # Skim the header (generics, extends/implements/permits, record
        # components) up to the body.
        angle = 0
        while self.pos < len(self.tokens) or self._fill():
            value = self.tokens[self.pos]
            if value == "<":
                angle += 1
            elif value == ">":
                angle = max(0, angle - 1)
            elif angle == 0:
                if value == "(":
                    self._skip_balanced()
                    continue
                if value == "{":
                    self.bodies.append((scope + name + ".", self.pos, is_enum))
                    self.pos += 1
                    return
                if value == ";":
                    self.pos += 1
                    return
                if value == "}":
                    return
            self.pos += 1
        self._diag(f"missing body for type {name!r}", name_at)

    def _parse_enum_constant(self, value: str, scope: str, open_at: int) -> None:
        """One step of the innermost body's enum-constant section."""
        if value == "@":
            self._skip_annotation()
        elif value == ";":
            self.pos += 1
            self.bodies[-1] = (scope, open_at, False)
        elif value == ",":
            self.pos += 1
        elif _is_name(value) and self._peek(1) in _CONSTANT_ENDS:
            self._emit(IdentifierKind.ATTRIBUTE, value, scope, self.pos)
            self.pos += 1
            if self._peek() == "(":
                self._skip_balanced()
            if self._peek() == "{":
                # constant body: an anonymous subclass scoped by the
                # constant's own name
                self.bodies.append((scope + value + ".", self.pos, False))
                self.pos += 1
        else:
            self._diag(f"unexpected {value!r} in enum constants", self.pos)
            if _is_name(value):  # a member where a constant should be: the section ends
                self.bodies[-1] = (scope, open_at, False)
            else:
                self.pos += 1

    def _parse_member(self, scope: str) -> None:
        """One member: nested type, initializer block, field(s), or method."""
        name_at = -1  # position of the latest name outside type arguments
        prev = ""
        angle = 0
        while self.pos < len(self.tokens) or self._fill():
            value = self.tokens[self.pos]
            if _is_name(value):
                if angle == 0 and prev != "." and self._at_type(value):
                    self._parse_type(scope)
                    return
                if angle == 0:
                    name_at = self.pos
            elif value == "@":
                if self._at_type(value):
                    self._parse_type(scope)
                    return
                self._skip_annotation()
                prev = ""
                continue
            elif value == "<":
                angle += 1
            elif value == ">":
                angle = max(0, angle - 1)
            elif angle == 0 and value in _MEMBER_ENDS:
                name = self.tokens[name_at] if name_at >= 0 else None
                if value == "(":
                    if name is None or name in _KEYWORDS_NEVER_NAMES:
                        self._diag("stray '(' in type body", self.pos)
                        self._skip_balanced()
                        self._skip_statement()
                        return
                    self._emit(IdentifierKind.METHOD, name, scope, name_at)
                    params_at = self.pos
                    self._skip_balanced()
                    self._finish_method(params_at)
                elif value == "=" or value == ",":
                    if name is not None:
                        self._emit(IdentifierKind.ATTRIBUTE, name, scope, name_at)
                    first_at = self.pos if name is None else name_at
                    self.pos += 1
                    self._finish_field_declarators(scope, value == ",", first_at)
                elif value == ";":
                    if name is not None and name not in _KEYWORDS_NEVER_NAMES:
                        self._emit(IdentifierKind.ATTRIBUTE, name, scope, name_at)
                    self.pos += 1
                elif value == "{":
                    # static/instance initializer block (or recovery)
                    if name is not None and name not in _MODIFIERS:
                        self._diag(f"unexpected '{{' after {name!r}", self.pos)
                    self._skip_balanced()
                elif name is not None:  # '}'
                    self._diag("incomplete member before '}'", self.pos)
                return
            self.pos += 1
            prev = value
        if name_at >= 0:
            self._diag("incomplete member at end of file", name_at)

    def _finish_method(self, params_at: int) -> None:
        """After the parameter list: throws clause, then body, ';', or default."""
        saw_default = False
        while self.pos < len(self.tokens) or self._fill():
            value = self.tokens[self.pos]
            if value == "@":
                self._skip_annotation()
                continue
            if value == "(" or value == "[":
                self._skip_balanced()
                continue
            if value == ";":
                self.pos += 1
                return
            if value == "{":
                self._skip_balanced()
                if saw_default:
                    saw_default = False
                    continue
                return
            if value == "}":
                self._diag("method declaration ends abruptly", params_at)
                return
            if value == "default":
                saw_default = True
            self.pos += 1
        self._diag("method declaration ends at end of file", params_at)

    def _finish_field_declarators(
        self, scope: str, expect_name: bool, first_at: int
    ) -> None:
        """Remaining ``, next [= init]`` declarators up to ';'.

        ``first_at`` is the position of the first declarator, where an
        unfinished declaration is reported.  A comma outside brackets starts a
        declarator exactly when the run of names, ',', '[', ']', '@' and '.'
        after it ends at '=' or ';' (or '}' or the end, in malformed input);
        a comma inside type arguments (``new HashMap<K, V>()``) reaches '>'
        or another token first.  Each run is scanned once, for its first comma.
        """
        run_end = -1  # position of the token that ends the latest run scanned
        while self.pos < len(self.tokens) or self._fill():
            value = self.tokens[self.pos]
            if expect_name and _is_name(value):
                self._emit(IdentifierKind.ATTRIBUTE, value, scope, self.pos)
                expect_name = False
            elif value in _OPEN_TO_CLOSE or value == "{":
                self._skip_balanced()
                continue
            elif value == ";":
                self.pos += 1
                return
            elif value == ",":
                if self.pos > run_end:
                    ahead = 1
                    while (token := self._peek(ahead)) in _DECLARATOR_RUN or _is_name(token):
                        ahead += 1
                    run_end = self.pos + ahead
                    separates = token in _DECLARATOR_RUN_ENDS
                expect_name = expect_name or separates
            elif value == "}":
                self._diag("field declaration ends abruptly", self.pos)
                return
            self.pos += 1
        self._diag("field declaration ends at end of file", first_at)


def extract_identifiers(unit: SourceUnit) -> tuple[list[Identifier], list[Diagnostic]]:
    """Extract all declared identifiers from one source unit, in source order.

    Returns them with the unit's parse diagnostics and leaves ``unit`` as it
    is; extraction never raises for malformed source.
    """
    return _Extraction(unit).run()


# --- corpus assembly -----------------------------------------------------


def scan_tree(root: str | Path) -> list[SourceUnit]:
    """Collect every ``.java`` file under ``root``, sorted by path bytes.

    Raises :class:`CorpusError` if the root is missing or unreadable; an
    unreadable individual file becomes an empty unit with a diagnostic.
    """
    root_path = Path(root)
    if not root_path.is_dir():
        raise CorpusError(f"source root is not a readable directory: {root_path}")
    try:
        paths = [p for p in root_path.rglob("*.java") if p.is_file()]
    except OSError as exc:
        raise CorpusError(f"cannot scan {root_path}: {exc}") from exc
    rel_paths = sorted(
        ((p.relative_to(root_path).as_posix(), p) for p in paths),
        key=lambda pair: pair[0].encode("utf-8"),
    )
    units = []
    for rel, path in rel_paths:
        try:
            raw = path.read_bytes()
        except OSError as exc:
            units.append(SourceUnit(rel, "", [Diagnostic(f"unreadable file: {exc}", 0)]))
            continue
        text = raw.decode("utf-8", errors="replace").lstrip("\ufeff")
        unit = SourceUnit(rel, text)
        if "\ufffd" in text:
            unit.diagnostics.append(Diagnostic("invalid UTF-8 bytes were replaced", 0))
        units.append(unit)
    return units


def extract_corpus(units: list[SourceUnit], parallel: bool = False) -> list[Identifier]:
    """Extract identifiers from all units and assemble the corpus list.

    Units are processed in-process (across processes only with the opt-in
    ``parallel=True`` the benchmark harness times) and merged in path order.
    Each unit's parse diagnostics are appended to ``unit.diagnostics``.
    Package declarations are deduplicated corpus-wide by qualified name,
    keeping the first occurrence.
    """
    results = None
    if parallel:
        import logging
        import os
        from concurrent import futures

        try:
            with futures.ProcessPoolExecutor() as pool:
                chunk = max(1, len(units) // (4 * (os.cpu_count() or 1)))
                results = list(pool.map(extract_identifiers, units, chunksize=chunk))
        except OSError as exc:  # e.g. sandboxes without working semaphores
            logging.getLogger(__name__).warning(
                "parallel extraction unavailable (%s); running sequentially", exc
            )
    if results is None:
        results = [extract_identifiers(unit) for unit in units]

    corpus: list[Identifier] = []
    seen_packages: set[str] = set()
    for unit, (ids, diagnostics) in zip(units, results):
        unit.diagnostics.extend(diagnostics)
        for identifier in ids:
            if identifier.kind is IdentifierKind.PACKAGE:
                if identifier.qualified_name in seen_packages:
                    continue
                seen_packages.add(identifier.qualified_name)
            corpus.append(identifier)
    return corpus
