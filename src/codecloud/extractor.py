"""Declaration-level scanning of Java source trees.

A lexer cuts the source into token texts, dropping comments and keeping each
literal whole, and a brace-tracking parser walks the token texts and emits
one identifier per declaration: the package declaration, every type
declaration (class, interface, enum, annotation type, record; nested
included), every field declarator and enum constant, and every method or
constructor.  The lexer stops after each ';', '{' and '}', so once a
declaration ends the parser has used every token lexed.  Where it has, the
common shapes are taken from one anchored regex match each without being
tokenized: a member of a type body (ASCII names, dims and dots, then a
parameter list, or field declarators separated by commas, each with dims
and a simple initializer or none), and at the top level, after any
comments, a package declaration, an import, or a type header of modifiers,
keyword, ASCII name and dotted supertypes.
Every other form, the '}' that closes a body among them, and any that needs
a diagnostic go to the token parser, which alone decides and diagnoses:
``test_fast_path_changes_no_output`` checks that switching the fast path off
changes no output.
Method bodies, initializer blocks and brace initializers
(anonymous class bodies included) are skipped without being tokenized: one
regex match crosses everything up to the next brace outside comments and
literals, so the scan costs a Python step per brace, not per token.  Only
inside parentheses or brackets (``f(new T() { })``) are brace bodies walked
token by token.  An unterminated literal or comment is diagnosed either way.
A Ctrl-Z where a token would start ends the input, as ``javac`` reads it.
Local variables, parameters, and type parameters are never inspected, so the
parser needs no expression grammar.  Files that do not parse cleanly recover
at the next plausible boundary and report diagnostics instead of failing.
Open type bodies are kept on an explicit stack, not in recursion, so no
nesting depth makes extraction raise.  A module declaration
(``module-info.java``) is skipped through its body and emits nothing.
"""

from __future__ import annotations

import os
import re
from enum import Enum
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

#: The lexical pieces that every pattern below is built from, each written
#: once.  A `WORD` stands for the piece of that name (:func:`_expand`).
#: ``WS`` and ``ASCII_PART`` are class bodies, so that a class can hold them
#: too.  No piece holds a space or '#', so each reads the same under VERBOSE.
_PIECES = {
    "WS": r"\s",  # white space between tokens
    # a name's first and later characters, as the token parser reads them
    "NAME_START": r"(?:[^\W\d]|\$)",
    "NAME_PART": r"[\w$]",
    "NUMBER_PART": "[0-9a-zA-Z_]",  # a number's digits, '_' and radix, suffix and exponent letters
    # the fast path's names, which are ASCII
    "ASCII_PART": "A-Za-z0-9_$",
    "ASCII_NAME": "[A-Za-z_$][`ASCII_PART`]*+",
    "TYPE_KEYWORDS": "class|interface|enum",  # in the order the patterns try them
    "MODIFIERS": "abstract|default|final|native|private|protected|public|sealed|static"
    "|strictfp|synchronized|transient|volatile",
    # What follows the opening of a block comment, a string and a character
    # literal, up to its close or the first place it cannot go on, so that
    # :data:`_TOKEN_RE` and :data:`_TO_BRACE_RE` agree on where each one
    # ends.  A backslash escapes the next character in a literal, so an
    # escaped quote never closes one; only a text block lets it escape a
    # line break.
    "BLOCK": r"(?:[^*]++|\*(?!/))*+",
    "STRING": r'(?:\\[^\n]|[^"\\\n])*+',
    "CHAR": r"(?:\\[^\n]|[^'\\\n])*+",
    # A simple initializer: '=', then a one-line string without escapes, a
    # decimal run or a name.
    "INIT": r"""=[`WS`]*+(?:"[^"\\\n]*+"|[0-9]++|`ASCII_NAME`)[`WS`]*+""",
    "DOTTED": r"`ASCII_NAME`(?:[`WS`]*+\.[`WS`]*+`ASCII_NAME`)*+",
    # A field declarator after the first: ',', the ``next`` name, its dims
    # and a simple initializer.  The name needs none of ``MEMBER_NAME``'s
    # lookarounds: only what may follow it can end it, the caller refuses
    # the keywords ``class``, ``interface`` and ``enum``, and the token
    # parser too takes ``record`` here as a field's name.
    "DECLARATOR": r",[`WS`]*+(?P<next>`ASCII_NAME`)[`WS`]*+(?:\[[`WS`]*+\][`WS`]*+)*+(?:`INIT`)?+",
    # An ASCII name that is not a type keyword, followed by a character that
    # ends a name and may follow one in a member header.
    "MEMBER_NAME": r"(?!(?:`TYPE_KEYWORDS`|record)`NAME_END`)`ASCII_NAME`(?=`NAME_END`)",
    "NAME_END": r"[`WS`.\[\](;=,]",
}


def _expand(text: str) -> str:
    """``text`` with each `WORD` replaced by that piece, expanded too; KeyError if none."""
    return re.sub(r"`(\w+)`", lambda word: _expand(_PIECES[word[1]]), text)


#: Java identifier shape: a letter, '_' or '$', then letters, digits, '_'
#: and '$'.  The parser emits only tokens that ``_is_name`` accepts, which
#: have this shape; tests check names against it.
IDENTIFIER_RE = re.compile(_expand("`NAME_START``NAME_PART`*"))

_MODIFIERS = frozenset(_PIECES["MODIFIERS"].split("|"))
_TYPE_KEYWORDS = frozenset(_PIECES["TYPE_KEYWORDS"].split("|"))
#: The reserved keywords (JLS 3.9) and the literals ``true``, ``false`` and
#: ``null``: no declaration is named by one.  Contextual keywords such as
#: ``sealed`` and ``record`` are names.
_KEYWORDS_NEVER_NAMES = frozenset(
    "abstract assert boolean break byte case catch char class const continue "
    "default do double else enum extends final finally float for goto if "
    "implements import instanceof int interface long native new package private "
    "protected public return short static strictfp super switch synchronized this "
    "throw throws transient try void volatile while _ true false null".split()
)
#: Those and the restricted identifiers (JLS 3.8): no type is named by one.
_NEVER_TYPE_NAMES = _KEYWORDS_NEVER_NAMES | {"permits", "record", "sealed", "var", "yield"}


class CorpusError(Exception):
    """Fatal problem with the corpus root (missing or unreadable)."""


class IdentifierKind(Enum):
    PACKAGE = "Package"
    CLASS = "Class"
    ATTRIBUTE = "Attribute"
    METHOD = "Method"


#: The kinds the hot paths compare and emit, bound once: an ``Enum``
#: member's class-attribute lookup costs several times a global's.
_PACKAGE = IdentifierKind.PACKAGE
_CLASS = IdentifierKind.CLASS
_ATTRIBUTE = IdentifierKind.ATTRIBUTE
_METHOD = IdentifierKind.METHOD


class Diagnostic(NamedTuple):
    message: str
    line: int


class SourceUnit(NamedTuple):
    """One ``.java`` file: path, decoded text, and what reading it found."""

    path: str
    text: str
    diagnostics: tuple[Diagnostic, ...] = ()


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

#: One token after optional whitespace: a comment or literal whole, a name,
#: a number or one punctuation character, which ``\S``, the complement of
#: ``WS``, takes.  The final ``\Z`` takes trailing whitespace in one match;
#: without it every trailing position would be searched again, which is
#: quadratic in the length of the tail.
_TOKEN_RE = re.compile(
    _expand(r"""[`WS`]*(?:
      (?P<line_comment>//[^\n]*)
    | (?P<block_comment>/\*`BLOCK`(?:(?P<block_comment_end>\*/)|\Z))
    | (?P<text_block>\"{3}(?:\\.|.)*?(?:(?P<text_block_end>\"{3})|\Z))
    | (?P<string>"`STRING`(?P<string_end>")?)
    | (?P<char>'`CHAR`(?P<char_end>')?)
    | (?P<ident>`NAME_START``NAME_PART`*)
    | (?P<number>[0-9]`NUMBER_PART`*(?:\.`NUMBER_PART`*)?(?:[eEpP][+-]?[0-9]+)?|\.[0-9]`NUMBER_PART`*)
    | (?P<punct>\S)
    | \Z
    )"""),
    re.VERBOSE | re.DOTALL,
)

#: Everything up to the next brace or Ctrl-Z outside comments and literals:
#: runs of characters that open none, terminated comments, strings and
#: character literals, and '/' that opens no comment.  It stops short of a
#: text block (a string never starts at '"""') and of a comment or literal
#: left open, which :data:`_TOKEN_RE` then takes whole.  Possessive, so that
#: the engine keeps no backtracking point per item: it scans about a tenth
#: faster than the same pattern with greedy quantifiers.
_TO_BRACE_RE = re.compile(
    _expand(r"""(?:[^{}"'/\x1a]++|//[^\n]*+|/\*`BLOCK`\*/|"(?!"")`STRING`"|'`CHAR`'|/(?![/*]))*+""")
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
_is_name = re.compile(_expand("`NAME_START`")).match

_DECLARATOR_RE = re.compile(_expand("`DECLARATOR`"))

#: The common member header, whole, at the start of a member: names, '.',
#: '[' and ']' with no comments between them, then a parameter list that
#: holds no brackets, literals, comments, braces or Ctrl-Z, followed by ';' or
#: a body's '{'; or an optional simple initializer, an optional ``tail`` of
#: further declarators, each with dims and an optional simple initializer of
#: its own, and ';'.  ``name`` is the last name of the run, the member's
#: own, since only dims may follow it.  Nothing backtracks: the run of names,
#: '.', '[' and ']' is one possessive loop, which loses no match because no
#: item of the run can start what follows it, and the initializers and the
#: tail are possessive too, so a tail that fails costs time linear in its
#: length.  The loop keeps the last name it took, and the conditional after
#: it refuses a run that holds no name, such as the stray ';' of ``int x;;``.
_MEMBER_RE = re.compile(
    _expand(r"""[`WS`]*(?:[.\[\]][`WS`]*|(?P<name>`MEMBER_NAME`)[`WS`]*)*+(?(name)|(?!))
    (?: (?P<params>\([^()"'/{}\x1a]*\))[`WS`]*(?:;|(?P<body>\{))
      | (?:`INIT`)?+(?P<tail>(?:`DECLARATOR`)++)?+;
    )"""),
    re.VERBOSE,
)

#: One whole terminated comment after optional whitespace.  A gap of
#: comments is skipped one match each, so a declaration that then fails to
#: match never backtracks into a comment's text; a comment left open matches
#: nothing and stays with the token parser, which diagnoses it.
_GAP_RE = re.compile(_expand(r"[`WS`]*+(?://[^\n]*+|/\*`BLOCK`\*/)"))

#: The common top-level declaration, whole, with no comments inside it: a
#: package declaration, whose dotted name is ``qualified``; a single-type or
#: on-demand import, static or not; or a type header of modifiers,
#: ``class``, ``interface`` or ``enum``, and an ASCII ``name``, followed by
#: nothing but names, '.', ',' and whitespace up to its body's '{'.
_HEADER_RE = re.compile(
    _expand(r"""[`WS`]*+(?:
        (?P<package>package)[`WS`]++(?P<qualified>`DOTTED`)[`WS`]*+;
      | import[`WS`]++(?:static[`WS`]++)?+`DOTTED`(?:[`WS`]*+\.[`WS`]*+\*)?+[`WS`]*+;
      | (?:(?:`MODIFIERS`)[`WS`]++)*+(?P<keyword>`TYPE_KEYWORDS`)[`WS`]++(?P<name>`ASCII_NAME`)
        [`ASCII_PART`.,`WS`]*+\{
    )"""),
    re.VERBOSE,
)

# --- parser --------------------------------------------------------------

_OPEN_TO_CLOSE = {"(": ")", "[": "]"}
_MEMBER_ENDS = frozenset("(=,;{}")
#: What may follow an enum constant's name (JLS 8.9.1).
_CONSTANT_ENDS = frozenset(",;}({")
#: Besides names, the tokens of a run of declarators after a comma (JLS 8.3),
#: and the tokens that may end that run; "" is the end of the file.
_DECLARATOR_RUN = frozenset(",[]@.")
_DECLARATOR_RUN_ENDS = frozenset(("=", ";", "}", ""))
#: The tokens that end a declarator which has no name before them.
_NAMELESS_ENDS = frozenset("=,;")


class _Extraction:
    """Single-file parse state: token buffer and cursor plus output accumulators.

    The buffer holds each token's text and start offset.  It is lexed on
    demand, through the next ';', '{' or '}' or to a Ctrl-Z token, which ends
    the input, so a skipped body is never tokenized: :meth:`_skip_body` jumps
    from brace to brace with :data:`_TO_BRACE_RE` instead.  Line numbers are
    computed from offsets only where something is emitted or diagnosed.

    When the buffer is drained (the cursor is past every lexed token), the
    text at ``lexed_to`` is first tried against a regex that takes a whole
    declaration.  In a type body past its enum-constant section,
    :meth:`_take_member` tries :data:`_MEMBER_RE`; at the top level,
    :meth:`_take_header` skips comments with :data:`_GAP_RE` and tries
    :data:`_HEADER_RE`.  A match is emitted as the token parser would emit
    it, so no tokens are lexed for it; anything else, a match that would
    need a diagnostic included and the '}' that closes a body, is left to
    the token parser (``test_fast_path_changes_no_output`` checks that both
    ways agree).

    ``scope`` arguments are the qualified-name prefix of the enclosing package
    and types: their names, each followed by '.'.
    ``bodies`` is the stack of open type bodies, innermost last: each entry
    holds the body's scope, the text offset of its '{', whether the body is
    still in its enum-constant section, and the record's name if it is a
    record's body ("" otherwise).  :meth:`run` parses the innermost
    body's next member, so nesting depth costs no recursion.
    """

    def __init__(self, unit: SourceUnit):
        self.path = unit.path
        text = unit.text
        if "\r" in text:  # a lone CR ends a line (JLS 3.4); as LF it keeps every offset
            text = re.sub(r"\r(?!\n)", "\n", text)
        self.text = text
        self.lexed_to = 0  # offset where lexing resumes
        self.tokens: list[str] = []
        self.offsets: list[int] = []
        self.pos = 0
        self.bodies: list[tuple[str, int, bool, str]] = []
        self.package = ""
        self.declared = False  # whether an import or a type came at the top level
        self.out: list[Identifier] = []
        self.lexer_diagnostics: list[Diagnostic] = []
        self.parser_diagnostics: list[Diagnostic] = []
        self.line_at = 0  # offset of the latest line lookup ...
        self.line = 1  # ... and its line

    # -- lexer --

    def _fill(self) -> bool:
        """Lex on through the next ';', '{' or '}', or to the end; whether it lexed any."""
        count = len(self.tokens)
        for match in _TOKEN_RE.finditer(self.text, self.lexed_to):
            kind = match.lastgroup
            if kind in _CLOSERS:
                self._check_closed(match, kind)
            if kind is None or kind in _COMMENTS:
                continue
            value = match.group(kind)
            if value == "\x1a":  # a Ctrl-Z where a token starts ends the input, as in javac
                break
            self.tokens.append(value)
            self.offsets.append(match.start(kind))
            if value == ";" or value == "{" or value == "}":
                self.lexed_to = match.end()
                return True
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
            self.pos += 1
            self._skip_body(self.offsets[start])
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

    def _skip_body(self, open_at: int) -> None:
        """Skip the unlexed body of the '{' at text offset ``open_at`` by counting braces.

        :data:`_TO_BRACE_RE` stops at each brace and Ctrl-Z; the token scanner
        takes a text block or a comment or literal left open where it stops.
        """
        text = self.text
        end = len(text)
        at = self.lexed_to
        depth = 1
        while (at := _TO_BRACE_RE.match(text, at).end()) < end and text[at] != "\x1a":
            char = text[at]
            if char == "{":
                depth += 1
            elif char == "}":
                depth -= 1
                if depth == 0:
                    self.lexed_to = at + 1
                    return
            else:
                match = _TOKEN_RE.match(text, at)
                self._check_closed(match, match.lastgroup)
                at = match.end()
                continue
            at += 1
        self.lexed_to = end
        self.parser_diagnostics.append(Diagnostic("unbalanced '{'", self._line(open_at)))

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

    def _past_annotation(self, ahead: int) -> int:
        """The offset past the annotation at offset ``ahead``, or of its '(' if left open."""
        ahead += 1
        while _is_name(self._peek(ahead)) and self._peek(ahead + 1) == ".":
            ahead += 2
        if not _is_name(self._peek(ahead)) or self._peek(ahead + 1) != "(":
            return ahead
        close, depth = ahead + 1, 1
        while depth:
            close += 1
            if not (token := self._peek(close)):
                return ahead + 1
            depth += (token == "(") - (token == ")")
        return close + 1

    def _skip_statement(self) -> bool:
        """Recovery: drop tokens up to the next ';', balanced '{...}', or '}'; whether one came."""
        while self.pos < len(self.tokens) or self._fill():
            value = self.tokens[self.pos]
            if value == ";":
                self.pos += 1
                return True
            if value == "{":
                self._skip_balanced()
                return True
            if value == "}":
                return True
            self.pos += 1
        return False

    def _at_type(self, value: str) -> bool:
        """Whether the cursor, on ``value``, starts a type declaration."""
        if value == "@":
            return self._peek(1) == "interface"
        if value == "record":
            return _is_name(self._peek(1)) is not None and self._peek(2) in ("(", "<")
        return value in _TYPE_KEYWORDS

    # -- grammar --

    def run(self) -> tuple[list[Identifier], list[Diagnostic]]:
        modifiers_at = -1  # the first top-level modifier or annotation no declaration has used
        keyword_at = -1  # the first of them that is no annotation
        while True:
            if self.pos == len(self.tokens):
                if self.bodies:
                    if not self.bodies[-1][2] and self._take_member():
                        continue
                elif self._take_header():
                    continue
                if not self._fill():
                    break
            value = self.tokens[self.pos]
            if self.bodies:
                scope, open_at, in_constants, record = self.bodies[-1]
                if value == "}":
                    self.pos += 1
                    self.bodies.pop()
                elif in_constants:
                    self._parse_enum_constant(value, scope, open_at)
                else:
                    self._parse_member(scope, record)
            elif value in ("package", "import", "module") or (
                value == "open" and self._peek(1) == "module"
            ):
                # javac: "class, interface, enum, or record expected"; only
                # annotations may precede a package or module (JLS 7.4.1, 7.7)
                if (at := modifiers_at if value == "import" else keyword_at) >= 0:
                    self._diag(f"declaration ends at {value!r}", at)
                if value == "package":
                    self._parse_package()
                elif value == "import":
                    self.declared = True
                    start = self.pos
                    if not self._skip_statement():
                        self._diag("import declaration ends at end of file", start)
                else:
                    start = self.pos  # a module declaration: its name, then its body
                    if not self._skip_statement():
                        self._diag("module declaration ends at end of file", start)
            elif self._at_type(value):
                self.declared = True
                self._parse_type(self.package)
            elif value in _MODIFIERS or value == "@" or (
                value == "non" and self._peek(1) == "-" and self._peek(2) == "sealed"
            ):
                if modifiers_at < 0:
                    modifiers_at = self.pos
                if value == "@":
                    self._skip_annotation()
                else:
                    if keyword_at < 0:
                        keyword_at = self.pos
                    self.pos += 3 if value == "non" else 1  # `non-sealed` is three tokens
                continue  # skips the reset below: the declaration they modify follows
            elif value == ";":
                if modifiers_at >= 0:  # javac: "class, interface, enum, or record expected"
                    self._diag("declaration ends at ';'", modifiers_at)
                self.pos += 1
            elif value == "}":
                self._diag("unmatched '}' at top level", self.pos)
                self.pos += 1
            elif value == "{":
                self._diag("unexpected '{' at top level", self.pos)
                self._skip_balanced()
            else:
                self._diag(f"unexpected {value!r} at top level", self.pos)
                self.pos += 1
                self._skip_statement()
            modifiers_at = keyword_at = -1
        if modifiers_at >= 0:
            self._diag("declaration ends at end of file", modifiers_at)
        for _, open_at, _, _ in reversed(self.bodies):
            self.parser_diagnostics.append(Diagnostic("unbalanced '{'", self._line(open_at)))
        return self.out, self.lexer_diagnostics + self.parser_diagnostics

    def _take_member(self) -> bool:
        """Emit the member at ``lexed_to`` if :data:`_MEMBER_RE` matches it whole.

        Each declarator of its tail is read with :data:`_DECLARATOR_RE` and
        emitted at its own name's line.  A member with a declarator named by
        a keyword is left to the token parser.  No offset here precedes the
        latest line lookup, so the line count only moves forward, and each
        identifier is built by ``tuple.__new__``, without the Python frame
        of ``Identifier.__new__``.
        """
        text = self.text
        match = _MEMBER_RE.match(text, self.lexed_to)
        if match is None:
            return False
        name, params, body = match.group("name", "params", "body")
        if name in _KEYWORDS_NEVER_NAMES:
            return False
        scope = self.bodies[-1][0]
        path = self.path
        out = self.out
        at = match.start("name")
        line = self.line + text.count("\n", self.line_at, at)
        kind = _ATTRIBUTE if params is None else _METHOD
        out.append(tuple.__new__(Identifier, (kind, name, scope + name, path, line)))
        if (next_at := match.start("tail")) >= 0:
            first = len(out) - 1
            while declarator := _DECLARATOR_RE.match(text, next_at):
                name = declarator.group("next")
                if name in _KEYWORDS_NEVER_NAMES:
                    del out[first:]
                    return False
                start = declarator.start("next")
                line += text.count("\n", at, start)
                at = start
                out.append(tuple.__new__(Identifier, (_ATTRIBUTE, name, scope + name, path, line)))
                next_at = declarator.end()
        self.line_at = at
        self.line = line
        self.lexed_to = end = match.end()
        if body is not None:
            self._skip_body(end - 1)  # the body's '{' ends the match
        return True

    def _take_header(self) -> bool:
        """Emit the top-level declaration at ``lexed_to`` if :data:`_HEADER_RE` matches it whole.

        The comments before it are skipped first, one :data:`_GAP_RE` match
        each, and stay skipped when the declaration is left to the token
        parser, so no comment is scanned twice.
        """
        text = self.text
        at = self.lexed_to
        while gap := _GAP_RE.match(text, at):
            at = gap.end()
        self.lexed_to = at
        match = _HEADER_RE.match(text, at)
        if match is None:
            return False
        qualified, name = match.group("qualified", "name")
        segments = qualified.replace(".", " ").split() if qualified else ()
        if name in _NEVER_TYPE_NAMES or qualified and (
            self.package or self.declared or not _KEYWORDS_NEVER_NAMES.isdisjoint(segments)
        ):
            return False  # left to the token parser, which diagnoses it
        if qualified is None:  # an import or a type
            self.declared = True
        if name is not None:
            scope = self.package
            line = self._line(match.start("name"))
            self.out.append(Identifier(_CLASS, name, scope + name, self.path, line))
            is_enum = match.group("keyword") == "enum"
            self.bodies.append((scope + name + ".", match.end() - 1, is_enum, ""))
        elif qualified is not None:  # a package; an import emits nothing
            qualified = ".".join(segments)
            line = self._line(match.start("package"))
            self.out.append(Identifier(_PACKAGE, segments[-1], qualified, self.path, line))
            self.package = qualified + "."
        self.lexed_to = match.end()
        return True

    def _parse_package(self) -> None:
        """Parse a package declaration; cursor on ``package``.

        A malformed or second declaration, or one after an import or a type,
        is diagnosed and emitted all the same: as the names in it joined by
        dots, scoping the types after it.  A name that is a keyword makes the
        declaration malformed.
        """
        start = self.pos
        self.pos += 1
        run: list[str] = []  # the names and dots up to the first other token
        while (value := self._peek()) == "." or _is_name(value):
            run.append(value)
            self.pos += 1
        self._skip_statement()
        segments = [part for part in run if part != "."]
        if not segments:
            self._diag("package declaration without a name", start)
            return
        if self.package:
            self._diag("second package declaration", start)
        elif self.declared:
            self._diag("package declaration after an import or type", start)
        malformed = value != ";" or " ".join(run) != " . ".join(segments)  # not `a.b.c;`
        if malformed or not _KEYWORDS_NEVER_NAMES.isdisjoint(segments):
            self._diag("malformed package declaration", start)
        prefix = "".join(segment + "." for segment in segments[:-1])
        self._emit(_PACKAGE, segments[-1], prefix, start)
        self.package = prefix + segments[-1] + "."

    def _parse_type(self, scope: str) -> None:
        """Parse a type header and open its body; cursor on its keyword (or '@')."""
        start = self.pos
        keyword = self.tokens[start]
        self.pos += 2 if keyword == "@" else 1  # '@' 'interface'
        name = self._peek()
        if not _is_name(name) or name in _NEVER_TYPE_NAMES:
            self._diag("type declaration without a name", start)
            self._skip_statement()
            return
        name_at = self.pos
        self.pos += 1
        self._emit(_CLASS, name, scope, name_at)

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
                    record = name if keyword == "record" else ""
                    body = (scope + name + ".", self.offsets[self.pos], keyword == "enum", record)
                    self.bodies.append(body)
                    self.pos += 1
                    return
                if value == ";":
                    self.pos += 1
                    break
                if value == "}":
                    break
            self.pos += 1
        self._diag(f"missing body for type {name!r}", name_at)

    def _parse_enum_constant(self, value: str, scope: str, open_at: int) -> None:
        """One step of the innermost body's enum-constant section."""
        if value == "@":
            self._skip_annotation()
        elif value == ";":
            self.pos += 1
            self.bodies[-1] = (scope, open_at, False, "")
        elif value == ",":
            self.pos += 1
        elif _is_name(value) and value not in _KEYWORDS_NEVER_NAMES and (
            self._peek(1) in _CONSTANT_ENDS
        ):
            self._emit(_ATTRIBUTE, value, scope, self.pos)
            self.pos += 1
            if self._peek() == "(":
                self._skip_balanced()
            if self._peek() == "{":
                # constant body: an anonymous subclass scoped by the
                # constant's own name
                self.bodies.append((scope + value + ".", self.offsets[self.pos], False, ""))
                self.pos += 1
        else:
            self._diag(f"unexpected {value!r} in enum constants", self.pos)
            if _is_name(value):  # a member where a constant should be: the section ends
                self.bodies[-1] = (scope, open_at, False, "")
            else:
                self.pos += 1

    def _parse_member(self, scope: str, record: str) -> None:
        """One member: nested type, initializer block, field(s), or method.

        ``record`` is the name of the record whose body this is, or "".
        """
        name_at = -1  # position of the latest name outside type arguments
        first_at = -1  # position of the first token that is not a modifier
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
                    self._emit(_METHOD, name, scope, name_at)
                    params_at = self.pos
                    self._skip_balanced()
                    self._finish_method(params_at)
                elif value == "=" or value == "," or value == ";":
                    if name in _KEYWORDS_NEVER_NAMES:  # javac: "<identifier> expected"
                        self._diag(f"unexpected {name!r} in field declarators", name_at)
                    elif name is not None:
                        self._emit(_ATTRIBUTE, name, scope, name_at)
                    elif value != ";":  # javac: "illegal start of type"; a lone ';' is empty
                        self._diag("field declarator without a name", self.pos)
                    self.pos += 1
                    if value != ";":
                        first_at = self.pos - 1 if name is None else name_at
                        self._finish_field_declarators(scope, value == ",", first_at)
                elif value == "{":
                    if name == record and first_at == name_at == self.pos - 1:
                        # a compact constructor (JLS 8.10.4): modifiers, the name, '{'
                        self._emit(_METHOD, name, scope, name_at)
                    # static/instance initializer block (or recovery)
                    elif name is not None and name not in _MODIFIERS:
                        self._diag(f"unexpected '{{' after {name!r}", self.pos)
                    self._skip_balanced()
                elif name is not None:  # '}'
                    self._diag("incomplete member before '}'", self.pos)
                return
            if first_at < 0 and value not in _MODIFIERS:
                first_at = self.pos
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
        after it, with an annotation's argument list (``b @T(1) []``), ends at
        '=' or ';' (or '}' or the end, in malformed input); a comma inside
        type arguments (``new HashMap<K, V>()``) reaches '>' or another token
        first.  Each run is scanned once, for its first comma.
        """
        run_end = -1  # position of the token that ends the latest run scanned
        while self.pos < len(self.tokens) or self._fill():
            value = self.tokens[self.pos]
            if expect_name and value in _NAMELESS_ENDS and self.tokens[self.pos - 1] == ",":
                # javac: "<identifier> expected"
                self._diag("field declarator without a name", self.pos)
            if expect_name and _is_name(value):
                if value in _KEYWORDS_NEVER_NAMES:  # javac: "<identifier> expected"
                    self._diag(f"unexpected {value!r} in field declarators", self.pos)
                else:
                    self._emit(_ATTRIBUTE, value, scope, self.pos)
                expect_name = False
            elif expect_name and value == "@":  # javac: "<identifier> expected"
                self._diag("unexpected '@' in field declarators", self.pos)
                self._skip_annotation()
                continue
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
                        ahead = self._past_annotation(ahead) if token == "@" else ahead + 1
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


def _list_tree(root: Path) -> list[str]:
    """Relative POSIX path of every ``.java`` file under ``root``, sorted by bytes.

    Lists what ``root.rglob("*.java")`` filtered by ``is_file`` lists: a
    symlinked file is listed, a symlinked directory is not entered, and a
    subdirectory that cannot be listed for lack of permission is skipped;
    the root's own ``OSError`` is raised.
    """
    found = []
    pending = [("", os.fspath(root))]
    while pending:
        prefix, directory = pending.pop()
        try:
            with os.scandir(directory) as listing:
                entries = list(listing)
        except PermissionError:
            if not prefix:
                raise
            continue
        for entry in entries:
            if entry.is_dir(follow_symlinks=False):
                pending.append((prefix + entry.name + "/", entry.path))
            elif entry.name.endswith(".java") and (  # a symlink is followed by isfile
                entry.is_file(follow_symlinks=False) or os.path.isfile(entry.path)
            ):
                found.append(prefix + entry.name)
    found.sort(key=os.fsencode)
    return found


def _read_unit(rel: str, path: str) -> SourceUnit:
    """The unit of one listed file; an unreadable file becomes an empty unit.

    An unbuffered ``read()`` sizes its one buffer by ``fstat`` and reads to
    the end.  Bytes that are not UTF-8 are replaced, with a diagnostic.
    """
    try:
        with open(path, "rb", buffering=0) as file:
            raw = file.read()
    except OSError as exc:
        return SourceUnit(rel, "", (Diagnostic(f"unreadable file: {exc}", 0),))
    try:
        return SourceUnit(rel, raw.decode("utf-8").lstrip("\ufeff"))
    except UnicodeDecodeError:
        text = raw.decode("utf-8", errors="replace").lstrip("\ufeff")
        return SourceUnit(rel, text, (Diagnostic("invalid UTF-8 bytes were replaced", 0),))


def iter_tree(root: str | Path) -> Iterator[SourceUnit]:
    """Every ``.java`` file under ``root``, sorted by path bytes, read lazily.

    The tree is listed when this is called, which raises :class:`CorpusError`
    if the root is missing or unreadable; each file is read only when the
    iterator reaches it.  An unreadable file becomes an empty unit with a
    diagnostic.
    """
    root_path = Path(root)
    try:
        listing = _list_tree(root_path)
    except OSError as exc:
        raise CorpusError(f"source root is not a readable directory: {root_path}") from exc
    # each path as ``root_path / rel`` spells it, which drops a root of "."
    prefix = "" if root_path == Path() else os.path.join(root_path, "")
    return (_read_unit(rel, prefix + rel) for rel in listing)


def scan_tree(root: str | Path) -> list[SourceUnit]:
    """:func:`iter_tree` read whole into a list."""
    return list(iter_tree(root))


def extract_units(
    units: Iterable[SourceUnit],
) -> Iterator[tuple[SourceUnit, list[Identifier], list[Diagnostic]]]:
    """Extract each unit when it is reached and yield it with its identifiers and diagnostics.

    The diagnostics are the unit's own, from reading it, then those of
    parsing it; the unit itself is left as it is.  Package declarations are
    deduplicated across the units by qualified name, keeping the first
    occurrence.
    """
    seen_packages: set[str] = set()
    for unit in units:
        ids, diagnostics = extract_identifiers(unit)
        kept = []
        for identifier in ids:
            if identifier.kind is _PACKAGE:
                if identifier.qualified_name in seen_packages:
                    continue
                seen_packages.add(identifier.qualified_name)
            kept.append(identifier)
        yield unit, kept, [*unit.diagnostics, *diagnostics]


def extract_corpus(units: Iterable[SourceUnit], parallel: bool = False) -> list[Identifier]:
    """Every unit's identifiers from :func:`extract_units`, in path order, as one list.

    ``parallel`` is accepted and ignored: extraction always runs in the
    calling process.  The keyword stays only while the benchmark harness
    still passes it.
    """
    return [identifier for _, ids, _ in extract_units(units) for identifier in ids]
