"""Camel-case splitting of identifier names into lowercase words.

An identifier is cut at three kinds of boundaries:

  a. before an uppercase letter that follows a lowercase letter or a digit
     ("drawShape" -> draw|Shape);
  b. before the last uppercase letter of an uppercase run that is followed
     by a lowercase letter, so acronyms stay whole ("HTTPServer" ->
     HTTP|Server);
  c. at underscores, dollar signs, and digit runs, which are discarded.

Segments are lowercased; empty segments are dropped.  Letters outside
a-z are reduced to their ASCII base letter where one exists (e.g. an
accented vowel) and act as separators otherwise; a letter that folds to
several ASCII letters acts as lowercase.  One compiled pattern, ``_WORD``,
implements the three rules on the folded name.
"""

from __future__ import annotations

import re
import unicodedata

_WORD = re.compile(r"[A-Z]+(?![a-z])|[A-Z]?[a-z]+")


def _fold(ch: str) -> str:
    """One character as the pattern sees it: its ASCII base letters, or a space."""
    if not ch.isalpha():
        return " "
    base = "".join(c for c in unicodedata.normalize("NFKD", ch.casefold()) if "a" <= c <= "z")
    if ch.isupper() and len(base) == 1:
        return base.upper()
    return base or " "


def split_identifier(name: str) -> list[str]:
    """Split an identifier name into its constituent lowercase words.

    A name with no letters (e.g. "_1") yields an empty list.
    """
    if not name.isascii():
        name = "".join(map(_fold, name))
    return [word.lower() for word in _WORD.findall(name)]
