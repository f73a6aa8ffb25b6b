"""Reference implementations used as independent oracles in tests.

Unlike the production pattern-based splitter, ``reference_split`` literally
computes the set of boundary positions demanded by each splitting rule over
the character array, then cuts the string at every boundary/separator.
Non-ASCII characters are first folded one at a time, as the splitter's
docstring says, so the enumeration only ever sees ASCII.

``oracle_frequency`` counts one stem per identifier with the evaluator's
naive pipeline, and ``tags_of_identifier`` gives one identifier's stems as
the cloud pipeline sees them.
"""

import unicodedata

from codecloud import CloudKind, build_tags, oracle_words


def _fold_char(ch: str) -> str:
    """A non-ASCII letter's ASCII base letters, uppercase when the letter is
    uppercase and has one; a space for anything else non-ASCII."""
    if ch.isascii():
        return ch
    if not ch.isalpha():
        return " "
    base = "".join(c for c in unicodedata.normalize("NFKD", ch.casefold()) if "a" <= c <= "z")
    if not base:
        return " "
    return base.upper() if ch.isupper() and len(base) == 1 else base


def reference_split(name: str) -> list[str]:
    name = "".join(_fold_char(ch) for ch in name)
    n = len(name)
    upper = [c.isupper() and c.isascii() for c in name]
    lower = [c.islower() and c.isascii() for c in name]
    digit = [c.isdigit() and c.isascii() for c in name]
    letter = [u or l for u, l in zip(upper, lower)]

    boundaries = set()
    # rule a: uppercase after a lowercase letter or a digit
    for i in range(1, n):
        if upper[i] and (lower[i - 1] or digit[i - 1]):
            boundaries.add(i)
    # rule b: last uppercase of an uppercase run that is followed by lowercase
    i = 0
    while i < n:
        if upper[i]:
            j = i
            while j + 1 < n and upper[j + 1]:
                j += 1
            if j + 1 < n and lower[j + 1]:
                boundaries.add(j)
            i = j + 1
        else:
            i += 1

    words = []
    current = []
    for i, ch in enumerate(name):
        if not letter[i]:
            if current:
                words.append("".join(current))
                current = []
            continue
        if i in boundaries and current:
            words.append("".join(current))
            current = []
        current.append(ch.lower())
    if current:
        words.append("".join(current))
    return words


def oracle_frequency(stem, ids, lexicon, stop_words_enabled=True):
    """How many identifiers contain ``stem``, per the naive reference pipeline."""
    return sum(
        1
        for identifier in ids
        if stem in oracle_words(identifier.simple_name, lexicon, stop_words_enabled)
    )


def tags_of_identifier(identifier, lexicon, cfg):
    """The deduplicated stem set of one identifier's simple name."""
    return {tag.stem for tag in build_tags([identifier], CloudKind.ALL, lexicon, cfg)}
