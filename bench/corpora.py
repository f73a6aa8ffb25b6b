"""Seeded Java trees with by-construction ground truth.

Each generator writes a tree under ``root`` and returns a :class:`Tree`: its
size, a digest of its contents and ``truth``, the expected ``stem -> weight``
map of the tree's all-kinds cloud.  The truth comes from the words the
generator composed, following the weighting rules the README documents: a
stem counts once per identifier that contains it, packages count once per
qualified name, stop words are dropped after stemming, and irregular forms
map through the exceptions list.  Every composed word has a stem known by
construction (a word no detachment rule touches, a regular ``s``/``ing``/
``ed`` inflection of such a word, or an exceptions-list entry), so the truth
never calls codecloud.  The lexicon data files are read with a parser of
this module's own.

The trees leave out the declaration forms the extractor is known to
mishandle (``non-sealed``, Unicode escapes, compact record constructors and
``module-info.java``).  Parser robustness owns those; here they would only
turn a speed measurement into a failure count.
"""

from __future__ import annotations

import hashlib
import random
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

#: Detachment-rule suffixes (``ies``, ``ied``, ``es`` and ``ss`` end in one of
#: these).  A word ending in none of them passes the stemmer unchanged.
_SUFFIXES = ("s", "ed", "ing")

#: Reserved and contextual Java keywords; no generated name may be one.
_JAVA_KEYWORDS = frozenset(
    "abstract assert boolean break byte case catch char class const continue "
    "default do double else enum exports extends false final finally float for "
    "goto if implements import instanceof int interface long module native new "
    "null open opens package permits private protected provides public record "
    "requires return sealed short static strictfp super switch synchronized "
    "this throw throws to transient transitive true try uses var void volatile "
    "when while with yield".split()
)

#: The body-heavy trees' vocabulary: 116 nouns that no stemming rule changes.
NOUNS = (
    "account alarm batch border bridge buffer cache "
    "carrier channel chart circuit client cloud cluster color column config "
    "counter cursor data depth device dock domain draft draw edge engine entry "
    "event field filter folder forest frame gate graph grid group handle "
    "harbor header hook index input island item job key label ladder lamp "
    "layer lever limit line link list lock log map mark menu mesh message "
    "meta meter mirror mode model motor name net node offset orbit order "
    "output packet page panel parser path pilot pixel planet plot point pool "
    "port prism pulse query queue quota radar range region relay render "
    "report request result root route row scale scan schema scope screen "
    "segment sensor server session shape"
).split()


@dataclass(frozen=True)
class Lexicon:
    """The documented lexicon data: exceptions, stop words, word list."""

    exceptions: dict[str, str]
    stop_words: frozenset[str]
    word_list: frozenset[str]


def _data_words(path: Path) -> list[list[str]]:
    rows = []
    for raw in path.read_text(encoding="utf-8").splitlines():
        fields = raw.split("#", 1)[0].split()
        if fields:
            rows.append(fields)
    return rows


def read_lexicon(data_dir: Path) -> Lexicon:
    """Read ``exceptions.txt``, ``stopwords.txt`` and ``wordlist.txt``."""
    return Lexicon(
        exceptions={row[0]: row[1] for row in _data_words(data_dir / "exceptions.txt")},
        stop_words=frozenset(row[0] for row in _data_words(data_dir / "stopwords.txt")),
        word_list=frozenset(row[0] for row in _data_words(data_dir / "wordlist.txt")),
    )


@dataclass(frozen=True)
class Tree:
    root: Path
    files: int
    bytes: int
    lines: int
    digest: str
    truth: dict[str, int]

    def identity(self) -> dict:
        return {"files": self.files, "bytes": self.bytes, "lines": self.lines,
                "sha256": self.digest, "tags": len(self.truth)}


class _Writer:
    """Writes files under a root and accumulates size, digest and truth."""

    def __init__(self, root: Path, lexicon: Lexicon):
        self.root = root
        self.stop_words = lexicon.stop_words
        self.files = self.bytes = self.lines = 0
        self.digests: list[tuple[str, str]] = []
        self.weights: Counter[str] = Counter()
        self.packages: set[str] = set()

    def identifier(self, stems) -> None:
        """Count one identifier whose words stem to ``stems``."""
        self.weights.update(set(stems) - self.stop_words)

    def package(self, qualified: str, stem: str) -> None:
        if qualified not in self.packages:
            self.packages.add(qualified)
            self.identifier([stem])

    def write(self, rel: str, text: str) -> None:
        data = text.encode("utf-8")
        path = self.root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
        self.files += 1
        self.bytes += len(data)
        self.lines += text.count("\n")
        self.digests.append((rel, hashlib.sha256(data).hexdigest()))

    def tree(self) -> Tree:
        digest = hashlib.sha256()
        for rel, file_digest in sorted(self.digests):
            digest.update(f"{rel}\0{file_digest}\n".encode())
        return Tree(self.root, self.files, self.bytes, self.lines,
                    digest.hexdigest(), dict(sorted(self.weights.items())))


def _is_plain(word: str, lexicon: Lexicon) -> bool:
    """True when the stemmer returns ``word`` unchanged and keeps it as a tag."""
    return (
        word.isalpha()
        and word.islower()
        and not word.endswith(_SUFFIXES)
        and word not in lexicon.exceptions
        and word not in lexicon.stop_words
        and word not in _JAVA_KEYWORDS
    )


def _camel(words, lower_first: bool) -> str:
    head = words[0] if lower_first else words[0].capitalize()
    return head + "".join(word.capitalize() for word in words[1:])


# --- body-heavy trees ------------------------------------------------------


def _bodies_class(rng: random.Random, w: _Writer, index: int, package: str) -> tuple[str, str]:
    class_words = rng.sample(NOUNS, 2)
    name = _camel(class_words, lower_first=False) + str(index)
    w.identifier(class_words)  # the class
    w.identifier(class_words)  # its constructor
    lines = [f"package {package};", "", f"/** Generated model type {name}. */",
             f"public class {name} {{", ""]
    fields = [rng.sample(NOUNS, rng.randint(1, 3)) for _ in range(3 + index % 4)]
    for words in fields:
        field = _camel(words, lower_first=True)
        w.identifier(words)
        if rng.random() < 0.5:
            lines.append(f"    private int {field};")
        else:
            lines.append(f'    private String {field} = "{rng.choice(NOUNS)}";')
    first = _camel(fields[0], lower_first=True)
    lines += ["", f"    public {name}(int seedValue) {{",
              f"        // seed {rng.randint(0, 9999)}", "    }", ""]
    for words in fields:
        accessor = _camel(words, lower_first=False)
        w.identifier(["get", *words])
        w.identifier(["set", *words])
        lines += [
            f"    public int get{accessor}() {{",
            f"        return {first}.hashCode();",
            "    }",
            "",
            f"    public void set{accessor}(int value) {{",
            f"        // store into {_camel(words, lower_first=True)}",
            "    }",
            "",
        ]
    for _ in range(2 + index % 3):
        words = rng.sample(NOUNS, rng.randint(2, 3))
        w.identifier(words)
        lines += [
            f"    public String {_camel(words, lower_first=True)}(int depth) {{",
            "        StringBuilder out = new StringBuilder();",
            "        for (int i = 0; i < depth; i++) {",
            f'            out.append("{rng.choice(NOUNS)} ");',
            "        }",
            "        return out.toString();",
            "    }",
            "",
        ]
    lines.append("}")
    return name, "\n".join(lines) + "\n"


def bodies_tree(root: Path, seed: int, lexicon: Lexicon, classes: int = 1450) -> Tree:
    """Body-heavy classes over the 116-noun vocabulary, one per file.

    Every class has fields, a constructor, an accessor pair per field and a
    few methods whose bodies hold most of the tokens, so lexing through
    bodies dominates.  The per-class member counts depend only on the class
    index, so the tree's size does not vary with the seed.
    """
    for word in (*NOUNS, "get", "set"):
        if not _is_plain(word, lexicon):
            raise ValueError(f"vocabulary word {word!r} is not stem-inert under the lexicon data")
    rng = random.Random(seed)
    w = _Writer(root, lexicon)
    packages = [f"com.gen.{noun}" for noun in rng.sample(NOUNS, 7)]
    for index in range(classes):
        package = packages[index % len(packages)]
        w.package(package, package.rsplit(".", 1)[1])
        name, text = _bodies_class(rng, w, index, package)
        w.write(f"{package.replace('.', '/')}/{name}.java", text)
    return w.tree()


# --- declaration-dense trees -----------------------------------------------

_ONSETS = "b bl br c cl cr d dr f fl fr g gl gr h j k kl kr l m n p pl pr r sc sk sl sm sn sp st t tr v w z".split()
_VOWELS = "a e i o u ai ea oa oo ou".split()
_CODAS = "b ck f ft k l lf lk lm lp lt m mb mp n nk nt p r rb rk rm rn rp rt t v x z".split()


def pseudo_words(rng: random.Random, count: int, lexicon: Lexicon) -> list[str]:
    """``count`` distinct pseudo-word bases with predictable inflections.

    A base ends in a consonant other than ``s``, ``d`` or ``g`` and is no
    exception, stop word or keyword, so the stemmer leaves it unchanged.
    Its ``s``, ``ing`` and ``ed`` forms strip back to it: none is an
    exceptions entry, and base + ``e`` is not in the word list that would
    make ``ing``/``ed`` restore an ``e``.
    """
    bases: list[str] = []
    seen: set[str] = set()
    while len(bases) < count:
        parts = [rng.choice(_ONSETS), rng.choice(_VOWELS)]
        for _ in range(rng.choice((0, 1, 1, 2))):
            parts += [rng.choice(_ONSETS), rng.choice(_VOWELS)]
        word = "".join(parts) + rng.choice(_CODAS)
        if (
            len(word) < 4
            or word in seen
            or not _is_plain(word, lexicon)
            or word + "e" in lexicon.word_list
            or any(word + suffix in lexicon.exceptions for suffix in _SUFFIXES)
        ):
            continue
        seen.add(word)
        bases.append(word)
    return bases


#: The declaration-dense tree: files, members (fields and abstract methods)
#: per file, and pseudo-word bases.  The benchmark's tests shrink VOCAB_FILES
#: and VOCAB_BASES to keep their trees small.
VOCAB_FILES = 600
VOCAB_MEMBERS = 44
VOCAB_BASES = 1900


def vocab_tree(root: Path, seed: int, lexicon: Lexicon) -> Tree:
    """Declaration-dense abstract classes over a large, inflected vocabulary.

    Each file holds an abstract class with VOCAB_MEMBERS fields and abstract
    methods and no bodies, so the tree has many identifiers per byte.  Words
    are pseudo-word bases, mostly bare or regularly inflected with ``s``,
    ``ing`` or ``ed``, mixed with irregular forms from the exceptions list
    and stop words, which gives the cloud about two thousand tags.
    """
    rng = random.Random(seed)
    w = _Writer(root, lexicon)
    vocabulary = pseudo_words(rng, VOCAB_BASES, lexicon)
    irregular = sorted(lexicon.exceptions)
    stops = sorted(
        word for word in lexicon.stop_words
        if len(word) >= 2 and (word in lexicon.exceptions or not word.endswith(_SUFFIXES))
    )

    def word() -> tuple[str, str]:
        """One (surface form, stem) pair."""
        draw = rng.random()
        if draw < 0.08:
            surface = rng.choice(stops)
            return surface, lexicon.exceptions.get(surface, surface)
        if draw < 0.18:
            surface = rng.choice(irregular)
            return surface, lexicon.exceptions[surface]
        base = rng.choice(vocabulary)
        return base + rng.choice(("", "", "s", "ing", "ed")), base

    def name(lower_first: bool) -> str:
        pairs = [word() for _ in range(rng.choice((2, 2, 3)))]
        w.identifier(stem for _, stem in pairs)
        return _camel([surface for surface, _ in pairs], lower_first)

    tops = vocabulary[:4]
    leaves = vocabulary[4:16]
    packages = sorted({f"org.{rng.choice(tops)}.{rng.choice(leaves)}" for _ in range(30)})
    for index in range(VOCAB_FILES):
        package = packages[index % len(packages)]
        leaf = package.rsplit(".", 1)[1]
        w.package(package, leaf)
        class_name = name(lower_first=False) + str(index)
        lines = [f"package {package};", "", f"public abstract class {class_name} {{"]
        for _ in range(VOCAB_MEMBERS):
            draw = rng.random()
            if draw < 0.25:
                lines.append(f"    private int {name(True)};")
            elif draw < 0.4:
                lines.append(f'    protected String {name(True)} = "{rng.choice(vocabulary)}";')
            elif draw < 0.45:
                lines.append(f"    long {name(True)}, {name(True)};")
            elif draw < 0.8:
                lines.append(f"    public abstract void {name(True)}(int count);")
            else:
                lines.append(f"    protected abstract String {name(True)}(String key, int limit);")
        lines.append("}")
        w.write(f"{package.replace('.', '/')}/{class_name}.java", "\n".join(lines) + "\n")
    return w.tree()
