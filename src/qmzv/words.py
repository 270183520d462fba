"""Words in the two letters x, y and their integer linear combinations.

A word is a plain string over {"x", "y"}.  Three nested spans matter here:

* H1    -- spanned by the empty word and words starting with y,
* H0    -- spanned by the empty word and words starting with y and ending in x,
* HGEQ2 -- spanned by the empty word and words that start with "yx" and in
           which every y is immediately followed by an x.

Composition indices (k_1, ..., k_r) of positive integers correspond to words
through k  <->  y x^(k_1 - 1) ... y x^(k_r - 1), so H1 is exactly the span of
index words and HGEQ2 the span of those with every entry >= 2.

Bar indices extend plain indices by a formal "bar one" entry, written b in
text form.  An admissible bar index is empty or ends with a plain entry, and
admissible bar indices factor uniquely into runs (l_1, k_1, ..., l_r, k_r):
l_j - 1 bar entries followed by the plain entry k_j.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import AdmissibilityError, MembershipError, ParameterError

H1 = "H1"
H0 = "H0"
HGEQ2 = "HGEQ2"

_WORD_RE = re.compile(r"[xy]*\Z")


def check_word(w: str) -> str:
    if not isinstance(w, str) or not _WORD_RE.match(w):
        raise ParameterError(f"not a word over x,y: {w!r}")
    return w


def word_in(w: str, space: str) -> bool:
    """Basis membership of a single word in H1, H0 or HGEQ2."""
    return _word_in(check_word(w), space)


def _word_in(w: str, space: str) -> bool:
    """word_in for a word over x, y that is already checked."""
    if space == H1:
        return w == "" or w[0] == "y"
    if space == H0:
        return w == "" or (w[0] == "y" and w[-1] == "x")
    if space == HGEQ2:
        if w == "":
            return True
        if not w.startswith("yx"):
            return False
        return all(
            i + 1 < len(w) and w[i + 1] == "x"
            for i, ch in enumerate(w)
            if ch == "y"
        )
    raise ParameterError(f"unknown space {space!r}")


def format_word(w: str) -> str:
    """Run-length text form: 'y x^2 y' for 'yxxy', '1' for the empty word."""
    check_word(w)
    if w == "":
        return "1"
    parts = []
    i = 0
    while i < len(w):
        j = i
        while j < len(w) and w[j] == w[i]:
            j += 1
        run = j - i
        parts.append(w[i] if run == 1 else f"{w[i]}^{run}")
        i = j
    return " ".join(parts)


class AlgebraElement:
    """Finite integer combination of words, kept in canonical form.

    Canonical means: zero coefficients dropped, iteration in lexicographic
    word order.  Elements are value objects; all operations return new ones.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: dict | None = None):
        clean: dict[str, int] = {}
        for w, c in (terms or {}).items():
            check_word(w)
            if isinstance(c, bool) or not isinstance(c, int):
                raise ParameterError(f"coefficient of {w!r} must be an int, got {c!r}")
            if c:
                clean[w] = c
        self._terms = dict(sorted(clean.items()))

    @classmethod
    def _make(cls, terms: dict) -> "AlgebraElement":
        """An element from trusted terms (words over x, y with nonzero int
        coefficients): no checks, only the sort into canonical order."""
        out = object.__new__(cls)
        out._terms = dict(sorted(terms.items()))
        return out

    @classmethod
    def zero(cls) -> "AlgebraElement":
        return cls({})

    @classmethod
    def one(cls) -> "AlgebraElement":
        return cls({"": 1})

    @classmethod
    def word(cls, w: str, coeff: int = 1) -> "AlgebraElement":
        return cls({w: coeff})

    def terms(self):
        """Pairs (word, coefficient) in lexicographic word order."""
        return tuple(self._terms.items())

    def coeff(self, w: str) -> int:
        return self._terms.get(check_word(w), 0)

    def is_zero(self) -> bool:
        return not self._terms

    def __add__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        merged = dict(self._terms)
        for w, c in other._terms.items():
            c += merged.pop(w, 0)
            if c:
                merged[w] = c
        return AlgebraElement._make(merged)

    def __sub__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return AlgebraElement._make({w: -c for w, c in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            return AlgebraElement._make({w: c * other for w, c in self._terms.items() if other})
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        out: dict[str, int] = {}
        for w1, c1 in self._terms.items():
            for w2, c2 in other._terms.items():
                w = w1 + w2
                out[w] = out.get(w, 0) + c1 * c2
        return AlgebraElement._make({w: c for w, c in out.items() if c})

    def __rmul__(self, other):
        if isinstance(other, int):
            return self.__mul__(other)
        return NotImplemented

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(tuple(self._terms.items()))

    def __repr__(self):
        return f"AlgebraElement({format_element(self)!r})"

    def in_space(self, space: str) -> bool:
        # every word of an element was checked when the element was built
        return all(_word_in(w, space) for w in self._terms)


def theta(u: AlgebraElement) -> AlgebraElement:
    """Sign automorphism: each word picks up (-1)^(letter count)."""
    return AlgebraElement._make({w: -c if len(w) % 2 else c for w, c in u.terms()})


def format_element(u: AlgebraElement) -> str:
    if u.is_zero():
        return "0"
    parts = []
    for w, c in u.terms():
        mag = abs(c)
        body = format_word(w) if mag == 1 and w else (
            f"{mag} {format_word(w)}" if w else str(mag)
        )
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


def element_to_json(u: AlgebraElement) -> dict:
    return {"terms": [{"word": w, "coeff": str(c)} for w, c in u.terms()]}


def element_from_json(data: dict) -> AlgebraElement:
    """The element of an element_to_json document.  Every coefficient must be
    an int (not a bool) or an integer string, every word a word over x, y
    (AlgebraElement checks it), and no word may be listed twice;
    ParameterError otherwise."""
    try:
        items = [(t["word"], t["coeff"]) for t in data["terms"]]
        bad = [c for _, c in items if isinstance(c, bool) or not isinstance(c, (int, str))]
        if bad:
            raise TypeError(f"coefficient {bad[0]!r} is neither an int nor an integer string")
        terms = {w: int(c) for w, c in items}
        if len(terms) != len(items):
            raise ValueError("a word is listed twice")
    except (KeyError, TypeError, ValueError) as exc:
        raise ParameterError(f"malformed element document: {exc}") from exc
    return AlgebraElement(terms)


# -- composition indices -----------------------------------------------------


def check_index(k: Sequence[int], name: str = "index", least: int = 1) -> tuple:
    """k as a tuple of ints >= least; ParameterError naming it otherwise."""
    try:
        k = tuple(k)
    except TypeError:
        raise ParameterError(f"{name} must be a sequence of ints >= {least}, got {k!r}") from None
    for e in k:
        if not isinstance(e, int) or e < least:
            raise ParameterError(f"{name} entries must be ints >= {least}, got {k}")
    return k


def check_count(value: int, name: str, least: int = 0) -> int:
    """value as an int >= least (a bool is refused); ParameterError naming it."""
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise ParameterError(f"{name} must be an int >= {least}, got {value!r}")
    return value


def check_eps(eps: int) -> int:
    """eps as the int 0 or 1; a bool or a float such as 1.0 is refused."""
    if isinstance(eps, bool) or not isinstance(eps, int) or eps not in (0, 1):
        raise ParameterError(f"eps must be 0 or 1, got {eps!r}")
    return eps


def word_from_index(k: Sequence[int]) -> str:
    """(k_1, ..., k_r)  ->  y x^(k_1-1) ... y x^(k_r-1)."""
    return "".join("y" + "x" * (e - 1) for e in check_index(k))


def index_from_word(w: str) -> tuple:
    """Inverse of word_from_index; defined on basis words of H1 only."""
    if not word_in(w, H1):
        raise MembershipError(f"word {w!r} is not in H1 (must be empty or start with y)")
    return _index_from_word(w)


def _index_from_word(w: str) -> tuple:
    """index_from_word for a word already known to lie in H1."""
    return tuple(len(block) + 1 for block in w.split("y")[1:])


def index_weight(k: Sequence[int]) -> int:
    return sum(check_index(k))


# -- bar indices ---------------------------------------------------------------


class _BarEntry(enum.Enum):
    BAR1 = "b"


BAR1 = _BarEntry.BAR1


def _check_bar_entries(entries: Iterable) -> tuple:
    try:
        entries = tuple(entries)
    except TypeError:
        raise ParameterError(f"a bar index must be a sequence, got {entries!r}") from None
    out = []
    for e in entries:
        if e is BAR1:
            out.append(e)
        elif isinstance(e, int) and e >= 1:
            out.append(e)
        else:
            raise ParameterError(f"bar index entries must be ints >= 1 or BAR1, got {e!r}")
    return tuple(out)


@dataclass(frozen=True)
class BarIndex:
    entries: tuple

    def __init__(self, entries: Iterable = ()):
        object.__setattr__(self, "entries", _check_bar_entries(entries))

    @classmethod
    def _make(cls, entries: tuple) -> "BarIndex":
        """A bar index from a trusted tuple of ints >= 1 and BAR1."""
        out = object.__new__(cls)
        object.__setattr__(out, "entries", entries)
        return out

    def is_admissible(self) -> bool:
        return not self.entries or self.entries[-1] is not BAR1

    def weight(self) -> int:
        # bar entries count one each, plain entries count their value
        return sum(1 if e is BAR1 else e for e in self.entries)

    def __repr__(self):
        inner = ",".join("b" if e is BAR1 else str(e) for e in self.entries)
        return f"BarIndex({inner})"


def pairs_from_bar(k: BarIndex) -> tuple:
    """Run-length decomposition of an admissible bar index.

    Returns the flattened tuple (l_1, k_1, ..., l_r, k_r) where l_j - 1 is the
    length of the j-th maximal bar run and k_j the plain entry that ends it.
    """
    if not k.is_admissible():
        raise AdmissibilityError(f"{k!r} ends with a bar entry")
    return _read_runs(k.entries, BAR1)


def bar_from_pairs(c: Sequence[int]) -> BarIndex:
    """Inverse of pairs_from_bar on flattened (l_1, k_1, ..., l_r, k_r)."""
    return BarIndex(_expand_runs(c, BAR1))


def _expand_runs(c: Sequence[int], filler, shift: int = 0) -> tuple:
    """(l_1, k_1, ..., l_r, k_r) -> ({filler}^(l_1 - 1), k_1 + shift, ...)."""
    c = check_pairs(c)
    entries = []
    for j in range(0, len(c), 2):
        entries.extend([filler] * (c[j] - 1))
        entries.append(c[j + 1] + shift)
    return tuple(entries)


def _read_runs(entries: tuple, filler) -> tuple:
    """Inverse of _expand_runs at shift 0, for entries whose last is not filler."""
    out = []
    run = 0
    for e in entries:
        if e == filler:
            run += 1
        else:
            out.extend((run + 1, e))
            run = 0
    return tuple(out)


def check_pairs(c: Sequence[int]) -> tuple:
    c = check_index(c, "pair sequence")
    if len(c) % 2:
        raise ParameterError(f"pair sequence must have even length, got {c}")
    return c


def interleave_pairs(l: Sequence[int], k: Sequence[int]) -> tuple:
    """(l_1, ..., l_r), (k_1, ..., k_r) -> (l_1, k_1, ..., l_r, k_r), checked."""
    l, k = check_index(l, "l"), check_index(k, "k")
    if len(l) != len(k):
        raise ParameterError(f"l and k must have equal length, got {l} and {k}")
    return check_pairs(x for pair in zip(l, k) for x in pair)


def pair_weight(c: Sequence[int]) -> int:
    """Weight sum(k_j + l_j - 1) of a flattened pair sequence."""
    c = check_pairs(c)
    return sum(c[j] + c[j + 1] - 1 for j in range(0, len(c), 2))


def diamond_from_pairs(c: Sequence[int]) -> tuple:
    """({1}^(l_1 - 1), k_1 + 1, ...): the index fed to the diamond models."""
    return _expand_runs(c, 1, shift=1)


def sz_from_pairs(c: Sequence[int]) -> tuple:
    """({0}^(l_1 - 1), k_1, ...): the zero-padded index of the strict model."""
    return _expand_runs(c, 0)


def pairs_from_sz(k: Sequence[int]) -> tuple:
    """Run-length decomposition of a zero-padded index, whose entries are
    ints >= 0 and whose last entry is nonzero; the validator of such indices."""
    k = check_index(k, "zero-padded index", least=0)
    if k and k[-1] == 0:
        raise AdmissibilityError(f"zero-padded index {k} ends with 0")
    return _read_runs(k, 0)


def parse_index(text: str):
    """Parse a comma list like 'b,2' or '0,3'; bars give a BarIndex, else a tuple."""
    text = text.strip()
    if text == "":
        return ()
    entries = []
    has_bar = False
    for piece in text.split(","):
        piece = piece.strip()
        if piece == "b":
            entries.append(BAR1)
            has_bar = True
        else:
            try:
                entries.append(int(piece))
            except ValueError:
                raise ParameterError(f"bad index entry {piece!r} in {text!r}") from None
    return BarIndex(entries) if has_bar else tuple(entries)


def render_index(obj) -> str:
    entries = obj.entries if isinstance(obj, BarIndex) else tuple(obj)
    return ",".join("b" if e is BAR1 else str(e) for e in entries)


def weight(obj) -> int:
    """Weight of a word (letter count), bar index, or plain index."""
    if isinstance(obj, str):
        return len(check_word(obj))
    if isinstance(obj, BarIndex):
        return obj.weight()
    return index_weight(obj)
