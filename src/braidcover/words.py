"""Braid words over the generator alphabets sigma_i / rho_i / tau.

A word is a temporally ordered sequence of signed letters: reading left to
right follows the braid from t=0 to t=1.  With this convention the
permutation homomorphism satisfies pi(uv) = pi(v) o pi(u), i.e. strand
tracking applies the letters' transpositions in temporal order.

Generator indices are 1-based.  Words are NOT kept free-reduced by
concatenation; derivation certificates rely on positional stability.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter
from typing import Iterator

KINDS = ("s", "r", "t")  # sigma, rho, tau


class Generator(tuple):
    """One generator letter without exponent: the tuple (kind, index), with
    read-only fields of those names.

    The constructor raises ValueError unless kind is one of KINDS and index
    is an int >= 1 (bool is not an int here).  A generator equals, orders
    and hashes as its plain (kind, index) tuple, in C, as the dataclass it
    replaces did by its generated methods; its repr is that dataclass's."""

    __slots__ = ()

    def __new__(cls, kind: str, index: int):
        if kind not in KINDS:
            raise ValueError(f"unknown generator kind {kind!r}")
        if type(index) is not int:
            raise ValueError(f"generator index must be an int, got {index!r}")
        if index < 1:
            raise ValueError(f"generator index must be >= 1, got {index}")
        return tuple.__new__(cls, (kind, index))

    def __getnewargs__(self):
        return tuple(self)

    def __repr__(self) -> str:
        return "%s(kind=%r, index=%r)" % (type(self).__qualname__, *self)

    kind = property(itemgetter(0))
    index = property(itemgetter(1))

    def check_bounds(self, n: int) -> None:
        """Validate the index against an ambient strand count n."""
        kind, index = self
        if kind == "s" and not (1 <= index <= n - 1):
            raise ValueError(f"sigma index {index} out of bounds for n={n}")
        if kind == "r" and not (1 <= index <= n):
            raise ValueError(f"rho index {index} out of bounds for n={n}")
        if kind == "t" and index != 1:
            raise ValueError(f"tau index must be 1, got {index}")

    def __str__(self):
        return "%s%s" % self


# A letter is (generator, exponent) with exponent +1 or -1.
Letter = tuple[Generator, int]


@lru_cache(maxsize=None, typed=True)
def _generator(kind: str, index: int) -> Generator:
    """The one Generator per (kind, index) that sigma, rho, tau and
    parse_word hand out, so that equal letters they build are usually one
    object and tuple compares decide by identity.  Typed, so that sigma(True)
    is refused as Generator("s", True) is, not answered with sigma(1)."""
    return Generator(kind, index)


def sigma(i: int) -> Generator:
    return _generator("s", i)


def rho(i: int) -> Generator:
    return _generator("r", i)


def tau() -> Generator:
    return _generator("t", 1)


def letter_codes(generators) -> dict[Letter, int]:
    """The integer code of every letter over generators: (g_k, 1) is 2k
    and (g_k, -1) is 2k + 1, so code ^ 1 is the inverse letter."""
    return {(g, e): 2 * k + (e < 0) for k, g in enumerate(generators) for e in (1, -1)}


@dataclass(frozen=True)
class BraidWord:
    """A tuple of letters.  The constructor raises ValueError unless
    letters is a tuple of (Generator, e) pairs with e the int +1 or -1.
    Words derived from checked words (products, powers, inverses, free
    reductions, parse_word's output and the library's internal builders)
    are built by _trusted_word, which skips that check."""

    letters: tuple[Letter, ...] = ()

    def __post_init__(self):
        if type(self.letters) is not tuple:
            raise ValueError(f"letters must be a tuple, got {self.letters!r}")
        for let in self.letters:
            if not (type(let) is tuple and len(let) == 2 and type(let[0]) is Generator
                    and type(let[1]) is int and let[1] in (1, -1)):
                raise ValueError(f"a letter must be a (Generator, +1 or -1) pair, got {let!r}")

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[Letter]:
        return iter(self.letters)

    def __mul__(self, other: "BraidWord") -> "BraidWord":
        return _trusted_word(self.letters + other.letters)

    def __pow__(self, k: int) -> "BraidWord":
        if k < 0:
            return self.inverse() ** (-k)
        return _trusted_word(self.letters * k)

    def inverse(self) -> "BraidWord":
        return _trusted_word(tuple([(g, -e) for g, e in reversed(self.letters)]))

    def free_reduce(self) -> "BraidWord":
        out: list[Letter] = []
        for let in self.letters:
            if out and out[-1][0] == let[0] and out[-1][1] == -let[1]:
                out.pop()
            else:
                out.append(let)
        return _trusted_word(tuple(out))

    def __str__(self):
        return format_word(self)


_new_object = object.__new__
_set_field = object.__setattr__


def _trusted_word(letters: tuple[Letter, ...]) -> BraidWord:
    """The BraidWord on letters, built without the constructor's check.
    Only for letters that come from checked words or are built here from
    interned generators and exponents +1 and -1."""
    w = _new_object(BraidWord)
    _set_field(w, "letters", letters)
    return w


EMPTY = BraidWord()


def gen_word(g: Generator, e: int = 1) -> BraidWord:
    return BraidWord(((g, e),))


class WordFormatError(ValueError):
    """Raised by `parse_word` on text outside the word grammar."""


_TOKEN = re.compile(r"([srt])([0-9]+)(\^-1)?")


def parse_word(text: str) -> BraidWord:
    """Parse the whitespace-separated grammar `('s'|'r'|'t') [0-9]+ ('^-1')?`;
    indices are ASCII digits, and any other text raises `WordFormatError`."""
    letters: list[Letter] = []
    for tok in text.split():
        m = _TOKEN.fullmatch(tok)
        if m is None:
            raise WordFormatError(f"malformed token {tok!r}")
        kind, digits, inv = m.groups()
        try:
            idx = int(digits)
        except ValueError:  # more digits than int() converts
            raise WordFormatError(f"index too long in token {tok!r}") from None
        if idx < 1:
            raise WordFormatError(f"bad index in token {tok!r}")
        letters.append((_generator(kind, idx), -1 if inv else 1))
    return _trusted_word(tuple(letters))


def format_word(w: BraidWord) -> str:
    return " ".join(f"{g}" + ("^-1" if e == -1 else "") for g, e in w.letters)


@dataclass(frozen=True)
class Permutation:
    """Bijection of {1..n}; images[i-1] is the image of i."""

    images: tuple[int, ...]

    def __post_init__(self):
        n = len(self.images)
        if sorted(self.images) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {self.images}")

    @staticmethod
    def identity(n: int) -> "Permutation":
        return Permutation(tuple(range(1, n + 1)))

    @staticmethod
    def transposition(n: int, i: int, j: int) -> "Permutation":
        images = list(range(1, n + 1))
        images[i - 1], images[j - 1] = j, i
        return Permutation(tuple(images))

    def __call__(self, x: int) -> int:
        return self.images[x - 1]

    def compose(self, other: "Permutation") -> "Permutation":
        """self o other: apply `other` first."""
        return Permutation(tuple(self.images[y - 1] for y in other.images))

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for x, y in enumerate(self.images, start=1):
            inv[y - 1] = x
        return Permutation(tuple(inv))

    def is_identity(self) -> bool:
        return all(y == x for x, y in enumerate(self.images, start=1))

    def order(self) -> int:
        p, k = self, 1
        while not p.is_identity():
            p = p.compose(self)
            k += 1
        return k


def permutation_image(w: BraidWord, n: int) -> Permutation:
    """Braid permutation homomorphism: pi(sigma_i) = (i, i+1), rho/tau pure.

    Temporal convention: pi(uv) = pi(v) o pi(u).
    """
    occupant = list(range(1, n + 1))  # occupant[q-1] = strand currently at position q
    for g, _e in w.letters:
        g.check_bounds(n)
        kind, i = g
        if kind == "s":
            occupant[i - 1], occupant[i] = occupant[i], occupant[i - 1]
    # strand-endpoint map is the inverse of the final occupancy row
    return Permutation(tuple(occupant)).inverse()
