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
from typing import Iterator

KINDS = ("s", "r", "t")  # sigma, rho, tau


@dataclass(frozen=True, order=True)
class Generator:
    kind: str  # "s" | "r" | "t"
    index: int

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown generator kind {self.kind!r}")
        if self.index < 1:
            raise ValueError(f"generator index must be >= 1, got {self.index}")

    def check_bounds(self, n: int) -> None:
        """Validate the index against an ambient strand count n."""
        if self.kind == "s" and not (1 <= self.index <= n - 1):
            raise ValueError(f"sigma index {self.index} out of bounds for n={n}")
        if self.kind == "r" and not (1 <= self.index <= n):
            raise ValueError(f"rho index {self.index} out of bounds for n={n}")
        if self.kind == "t" and self.index != 1:
            raise ValueError(f"tau index must be 1, got {self.index}")

    def __str__(self):
        return f"{self.kind}{self.index}"


# A letter is (generator, exponent) with exponent +1 or -1.
Letter = tuple[Generator, int]


def sigma(i: int) -> Generator:
    return Generator("s", i)


def rho(i: int) -> Generator:
    return Generator("r", i)


def tau() -> Generator:
    return Generator("t", 1)


@dataclass(frozen=True)
class BraidWord:
    letters: tuple[Letter, ...] = ()

    def __post_init__(self):
        for g, e in self.letters:
            if e not in (1, -1):
                raise ValueError(f"exponent must be +1 or -1, got {e}")

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[Letter]:
        return iter(self.letters)

    def __mul__(self, other: "BraidWord") -> "BraidWord":
        return BraidWord(self.letters + other.letters)

    def __pow__(self, k: int) -> "BraidWord":
        if k < 0:
            return self.inverse() ** (-k)
        w = BraidWord()
        for _ in range(k):
            w = w * self
        return w

    def inverse(self) -> "BraidWord":
        return BraidWord(tuple((g, -e) for g, e in reversed(self.letters)))

    def free_reduce(self) -> "BraidWord":
        out: list[Letter] = []
        for let in self.letters:
            if out and out[-1][0] == let[0] and out[-1][1] == -let[1]:
                out.pop()
            else:
                out.append(let)
        return BraidWord(tuple(out))

    def __str__(self):
        return format_word(self)


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
        letters.append((Generator(kind, idx), -1 if inv else 1))
    return BraidWord(tuple(letters))


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
        if g.kind == "s":
            i = g.index
            occupant[i - 1], occupant[i] = occupant[i], occupant[i - 1]
    # strand-endpoint map is the inverse of the final occupancy row
    return Permutation(tuple(occupant)).inverse()
