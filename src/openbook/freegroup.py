"""Exact words and automorphisms of finitely generated free groups.

A word is a plain tuple of letters (``Letters``), the one word type
every module passes around.  Letters are signed 1-based generator
indices: +k is the generator x_k, -k its inverse.  The functions here
keep words freely reduced, so word equality is plain tuple equality.

Automorphisms store images of the generators together with images under
the inverse map.  Both directions are checked against each other when an
automorphism is built from outside data: the curve tables were derived by
hand, and a wrong inverse shows up here instead of as a subtly wrong
twist three modules later.  Results of ``compose``, ``inverse`` and
``__pow__`` are trusted, not re-checked: f o g and g^-1 o f^-1 are
mutually inverse whenever f and g are, and substitution reduces.
``conjugation`` and ``inner`` are trusted too, and ``_deferred`` builds
their tables on first read: conjugating generators by a word spelled in
them fixes that word, so conjugating by its inverse undoes the map.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

Letters = tuple[int, ...]


def reduce_letters(raw: Iterable[int], rank: int | None = None) -> Letters:
    """Freely reduce a sequence of signed generator indices (``concat``).

    If ``rank`` is given, letters outside ``1..rank`` are rejected.
    """
    letters = tuple(raw)
    for letter in letters:
        if letter == 0:
            raise ValueError("0 is not a valid letter")
        if rank is not None and not 1 <= abs(letter) <= rank:
            raise ValueError(f"letter {letter} out of range for rank {rank}")
    return concat(letters)


def invert_letters(letters: Sequence[int]) -> Letters:
    return tuple(-x for x in reversed(letters))


def concat(*parts: Sequence[int]) -> Letters:
    """Concatenate words and reduce: adjacent inverse pairs are cancelled
    through a stack until none remain, giving the unique reduced word
    equal to the product in the free group."""
    out: list[int] = []
    for part in parts:
        for letter in part:
            if out and out[-1] == -letter:
                out.pop()
            else:
                out.append(letter)
    return tuple(out)


def apply_images(images: Sequence[Sequence[int]], letters: Sequence[int]) -> Letters:
    """Substitute ``x_k -> images[k-1]`` into a word and reduce.

    ``images`` need not come from an automorphism; this is plain
    substitution, usable for arbitrary endomorphisms (the convention
    solver in tools/ builds twist candidates this way before they are
    promoted to validated automorphisms).
    """
    return concat(*(images[x - 1] if x > 0 else invert_letters(images[-x - 1]) for x in letters))


def exponent_sums(letters: Sequence[int], rank: int) -> tuple[int, ...]:
    """Total signed exponent of each generator (the abelianised word)."""
    sums = [0] * rank
    for letter in letters:
        sums[abs(letter) - 1] += 1 if letter > 0 else -1
    return tuple(sums)


def cyclic_reduce(letters: Sequence[int]) -> Letters:
    word = reduce_letters(letters)
    lo, hi = 0, len(word)
    while hi - lo >= 2 and word[lo] == -word[hi - 1]:
        lo += 1
        hi -= 1
    return tuple(word[lo:hi])


def are_conjugate(a: Sequence[int], b: Sequence[int]) -> bool:
    """Conjugacy test for free-group elements via cyclic words."""
    ra, rb = cyclic_reduce(a), cyclic_reduce(b)
    if len(ra) != len(rb):
        return False
    if not ra:
        return True
    doubled = ra + ra
    return any(doubled[i:i + len(rb)] == rb for i in range(len(ra)))


# A 2x2 integer matrix [[a, b], [c, d]], stored as (a, b, c, d).
SL2 = tuple[int, int, int, int]


def sanov_basis(rank: int) -> tuple[SL2, ...]:
    """Sanov's faithful representation rho of F_rank in SL(2, Z) on the
    generators: x_k -> A^k B A^-k with A = [[1, 2], [0, 1]] and
    B = [[1, 0], [2, 1]].

    A and B generate a free group (Sanov 1947).  Substituting
    x_k -> A^k B^+-1 A^-k into a reduced word leaves a reduced word in A
    and B, nonempty when the input is: between neighbours x_k, x_l the
    factor A^(l-k) survives when k != l, and for k = l the B-exponents
    have equal sign.  So rho is injective.
    """
    return tuple(
        (1 + 4 * k, -8 * k * k, 2, 1 - 4 * k) for k in range(1, rank + 1)
    )


def sanov_substitute(
    key: Sequence[SL2], words: Iterable[Sequence[int]]
) -> tuple[SL2, ...]:
    """Read each word through the generator matrices ``key``.

    With key = rho o phi, the result is rho o phi of the words; given the
    images of psi, that is rho o phi o psi on the generators.  With
    ``sanov_basis`` as the key it is rho of the words themselves.

    Letters are read straight from ``key``, x_k^-1 as the inverse
    (d, -b, -c, a) of key[k - 1].  A word starts from its first letter's
    matrix, so an image of one letter costs no product; the empty word
    gives the identity.
    """
    out = []
    for word in words:
        if not word:
            out.append((1, 0, 0, 1))
            continue
        first = word[0]
        if first > 0:
            a, b, c, d = key[first - 1]
        else:
            d, b, c, a = key[-first - 1]
            b, c = -b, -c
        for letter in word[1:]:
            if letter > 0:
                e, f, g, h = key[letter - 1]
                a, b, c, d = a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h
            else:
                h, f, g, e = key[-letter - 1]
                a, b, c, d = a * e - b * g, b * h - a * f, c * e - d * g, d * h - c * f
        out.append((a, b, c, d))
    return tuple(out)


@dataclass(frozen=True)
class FreeAutomorphism:
    """An automorphism of F_rank with an explicit inverse.

    ``images[k-1]`` is the reduced image of x_k, ``inverse_images[k-1]``
    the reduced image of x_k under the inverse automorphism.  The public
    constructor checks that the two maps are mutually inverse; compose,
    inverse, ``__pow__`` and identity build through unchecked
    ``_trusted``, conjugation and inner through unchecked ``_deferred``.
    """

    rank: int
    images: tuple[Letters, ...]
    inverse_images: tuple[Letters, ...]

    def __post_init__(self) -> None:
        if len(self.images) != self.rank or len(self.inverse_images) != self.rank:
            raise ValueError("need exactly one image per generator, both ways")
        images = tuple(reduce_letters(w, self.rank) for w in self.images)
        inverse_images = tuple(reduce_letters(w, self.rank) for w in self.inverse_images)
        object.__setattr__(self, "images", images)
        object.__setattr__(self, "inverse_images", inverse_images)
        for k in range(self.rank):
            gen = (k + 1,)
            if apply_images(images, inverse_images[k]) != gen:
                raise ValueError(f"images do not invert inverse_images at x{k + 1}")
            if apply_images(inverse_images, images[k]) != gen:
                raise ValueError(f"inverse_images do not invert images at x{k + 1}")

    @classmethod
    def _trusted(cls, rank: int, images, inverse_images) -> "FreeAutomorphism":
        """Wrap images already known to be reduced and mutually inverse."""
        aut = object.__new__(cls)
        object.__setattr__(aut, "rank", rank)
        object.__setattr__(aut, "images", images)
        object.__setattr__(aut, "inverse_images", inverse_images)
        return aut

    @classmethod
    def _deferred(cls, rank: int, build, *args) -> "FreeAutomorphism":
        """Trusted, with tables (images, inverse_images) = build(*args)
        built when either is first read, then kept."""
        aut = object.__new__(cls)
        aut.__dict__.update(rank=rank, _build=(build, args))
        return aut

    def __getattr__(self, name: str):
        # reached only when __dict__ lacks the name: unread deferred tables
        if name not in ("images", "inverse_images") or "_build" not in self.__dict__:
            raise AttributeError(name)
        build, args = self.__dict__.pop("_build")
        self.__dict__["images"], self.__dict__["inverse_images"] = build(*args)
        return self.__dict__[name]

    @classmethod
    def identity(cls, rank: int) -> "FreeAutomorphism":
        gens = tuple(zip(range(1, rank + 1)))  # the words (1,), ..., (rank,)
        return cls._trusted(rank, gens, gens)

    @classmethod
    def conjugation(
        cls, rank: int, word: Sequence[int], moved: Sequence[int]
    ) -> "FreeAutomorphism":
        """Conjugate the generators in ``moved`` by ``word`` (u -> word^-1
        u word) and fix the rest; ``word`` must be spelled in ``moved``.

        Built trusted: the map fixes ``word`` itself, so conjugating the
        same generators by word^-1 undoes it.
        """
        word = reduce_letters(word, rank)
        if any(abs(x) not in moved for x in word):
            raise ValueError("conjugating word uses a generator it does not move")
        return cls._conjugation(rank, word, moved)

    @classmethod
    def _conjugation(cls, rank: int, word: Letters, moved: Sequence[int]) -> "FreeAutomorphism":
        """``conjugation`` by a word already reduced and spelled in
        ``moved``, unchecked."""
        return cls._deferred(rank, _conjugation_tables, rank, word, moved)

    @classmethod
    def inner(cls, rank: int, w: Sequence[int]) -> "FreeAutomorphism":
        """Conjugation u -> w^-1 u w of every generator."""
        return cls.conjugation(rank, w, range(1, rank + 1))

    def apply(self, letters: Sequence[int]) -> Letters:
        return apply_images(self.images, letters)

    def inverse(self) -> "FreeAutomorphism":
        return FreeAutomorphism._trusted(self.rank, self.inverse_images, self.images)

    def is_identity(self) -> bool:
        return all(self.images[k] == (k + 1,) for k in range(self.rank))

    def abelianize(self) -> tuple[tuple[int, ...], ...]:
        """Integer matrix with column j the exponent sums of images[j]."""
        cols = [exponent_sums(w, self.rank) for w in self.images]
        return tuple(
            tuple(cols[j][i] for j in range(self.rank)) for i in range(self.rank)
        )

    def __pow__(self, n: int) -> "FreeAutomorphism":
        if n == 0:
            return FreeAutomorphism.identity(self.rank)
        result = base = self if n > 0 else self.inverse()
        for _ in range(abs(n) - 1):
            result = compose(base, result)
        return result


def compose(f: FreeAutomorphism, g: FreeAutomorphism) -> FreeAutomorphism:
    """The automorphism f o g (g acts first)."""
    if f.rank != g.rank:
        raise ValueError(f"rank mismatch: {f.rank} vs {g.rank}")
    images = tuple(apply_images(f.images, w) for w in g.images)
    inverse_images = tuple(apply_images(g.inverse_images, w) for w in f.inverse_images)
    return FreeAutomorphism._trusted(f.rank, images, inverse_images)


def _conjugation_tables(rank: int, word: Letters, moved: Sequence[int]):
    """The tables of ``FreeAutomorphism.conjugation``."""
    wi, gens = invert_letters(word), range(1, rank + 1)
    return tuple(
        tuple(concat(a, (u,), b) if u in moved else (u,) for u in gens)
        for a, b in ((wi, word), (word, wi))
    )
