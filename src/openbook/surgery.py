"""Transverse surgery on binding components of an open book.

Admissible surgery (coefficient r < -1) is realised by a sequence of
positive stabilisations followed by positive boundary-parallel twists,
one block per entry of the negative continued fraction of r.  The
steps carry plain data: the page (surface, catalog), the word's
(name, exponent) entries, the binding labels and the position of the
surgered binding.  A stabilisation renames the entries by its
``renames`` and appends its twist; a block appends the boundary-parallel
twist.  One checked ``TwistWord`` and ``OpenBook`` are built at the end:
free reduction is confluent, so normalising once gives the entries that
normalising after every step would, and names are checked after it.
Inadmissible surgery (r > 0) first inserts n negative boundary-parallel
twists, converting the problem to an admissible one with coefficient
p/(q - n*p).  The continued fractions and ``parse_rational`` live in
``kirby``, which needs them without the mapping-class stack; they are
re-exported here.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count, filterfalse
from typing import Iterator

from ._value import Value
from .kirby import NegCF, neg_continued_fraction, parse_rational
from .mcg import TwistWord
from .stabilisation import boundary_parallel_curve, stabilize
from .surface import SurfaceSpec


def default_n(r: Fraction) -> int:
    """Smallest number of negative boundary twists with 1/n < r."""
    if r <= 0:
        raise ValueError("only positive coefficients need inadmissible twists")
    return r.denominator // r.numerator + 1


class OpenBook(Value):
    """A page, a monodromy word, and one label per binding component."""

    surface: SurfaceSpec
    word: TwistWord
    bindings: tuple[str, ...]

    def __init__(self, surface, word, bindings) -> None:
        object.__setattr__(self, "surface", surface)
        object.__setattr__(self, "word", word)
        object.__setattr__(self, "bindings", bindings)
        self.__post_init__()

    def __post_init__(self) -> None:
        if self.word.surface != self.surface:
            raise ValueError("monodromy word lives on a different surface")
        if len(self.bindings) != self.surface.boundary:
            raise ValueError("need one binding label per boundary component")
        if len(set(self.bindings)) != len(self.bindings):
            raise ValueError("binding labels must be distinct")

    @classmethod
    def standard(cls, surface: SurfaceSpec, word: TwistWord) -> "OpenBook":
        labels = tuple(str(i) for i in range(1, surface.boundary + 1))
        return cls(surface, word, labels)

    def binding_index(self, label: str) -> int:
        """1-based boundary position of a binding label."""
        try:
            return self.bindings.index(label) + 1
        except ValueError:
            raise ValueError(f"no binding labelled {label!r}") from None


def _fresh_labels(bindings: tuple[str, ...]) -> Iterator[str]:
    """The labels str(i), i >= 1, not in ``bindings``, least first.  A
    stabilisation adds the label it takes, so the next one is again the
    least free positive integer; each costs amortised O(1)."""
    return filterfalse(set(bindings).__contains__, map(str, count(1)))


def admissible_surgery(ob: OpenBook, binding: str, r: Fraction) -> OpenBook:
    """Admissible transverse surgery with coefficient r < -1 on the
    named binding component; the module docstring says what the steps
    carry."""
    if r >= -1:
        raise ValueError(
            f"admissible surgery needs r < -1, got {r}; "
            "positive coefficients go through inadmissible_surgery"
        )
    position = ob.binding_index(binding)
    fresh = _fresh_labels(ob.bindings)
    surface, catalog, labels = ob.surface, ob.word.catalog, ob.bindings
    entries = list(ob.word.entries)
    for entry in neg_continued_fraction(r).display_entries():
        for _ in range(abs(entry + 2)):
            res = stabilize(surface, catalog, position)
            entries = [(res.renames.get(n, n), e) for n, e in entries]
            entries.append((res.stab_curve, 1))
            if position == 1:
                # the old first binding continues at the far end; the
                # fresh boundary takes its place
                labels = (next(fresh),) + labels[1:] + (labels[0],)
            else:
                labels += (next(fresh),)
            surface, catalog, position = res.surface, res.catalog, res.k_index
        entries.append((boundary_parallel_curve(catalog, position), 1))
    return OpenBook(surface, TwistWord(surface, catalog, tuple(entries)), labels)


def inadmissible_surgery(
    ob: OpenBook, binding: str, r: Fraction, n: int | None = None
) -> OpenBook:
    """Inadmissible transverse surgery with coefficient r > 0: insert n
    negative boundary-parallel twists and continue admissibly with
    coefficient p/(q - n*p)."""
    if r <= 0:
        raise ValueError(f"inadmissible surgery needs r > 0, got {r}")
    if n is None:
        n = default_n(r)
    if n < 1 or Fraction(1, n) >= r:
        raise ValueError(f"need a twist count n with 1/n < r; got n={n} for r={r}")
    p, q = r.numerator, r.denominator
    residual = Fraction(p, q - n * p)
    if residual >= -1:
        raise ValueError(
            f"n={n} leaves coefficient {residual}, not < -1 as admissible "
            f"surgery needs; valid n satisfy {q}/{p} < n < {q}/{p} + 1, "
            "and none exists when p divides q"
        )
    position = ob.binding_index(binding)
    curve = boundary_parallel_curve(ob.word.catalog, position)
    word = TwistWord(ob.surface, ob.word.catalog, ob.word.entries + ((curve, -n),))
    twisted = OpenBook(ob.surface, word, ob.bindings)
    return admissible_surgery(twisted, binding, residual)


def surgery(
    ob: OpenBook, binding: str, r: Fraction, n: int | None = None
) -> OpenBook:
    """Dispatch on the coefficient: r < -1 admissible (raises if the twist
    count n is given), r > 0 inadmissible; coefficients in [-1, 0] are
    not realised by either construction."""
    if r < -1:
        if n is not None:
            raise ValueError(f"twist count n={n} applies only to r > 0, got r={r}")
        return admissible_surgery(ob, binding, r)
    if r > 0:
        return inadmissible_surgery(ob, binding, r, n)
    raise ValueError(
        f"coefficient {r} is in [-1, 0]; no surgery description is available"
    )
