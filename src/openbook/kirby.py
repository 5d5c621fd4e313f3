"""Framed-link presentations: first homology, blow-downs, and the
standard Seifert and chain pictures, with the negative continued
fractions that expand a rational framing (and a surgery coefficient).

The presentation matrix of a rationally framed link has rows indexed by
components: the diagonal entry for component i is the numerator p_i of
its coefficient p_i/q_i, and the off-diagonal (i, j) entry is
q_i * lk(i, j).  Its cokernel is H_1 of the surgered manifold.  Note
the matrix is not symmetric unless every framing is an integer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

from .homology import AbelianGroup, Matrix, cokernel


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or "p" into an exact rational."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"bad surgery coefficient {text!r}") from None


@dataclass(frozen=True)
class NegCF:
    """Negative continued fraction r = c1 - 1/(c2 - 1/(... - 1/ck)),
    every entry at most -2."""

    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.entries or any(c > -2 for c in self.entries):
            raise ValueError("entries of a negative continued fraction are <= -2")

    def value(self) -> Fraction:
        # back-substitute acc = c - 1/acc over integers; every intermediate
        # n/d is already in lowest terms, so no reduction is ever needed
        n, d = self.entries[-1], 1
        for c in reversed(self.entries[:-1]):
            n, d = c * n - d, n
        return Fraction(n, d)

    def display_entries(self) -> tuple[int, ...]:
        """Entries in surgery-instruction form: the leading entry is
        split as (c1 - 1) + 1, reflecting that the first twist block
        starts from the unstabilised page."""
        return (self.entries[0] - 1,) + self.entries[1:]

    def display(self) -> str:
        first, *rest = self.display_entries()
        return "[" + ", ".join([f"{first}+1"] + [str(c) for c in rest]) + "]^-"


def neg_continued_fraction(r: Fraction) -> NegCF:
    """Greedy expansion of r < -1 with all entries <= -2."""
    if r >= -1:
        raise ValueError(f"negative continued fraction needs r < -1, got {r}")
    p, q = r.numerator, r.denominator
    entries = []
    while True:
        c = p // q  # floor
        entries.append(c)
        rem = c * q - p  # c - r scaled by q, lies in (-q, 0]
        if rem == 0:
            break
        p, q = -q, -rem  # r <- 1/(c - r), still in lowest terms
    return NegCF(tuple(entries))


def _pair(a: str, b: str) -> tuple[str, str]:
    return (a, b) if a < b else (b, a)


@dataclass(frozen=True)
class FramedLinkPresentation:
    """Link components with rational framings and pairwise linking
    numbers (absent pairs link zero)."""

    labels: tuple[str, ...]
    coefficients: tuple[Fraction, ...]
    linking: Mapping[tuple[str, str], int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if len(self.labels) != len(self.coefficients):
            raise ValueError("need one coefficient per component")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("component labels must be distinct")
        known = set(self.labels)
        for (a, b), lk in self.linking.items():
            if a == b:
                raise ValueError(f"self-linking of {a!r} is not a link invariant")
            if (a, b) != _pair(a, b):
                raise ValueError(f"store linking under sorted pairs, not ({a}, {b})")
            if a not in known or b not in known:
                raise ValueError(f"linking pair ({a}, {b}) names unknown components")
            if not isinstance(lk, int):
                raise ValueError("linking numbers are integers")

    @classmethod
    def _trusted(cls, labels, coefficients, linking) -> "FramedLinkPresentation":
        """Wrap fields already known to pass ``__post_init__``."""
        link = object.__new__(cls)
        object.__setattr__(link, "labels", labels)
        object.__setattr__(link, "coefficients", coefficients)
        object.__setattr__(link, "linking", linking)
        return link

    def lk(self, a: str, b: str) -> int:
        if a == b:
            return 0
        return self.linking.get(_pair(a, b), 0)


def presentation_matrix(link: FramedLinkPresentation) -> Matrix:
    """Rows p_i on the diagonal, q_i lk(i, j) off it; one pass over the linking."""
    index = {a: i for i, a in enumerate(link.labels)}
    q = [c.denominator for c in link.coefficients]
    rows = [[0] * len(q) for _ in q]
    for (a, b), lk in link.linking.items():
        i, j = index[a], index[b]
        rows[i][j], rows[j][i] = q[i] * lk, q[j] * lk
    for i, c in enumerate(link.coefficients):
        rows[i][i] = c.numerator
    return tuple(map(tuple, rows))


def h1_of_link(link: FramedLinkPresentation) -> AbelianGroup:
    return cokernel(presentation_matrix(link))


def blow_down(link: FramedLinkPresentation, label: str) -> FramedLinkPresentation:
    """Remove a (+-1)-framed unknotted component, absorbing it into the
    framings and linkings of the rest.

    Only components that link the removed one change: framing c_a -
    eps lk_a^2, linking lk_ab - eps lk_a lk_b, where eps is the removed
    framing and lk_a its linking with a; no zero linking is stored.  The
    result is built trusted, as it is a valid presentation whenever
    ``link`` is.
    """
    if label not in link.labels:
        raise ValueError(f"no component labelled {label!r}")
    eps = link.coefficients[link.labels.index(label)]
    if eps not in (1, -1):
        raise ValueError(f"blow-down needs framing +1 or -1, got {eps}")
    eps = int(eps)
    col = {}
    linking = {}
    for (a, b), lk in link.linking.items():
        if a == label:
            col[b] = lk
        elif b == label:
            col[a] = lk
        elif lk:
            linking[a, b] = lk
    labels, coeffs = [], []
    for a, c in zip(link.labels, link.coefficients):
        if a != label:
            labels.append(a)
            coeffs.append(c - eps * col[a] ** 2 if a in col else c)
    linked = [a for a in labels if a in col]
    for i, a in enumerate(linked):
        for b in linked[i + 1:]:
            pair = _pair(a, b)
            lk = linking.get(pair, 0) - eps * col[a] * col[b]
            if lk:
                linking[pair] = lk
            else:
                linking.pop(pair, None)
    return FramedLinkPresentation._trusted(tuple(labels), tuple(coeffs), linking)


@dataclass(frozen=True)
class SeifertData:
    """Small Seifert invariants (e0; r1, r2, r3), each r in (0, 1]."""

    e0: int
    rs: tuple[Fraction, Fraction, Fraction]

    def __post_init__(self) -> None:
        if len(self.rs) != 3 or any(not 0 < r <= 1 for r in self.rs):
            raise ValueError("need three rationals in (0, 1]")


def seifert_presentation(data: SeifertData) -> FramedLinkPresentation:
    """The surgery picture of a small Seifert fibration: an e0-framed
    central unknot and three meridians framed -1/r_i, each linking the
    centre once.

    The meridian framing sign is forced: with r_i = q_i/p_i the first
    homology of M(e0; r1, r2, r3) has order |e0*p1*p2*p3 + sum_i q_i *
    prod_{j!=i} p_j| (so M(-1; 1/2, 1/3, 1/4) gives Z/2), and the
    star-shaped presentation matrix realises that determinant only with
    meridian numerators -p_i; +1/r_i framings would give the order with
    the cross terms subtracted instead (50 in the example).  Built
    trusted: the labels are distinct literals and the pairs sorted.
    """
    labels = ("c0", "c1", "c2", "c3")
    coeffs = (Fraction(data.e0),) + tuple(-1 / r for r in data.rs)
    linking = {("c0", l): 1 for l in labels[1:]}
    return FramedLinkPresentation._trusted(labels, coeffs, linking)


def rational_to_chain(r: Fraction) -> FramedLinkPresentation:
    """The integer chain replacing one r-framed component, r < -1: the
    entries of the negative continued fraction, consecutively linked.
    Built trusted: the labels are distinct and the pairs sorted."""
    entries = neg_continued_fraction(r).entries
    labels = tuple(f"c{i}" for i in range(1, len(entries) + 1))
    coeffs = tuple(Fraction(c) for c in entries)
    linking = {
        _pair(labels[i], labels[i + 1]): 1 for i in range(len(labels) - 1)
    }
    return FramedLinkPresentation._trusted(labels, coeffs, linking)
