"""Twist words and their mapping classes.

A twist word is a finite product of (powers of) Dehn twists about
catalog curves; the rightmost letter acts first, matching functional
composition.  A word evaluates to its mapping class, which stores only
the word's (curve, exponent) factors; each invariant is derived from
them on first read, and kept.  The deviation D always exists, folded by
``homology.deviation``, the fold ``h1_of_open_book`` uses, and the
homology actions M = I + D J and R = I + J D derive from it (see
``homology``).  phi is the automorphism of pi_1 induced on the page,
built as free-group images only when ``MappingClass.exact`` is read;
rho o phi reads each twist's images through Sanov's rho, and is None
when a curve in the word has no automorphism.

Equality of mapping classes is decided on the class key (rho o phi, D),
so on (phi, D), as Sanov's rho is injective; D is compared first, and
rho o phi is folded only when the two D agree.  phi alone is not
faithful on a page with several boundary components: a twist about a
curve parallel to a non-basepoint boundary component acts trivially on
pi_1 (its based representative can be pushed off every generator), yet
is a nontrivial mapping class.  D separates exactly those twists - its
arc columns record them - so the pair is a complete invariant for the
boundary-fixing mapping class group.
"""

from __future__ import annotations

import re
from functools import cached_property, reduce
from typing import Iterable, Iterator, Mapping

from ._value import Value
from .freegroup import FreeAutomorphism, compose, sanov_basis, sanov_substitute
from .homology import Matrix, deviation, identity_matrix, j_matrix, mat_add, mat_mul
from .surface import RELATION_PATTERNS, CurveConfig, SurfaceSpec, pair_relation

_TOKEN = re.compile(r"^([A-Za-z][A-Za-z0-9]*)(?:\^(-?\d+))?$")

Entries = tuple[tuple[str, int], ...]


def _normalize(entries: Iterable[tuple[str, int]]) -> Entries:
    out: list[tuple[str, int]] = []
    for name, exp in entries:
        if exp == 0:
            continue
        if out and out[-1][0] == name:
            merged = out[-1][1] + exp
            out.pop()
            if merged:
                out.append((name, merged))
        else:
            out.append((name, exp))
    return tuple(out)


class TwistWord(Value):
    """A normalized word in the twists of a surface catalog."""

    surface: SurfaceSpec
    catalog: Mapping[str, CurveConfig]
    entries: Entries

    def __init__(self, surface, catalog, entries) -> None:
        object.__setattr__(self, "surface", surface)
        object.__setattr__(self, "catalog", catalog)
        object.__setattr__(self, "entries", entries)
        self.__post_init__()

    def __post_init__(self) -> None:
        entries = _normalize(self.entries)
        for name, exp in entries:
            if name not in self.catalog:
                raise ValueError(f"unknown curve {name!r} in word")
            if not isinstance(exp, int):
                raise ValueError(f"exponent of {name} must be an integer")
        object.__setattr__(self, "entries", entries)

    @classmethod
    def parse(
        cls,
        surface: SurfaceSpec,
        catalog: Mapping[str, CurveConfig],
        text: str,
    ) -> "TwistWord":
        """Parse the word grammar: TOKEN := NAME | NAME^INT, whitespace
        separated; e.g. "a b g^-1 d1 d2^4"."""
        entries = []
        for token in text.split():
            match = _TOKEN.match(token)
            if match is None:
                raise ValueError(f"bad token {token!r} in word")
            name, exp = match.group(1), match.group(2)
            entries.append((name, int(exp) if exp is not None else 1))
        return cls(surface, catalog, tuple(entries))

    def render(self) -> str:
        parts = [
            name if exp == 1 else f"{name}^{exp}" for name, exp in self.entries
        ]
        return " ".join(parts)

    def __str__(self) -> str:
        return self.render()

    def expanded(self) -> Entries:
        """The word as single-exponent letters (name, +-1)."""
        out: list[tuple[str, int]] = []
        for name, exp in self.entries:
            out += [(name, 1 if exp > 0 else -1)] * abs(exp)
        return tuple(out)

    @property
    def length(self) -> int:
        return sum(abs(e) for _, e in self.entries)

    def is_positive(self) -> bool:
        return all(e > 0 for _, e in self.entries)

    def __mul__(self, other: "TwistWord") -> "TwistWord":
        if self.surface != other.surface:
            raise ValueError("words live on different surfaces")
        return TwistWord(self.surface, self.catalog, self.entries + other.entries)

    def inverse(self) -> "TwistWord":
        return TwistWord(
            self.surface,
            self.catalog,
            tuple((n, -e) for n, e in reversed(self.entries)),
        )


class MappingClass(Value):
    """A mapping class as the (curve, exponent) factors of its word,
    rightmost acting first; every invariant is derived from them when
    first read, and kept.

    ``==`` is identity: exact equality is ``equal_classes``.  Without
    rho o phi, D alone is a necessary invariant only, and
    ``equal_classes`` refuses to run on it.
    """

    surface: SurfaceSpec
    twists: tuple[tuple[CurveConfig, int], ...]

    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, surface, twists) -> None:
        object.__setattr__(self, "surface", surface)
        object.__setattr__(self, "twists", twists)

    @cached_property
    def D(self) -> Matrix:
        """The deviation, folded from the factors (``homology.deviation``)."""
        return deviation(self.surface, self.twists)

    @property
    def M(self) -> Matrix:
        """The action on absolute homology, I + D J (exact because
        q = J p for every curve, a check of ``validate_catalog``)."""
        rank = self.surface.rank
        return mat_add(
            identity_matrix(rank), mat_mul(self.D, j_matrix(self.surface.genus, rank))
        )

    @property
    def linear_only(self) -> bool:
        return any(cfg.aut is None for cfg, _ in self.twists)

    @cached_property
    def rho(self) -> tuple | None:
        """rho o phi on the generators; None when linear only.

        An entry c^e reads the images of tau_c^+-1 through rho |e|
        times, so no power of tau_c is built.
        """
        if self.linear_only:
            return None
        rho = sanov_basis(self.surface.rank)
        for cfg, exp in self.twists:
            images = cfg.aut.images if exp > 0 else cfg.aut.inverse_images
            for _ in range(abs(exp)):
                rho = sanov_substitute(rho, images)
        return rho

    @property
    def key(self) -> tuple:
        """The class key (rho o phi, D) (``surface.right_compose``)."""
        return self.rho, self.D

    @cached_property
    def exact(self) -> FreeAutomorphism | None:
        """phi, composed from the twists on first read; None when linear only."""
        if self.linear_only:
            return None
        auts = (cfg.aut ** exp for cfg, exp in self.twists)
        return reduce(compose, auts, FreeAutomorphism.identity(self.surface.rank))


def evaluate(word: TwistWord) -> MappingClass:
    """The class of a word, its factors looked up in the word's catalog."""
    return MappingClass(
        word.surface, tuple((word.catalog[name], exp) for name, exp in word.entries)
    )


def equal_classes(a: MappingClass, b: MappingClass) -> bool:
    """Exact equality of mapping classes, decided on the class keys; see
    the module docstring for why both of their parts are needed.  D is
    compared first, and rho o phi is read only when the two D agree."""
    if a.surface != b.surface:
        raise ValueError("cannot compare classes on different surfaces")
    if a.linear_only or b.linear_only:
        raise ValueError(
            "equality undecidable from linear data alone; "
            "the word involves a curve without an exact automorphism"
        )
    return a.D == b.D and a.rho == b.rho


def boundary_exponent_delta(word: TwistWord, i: int, j: int) -> int:
    """Total signed exponent of twists parallel to boundary i minus the
    same count for boundary j, counted on the word.

    It agrees with (cap_i - cap_j) / 12 (``surface.curve_weights``) only
    where no separating curve but a boundary-parallel one splits i from
    j: on Sigma_{1,3} the lantern relation d2 d3 a n = g3 n1 n2 (a, n,
    n1, n2 nonseparating) moves the count for (2, 1) from 1 to 0 and
    keeps every weight.
    """
    counts = {i: 0, j: 0}
    if not counts.keys() <= {c.boundary_parallel_to for c in word.catalog.values()}:
        raise ValueError(f"no boundary-parallel curve for component {i} or {j}")
    for name, exp in word.entries:
        bpt = word.catalog[name].boundary_parallel_to
        if bpt in counts:
            counts[bpt] += exp
    return counts[i] - counts[j]


_MOVES = ("braid", "commute", "chain", "lantern")

# both sides of each ``surface.RELATION_PATTERNS`` identity as expanded letters
_PATTERNS = {
    key: tuple(tuple((name, 1) for name in side) for side in pattern)
    for key, pattern in RELATION_PATTERNS.items()
}


def _matches(
    word: TwistWord, exp: Entries, positions: range, moves: tuple[str, ...]
) -> Iterator[tuple[str, int, str, int, Entries]]:
    """Each match of a move in ``moves`` at a position in ``positions``
    of the expanded word ``exp``, as (move, position, direction, width,
    replacement), ``exp[position:position + width]`` rewriting to
    ``replacement``; in ``_MOVES`` order, then by position, chain and
    lantern forward before backward.  Braid and commute are their own
    inverses and match forward only.
    """
    genus, catalog, size = word.surface.genus, word.catalog, len(exp)
    start, stop = max(positions.start, 0), positions.stop
    if "braid" in moves:
        for i in range(start, min(stop, size - 2)):
            (u, eu), (v, ev), (u2, eu2) = exp[i:i + 3]
            # a curve commutes with itself, so a braid pair is two curves
            if (u == u2 and eu == ev == eu2 == 1
                    and pair_relation(genus, catalog[u], catalog[v]) == "braid"):
                yield "braid", i, "forward", 3, ((v, 1), (u, 1), (v, 1))
    if "commute" in moves:
        for i in range(start, min(stop, size - 1)):
            (u, eu), (v, ev) = exp[i:i + 2]
            if u != v and pair_relation(genus, catalog[u], catalog[v]) == "commute":
                yield "commute", i, "forward", 2, ((v, ev), (u, eu))
    for move in ("chain", "lantern"):
        if move not in moves or (word.surface.name, move) not in _PATTERNS:
            continue
        lhs, rhs = _PATTERNS[word.surface.name, move]
        for direction, src, dst in (("forward", lhs, rhs), ("backward", rhs, lhs)):
            width = len(src)
            for i in range(start, min(stop, size - width + 1)):
                if exp[i:i + width] == src:
                    yield move, i, direction, width, dst


def apply_relation(
    word: TwistWord,
    move: str,
    position: int,
    direction: str = "forward",
) -> TwistWord:
    """Rewrite a word by one relation move at a position.

    Positions index the exponent-expanded letter sequence.  The match
    rules live in ``_matches``, which ``applicable_moves`` shares: braid
    and commute pairs come from ``surface.pair_relation`` on the word's
    catalog and ignore the direction, chain and lantern from
    ``surface.RELATION_PATTERNS``; the rewritten word evaluates to the
    same mapping class.
    """
    if move not in _MOVES:
        raise ValueError(f"unknown move {move!r}")
    if direction not in ("forward", "backward"):
        raise ValueError(f"unknown direction {direction!r}")
    if move in ("braid", "commute"):
        direction = "forward"
    elif (word.surface.name, move) not in _PATTERNS:
        raise ValueError(f"surface {word.surface.name} has no {move} relation")
    exp = word.expanded()
    for _, _, found, width, replacement in _matches(
        word, exp, range(position, position + 1), (move,)
    ):
        if found == direction:
            rewritten = exp[:position] + replacement + exp[position + width:]
            return TwistWord(word.surface, word.catalog, rewritten)
    raise ValueError(f"{move} pattern does not match at position {position}")


def applicable_moves(word: TwistWord) -> tuple[tuple[str, int, str], ...]:
    """All (move, position, direction) triples that apply_relation would
    accept on this word, braid and commute as forward only, in
    deterministic order (see ``_matches``)."""
    exp = word.expanded()
    return tuple(match[:3] for match in _matches(word, exp, range(len(exp)), _MOVES))

