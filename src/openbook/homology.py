"""Linear twist actions, Smith normal form, and H1 of an open book.

Everything here is exact integer linear algebra on small matrices (the
rank of a page is 2g + n - 1, which stays in single digits at desk
scale), so matrices are plain tuples of tuples of ints and no numeric
library is involved.

A twist word's linear data is one matrix, the deviation D.  For the
twist about a curve c, D_c = h p^T, where h is the class of c and p the
vector of pairings of the relative basis of H1(page, boundary) with c.
Let J be the comparison map that keeps the 2g genus coordinates and
kills the boundary ones.  Every catalog curve has absolute pairings
q = J p, so the twist acts on absolute homology by M = I + h q^T =
I + D J and on relative homology by R = I + (J h) p^T = I + J D.  Both
identities survive composition: words compose by
D_ab = D_a + D_b + D_a J D_b, which is M_a M_b = I + D_ab J, so M and R
are derived from D and never stored.  The cokernel of D is the first
homology of the closed manifold of the open book: the genus columns of
D span the image of (phi_* - id) from the Wang sequence of the mapping
torus, and each arc column encodes the meridian-filling relation of one
binding component.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations
from typing import Sequence

from ._value import Value

Matrix = tuple[tuple[int, ...], ...]
Vector = tuple[int, ...]
# the nonzero entries of a vector as (index, value) pairs
Pairs = tuple[tuple[int, int], ...]


def identity_matrix(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def zero_matrix(n: int) -> Matrix:
    return tuple((0,) * n for _ in range(n))


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if a and b and len(a[0]) != len(b):
        raise ValueError("matrix dimension mismatch")
    bt = tuple(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def scale_matrix(a: Matrix, c: int) -> Matrix:
    return tuple(tuple(c * x for x in row) for row in a)


def outer(u: Sequence[int], v: Sequence[int]) -> Matrix:
    return tuple(tuple(x * y for y in v) for x in u)


def dot(u: Sequence[int], v: Sequence[int]) -> int:
    return sum(x * y for x, y in zip(u, v))


def j_matrix(genus: int, rank: int) -> Matrix:
    """The absolute-to-relative comparison map: identity on the 2g genus
    coordinates, zero on the boundary/arc coordinates."""
    return tuple(
        tuple(1 if i == j and i < 2 * genus else 0 for j in range(rank))
        for i in range(rank)
    )


def matrix_rank(a: Sequence[Sequence[int]]) -> int:
    """Rank over the rationals, by fraction-free elimination."""
    m = [list(row) for row in a]
    rank = 0
    cols = len(m[0]) if m else 0
    for col in range(cols):
        pivot = next((i for i in range(rank, len(m)) if m[i][col] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        p = m[rank][col]
        for i in range(rank + 1, len(m)):
            f = m[i][col]
            if f != 0:
                m[i] = [p * x - f * y for x, y in zip(m[i], m[rank])]
        rank += 1
        if rank == len(m):
            break
    return rank


def mat_inverse_unimodular(a: Matrix) -> Matrix:
    """Exact inverse of an integer matrix with determinant +-1."""
    from fractions import Fraction

    n = len(a)
    m = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(a)]
    for col in range(n):
        pivot = next((i for i in range(col, n) if m[i][col] != 0), None)
        if pivot is None:
            raise ValueError("matrix is singular")
        m[col], m[pivot] = m[pivot], m[col]
        inv = 1 / m[col][col]
        m[col] = [x * inv for x in m[col]]
        for i in range(n):
            if i != col and m[i][col] != 0:
                factor = m[i][col]
                m[i] = [x - factor * y for x, y in zip(m[i], m[col])]
    out = tuple(tuple(m[i][n + j] for j in range(n)) for i in range(n))
    for i in range(n):
        for j in range(n):
            if m[i][n + j].denominator != 1:
                raise ValueError("matrix is not unimodular")
    return tuple(tuple(int(x) for x in row) for row in out)


def smith_normal_form(a: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], int]:
    """Elementary divisors of an integer matrix.

    Args:
        a: any integer matrix (rows of equal length; may be empty).

    Returns:
        A pair ``(divisors, rank)`` where ``divisors`` are the diagonal
        entries d_1 | d_2 | ... | d_rank of the Smith normal form, all
        positive, and ``rank`` is the rank of the matrix.

    While more than two nonzero rows are left, and not 3x3, a pass
    clears a unit's column and drops it in one go, counting the unit.
    With no unit it pivots on a least entry p: it reduces p's column by
    floor quotients, then, once that column is clean, p's row mod p
    (which changes no other row).  If both are clean, |p| splits off
    with its row and column; else a smaller remainder is the next
    pivot.  The tail's determinantal divisors (Cohen, GTM 138, 2.4.4)
    give the rest: d_1 = gcd of its entries, d_1 d_2 = gcd of its 2x2
    minors and, for a 3x3 tail, d_1 d_2 d_3 = |det|, its nine minors
    written out; the first zero one ends the rank.  A
    gcd/lcm fold over the non-unit divisors restores d_i | d_{i+1}.
    """
    cols = len(a[0]) if a else 0
    if any(len(row) != cols for row in a):
        raise ValueError("ragged matrix")
    m = [list(row) for row in a if any(row)]
    units = 0
    divisors: list[int] = []
    while len(m) > 3 or len(m) == 3 and cols != 3:
        for row in m:
            if 1 in row or -1 in row:
                p = 1 if 1 in row else -1
                j = row.index(p)
                rest = []
                for other in m:
                    if other is not row:
                        c = other[j] * p
                        if c:
                            other = [x - c * y for x, y in zip(other, row)]
                        del other[j]
                        if any(other):
                            rest.append(other)
                units += 1
                cols -= 1
                break
        else:
            p = min(min(map(abs, filter(None, row))) for row in m)
            row = next(row for row in m if p in row or -p in row)
            p = p if p in row else -p
            j = row.index(p)
            rest = []
            clean = True
            for other in m:
                if other is not row:
                    if other[j]:
                        q = other[j] // p
                        other = [x - q * y for x, y in zip(other, row)]
                        if other[j]:
                            clean = False
                        elif not any(other):
                            continue
                    rest.append(other)
            if clean and not any(x % p for x in row):
                divisors.append(abs(p))
                for other in rest:
                    del other[j]
                cols -= 1
            else:
                if clean:
                    row = [x % p for x in row]
                    row[j] = p
                rest.append(row)
        m = rest
    # the determinantal divisors of the tail: d_1, d_1 d_2, d_1 d_2 d_3
    if len(m) == 3:
        (a1, a2, a3), (b1, b2, b3), (c1, c2, c3) = m
        m1, m2, m3 = b2 * c3 - b3 * c2, b1 * c3 - b3 * c1, b1 * c2 - b2 * c1
        minors = (m1, m2, m3, a2 * c3 - a3 * c2, a1 * c3 - a3 * c1, a1 * c2 - a2 * c1,
                  a2 * b3 - a3 * b2, a1 * b3 - a3 * b1, a1 * b2 - a2 * b1)
        tail = (math.gcd(*m[0], *m[1], *m[2]), math.gcd(*minors), abs(a1 * m1 - a2 * m2 + a3 * m3))
    elif len(m) == 2:
        minors = [x * w - y * z for (x, z), (y, w) in combinations(zip(*m), 2)]
        tail = (math.gcd(*m[0], *m[1]), math.gcd(*minors))
    else:
        tail = (math.gcd(*m[0]),) if m else ()
    for lo, hi in zip((1,) + tail, tail):
        if not hi:
            break
        if hi == lo:
            units += 1
        else:
            divisors.append(hi // lo)
    # restore the divisibility chain d_i | d_{i+1}
    for i in range(len(divisors)):
        for k in range(i + 1, len(divisors)):
            g = math.gcd(divisors[i], divisors[k])
            divisors[i], divisors[k] = g, divisors[i] * divisors[k] // g
    return (1,) * units + tuple(divisors), units + len(divisors)


class AbelianGroup(Value):
    """A finitely generated abelian group in invariant-factor form."""

    free_rank: int
    torsion: tuple[int, ...]

    def __init__(self, free_rank, torsion) -> None:
        object.__setattr__(self, "free_rank", free_rank)
        object.__setattr__(self, "torsion", torsion)
        self.__post_init__()

    def __post_init__(self) -> None:
        if self.free_rank < 0:
            raise ValueError("free rank must be nonnegative")
        for d in self.torsion:
            if d < 2:
                raise ValueError("torsion divisors must be >= 2")
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a != 0:
                raise ValueError("torsion divisors must form a divisibility chain")

    @classmethod
    def _trusted(cls, free_rank: int, torsion: tuple[int, ...]) -> "AbelianGroup":
        """Wrap fields already known to pass ``__post_init__``."""
        group = object.__new__(cls)
        object.__setattr__(group, "free_rank", free_rank)
        object.__setattr__(group, "torsion", torsion)
        return group

    @property
    def order(self) -> int | None:
        """Group order, or None if infinite."""
        if self.free_rank:
            return None
        result = 1
        for d in self.torsion:
            result *= d
        return result

    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def __str__(self) -> str:
        parts = ["Z"] * self.free_rank + [f"Z/{d}" for d in self.torsion]
        return " + ".join(parts) if parts else "0"


def cokernel(a: Sequence[Sequence[int]]) -> AbelianGroup:
    """The cokernel Z^m / (column space of a), m the number of rows of a
    (an m x 0 map is m empty rows), as an AbelianGroup built trusted:
    Smith-form divisors already form a chain, and the rank is at most m."""
    divisors, rank = smith_normal_form(a)
    return AbelianGroup._trusted(len(a) - rank, divisors[divisors.count(1):])


def twist_data(
    h: Sequence[int],
    p: Sequence[int],
    genus: int,
    exponent: int = 1,
) -> Matrix:
    """D = e h p^T of the ``exponent``-th power e of the twist about a
    curve with class h and relative pairing vector p.

    The power formula is exact because p . Jh = 0 for any curve paired
    against its own class (with q = J p that is q . h = 0); the identity
    is checked rather than assumed.
    """
    m = len(h)
    if len(p) != m:
        raise ValueError("h and p must have equal length")
    if exponent == 0:
        raise ValueError("twist exponent must be nonzero")
    if dot(p, h[:2 * genus]) != 0:
        raise ValueError("p . Jh must vanish for a twist transvection")
    return scale_matrix(outer(h, p), exponent)


def nonzero(v: Sequence[int], scale: int = 1) -> Pairs:
    """The nonzero entries of ``scale`` v as (index, value) pairs."""
    return tuple((i, scale * x) for i, x in enumerate(v) if x)


def append_twist(d: Matrix, jh: Pairs, h: Sequence[int], p: Pairs) -> Matrix:
    """D of the word w tau_c from D of w, for the twist tau_c with
    D_c = h p^T: D R_c + D_c = D + (D Jh + h) p^T, a rank-one update.

    Jh and p come as their ``nonzero`` pairs, so a row costs only the
    coordinates where they are nonzero, and a row with D_i Jh + h_i = 0
    is shared, not copied.  Passing e p for p appends tau_c^e instead
    (exact as p . Jh = 0).
    """
    out = []
    for row, u in zip(d, h):
        for j, x in jh:
            u += row[j] * x
        if u:
            row = list(row)
            for j, x in p:
                row[j] += u * x
            row = tuple(row)
        out.append(row)
    return tuple(out)


def compose_linear(items: Sequence[Matrix], genus: int) -> Matrix:
    """Compose deviation matrices, rightmost item acting first.

    Folds D <- D + D_item + D J D_item, one product per item; J D_item
    is the first 2g rows of D_item.  A zero matrix stands for the empty
    word.
    """
    if not items:
        raise ValueError("compose_linear needs at least one item; "
                         "a zero matrix stands for the empty word")
    acc = items[0]
    for item in items[1:]:
        if len(item) != len(acc):
            raise ValueError("matrix dimension mismatch")
        jd = item[:2 * genus]
        acc = tuple(
            tuple(
                x + y + sum(a * jd_row[k] for a, jd_row in zip(row, jd))
                for k, (x, y) in enumerate(zip(row, item_row))
            )
            for row, item_row in zip(acc, item)
        )
    return acc


def invert_linear(d: Matrix, genus: int) -> Matrix:
    """D of the inverse word: from D_{w^-1 w} = D_{w^-1} R_w + D_w = 0
    one gets D_{w^-1} = -D_w R_w^-1, with R_w = I + J D_w."""
    m = len(d)
    r = mat_add(identity_matrix(m), mat_mul(j_matrix(genus, m), d))
    return scale_matrix(mat_mul(d, mat_inverse_unimodular(r)), -1)


@lru_cache(maxsize=1024)
def twist_pairs(h: Vector, p: Vector, genus: int) -> tuple[Pairs, Pairs]:
    """Jh and p of a curve as ``nonzero`` pairs, unscaled; memoised by
    value, as surgery builds new curve objects with the same data."""
    return nonzero(h[:2 * genus]), nonzero(p)


def deviation(surface, twists) -> Matrix:
    """D of the word whose (curve, exponent) factors are ``twists``,
    rightmost acting first; ``surface`` needs ``genus`` and ``rank``.

    Folded in place in one list of rows, one rank-one update
    D + e (D Jh + h) p^T per entry c^e (``append_twist``, exact as
    p . Jh = 0), with Jh and p from the ``twist_pairs`` memo; only the
    (h, p) pairing data of the curves is read.
    """
    genus = surface.genus
    d = [[0] * surface.rank for _ in range(surface.rank)]
    for cfg, exp in twists:
        h = cfg.h
        jh, p = twist_pairs(h, cfg.p, genus)
        for row, u in zip(d, h):
            for j, x in jh:
                u += row[j] * x
            if u:
                u *= exp
                for j, x in p:
                    row[j] += u * x
    return tuple(map(tuple, d))


def h1_of_open_book(ob) -> AbelianGroup:
    """First homology of the closed 3-manifold of an open book.

    ``ob`` needs a ``surface`` (with ``genus`` and ``rank``) and a
    ``word`` whose entries name curves in its catalog; only the (h, p)
    pairing data of those curves is used, so linear-only catalogs
    suffice.  The group is the cokernel of the ``deviation`` D of the
    monodromy word.
    """
    word = ob.word
    try:
        twists = [(word.catalog[name], exp) for name, exp in word.entries]
    except KeyError as missing:
        raise ValueError(f"no pairing data for curve {missing.args[0]!r}") from None
    return cokernel(deviation(ob.surface, twists))
