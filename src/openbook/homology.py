"""Linear twist actions, Smith normal form, and H1 of an open book.

Everything here is exact integer linear algebra on small matrices (the
rank of a page is 2g + n - 1, which stays in single digits at desk
scale), so matrices are plain tuples of tuples of ints and no numeric
library is involved.

A positive Dehn twist about a curve c acts on the absolute first
homology of the page by the transvection M = I + h q^T, where h is the
class of c and q the vector of pairings of the basis with c.  On the
relative homology H1(page, boundary) it acts by R = I + (J h) p^T with p
the pairings of the relative basis with c, and J the comparison map that
keeps the genus coordinates and kills the boundary ones.  The deviation
D = h p^T measures the failure of the absolute and relative pictures to
agree; it composes by D <- D_head . R_tail + D_tail and its cokernel is
the first homology of the closed manifold of the open book: the genus
columns of D span the image of (phi_* - id) from the Wang sequence of
the mapping torus, and each arc column encodes the meridian-filling
relation of one binding component.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

Matrix = tuple[tuple[int, ...], ...]
Vector = tuple[int, ...]


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
    m = [[Fraction(x) for x in row] for row in a]
    rank = 0
    cols = len(m[0]) if m else 0
    row = 0
    for col in range(cols):
        pivot = next((i for i in range(row, len(m)) if m[i][col] != 0), None)
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        for i in range(row + 1, len(m)):
            if m[i][col] != 0:
                factor = m[i][col] / m[row][col]
                m[i] = [x - factor * y for x, y in zip(m[i], m[row])]
        row += 1
        rank += 1
        if row == len(m):
            break
    return rank


def mat_inverse_unimodular(a: Matrix) -> Matrix:
    """Exact inverse of an integer matrix with determinant +-1."""
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

    The reduction is the classical one: move a smallest-magnitude
    nonzero entry to the pivot, use division with remainder to shrink
    its row and column until it divides both, clear them, and restore
    the divisibility chain at the end by folding offending entries back
    into the pivot.  Exact integer arithmetic throughout.
    """
    m = [list(row) for row in a]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    if any(len(row) != cols for row in m):
        raise ValueError("ragged matrix")
    divisors: list[int] = []
    t = 0
    while t < rows and t < cols:
        pivot = None
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                if m[i][j] != 0 and (best is None or abs(m[i][j]) < best):
                    best = abs(m[i][j])
                    pivot = (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        m[t], m[pi] = m[pi], m[t]
        for row in m:
            row[t], row[pj] = row[pj], row[t]
        while True:
            for i in range(t + 1, rows):
                if m[i][t] != 0:
                    quot = m[i][t] // m[t][t]
                    for j in range(t, cols):
                        m[i][j] -= quot * m[t][j]
            for j in range(t + 1, cols):
                if m[t][j] != 0:
                    quot = m[t][j] // m[t][t]
                    for i in range(t, rows):
                        m[i][j] -= quot * m[i][t]
            if all(m[i][t] == 0 for i in range(t + 1, rows)) and all(
                m[t][j] == 0 for j in range(t + 1, cols)
            ):
                break
            # a smaller remainder appeared somewhere in the pivot row or
            # column; promote it and repeat
            best = abs(m[t][t])
            for i in range(t, rows):
                if m[i][t] != 0 and abs(m[i][t]) < best:
                    best = abs(m[i][t])
                    m[t], m[i] = m[i], m[t]
            for j in range(t, cols):
                if m[t][j] != 0 and abs(m[t][j]) < best:
                    best = abs(m[t][j])
                    for row in m:
                        row[t], row[j] = row[j], row[t]
        divisors.append(abs(m[t][t]))
        t += 1
    # restore the divisibility chain d_i | d_{i+1}
    changed = True
    while changed:
        changed = False
        for i in range(len(divisors) - 1):
            a_, b_ = divisors[i], divisors[i + 1]
            if b_ % a_ != 0:
                g = math.gcd(a_, b_)
                divisors[i], divisors[i + 1] = g, a_ * b_ // g
                changed = True
    return tuple(divisors), len(divisors)


@dataclass(frozen=True)
class AbelianGroup:
    """A finitely generated abelian group in invariant-factor form."""

    free_rank: int
    torsion: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.free_rank < 0:
            raise ValueError("free rank must be nonnegative")
        for d in self.torsion:
            if d < 2:
                raise ValueError("torsion divisors must be >= 2")
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a != 0:
                raise ValueError("torsion divisors must form a divisibility chain")

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


def cokernel(a: Sequence[Sequence[int]], rows: int | None = None) -> AbelianGroup:
    """The cokernel Z^rows / (column space of a) as an AbelianGroup."""
    if rows is None:
        rows = len(a)
    divisors, rank = smith_normal_form(a)
    return AbelianGroup(rows - rank, tuple(d for d in divisors if d > 1))


class LinearTwistData(NamedTuple):
    """The (M, R, D) triple of a twist word: absolute action, relative
    action, and the relative-to-absolute deviation."""

    M: Matrix
    R: Matrix
    D: Matrix

    @property
    def rank(self) -> int:
        return len(self.M)


def twist_data(
    h: Sequence[int],
    q: Sequence[int],
    p: Sequence[int],
    genus: int,
    exponent: int = 1,
) -> LinearTwistData:
    """Linear data of the ``exponent``-th power of the twist about a
    curve with class h and pairing vectors q (absolute) and p (relative).

    The power formula M^e = I + e h q^T is exact because q . h = 0 for
    any curve paired against its own class; that identity is checked
    rather than assumed.
    """
    m = len(h)
    if len(q) != m or len(p) != m:
        raise ValueError("h, q, p must have equal length")
    if exponent == 0:
        raise ValueError("twist exponent must be nonzero")
    if dot(q, h) != 0:
        raise ValueError("q . h must vanish for a twist transvection")
    jh = tuple(h[i] if i < 2 * genus else 0 for i in range(m))
    if dot(p, jh) != 0:
        raise ValueError("p . Jh must vanish for a twist transvection")
    ident = identity_matrix(m)
    return LinearTwistData(
        M=mat_add(ident, scale_matrix(outer(h, q), exponent)),
        R=mat_add(ident, scale_matrix(outer(jh, p), exponent)),
        D=scale_matrix(outer(h, p), exponent),
    )


def compose_linear(items: Sequence[LinearTwistData]) -> LinearTwistData:
    """Compose linear twist data, rightmost item acting first.

    M and R multiply in word order; the deviation folds by
    D <- D_head . R_tail + D_tail, matching the evaluation order of
    twist words.
    """
    if not items:
        raise ValueError("compose_linear needs at least one item; "
                         "use identity_linear for the empty word")
    acc = items[0]
    m = acc.rank
    for item in items[1:]:
        if item.rank != m:
            raise ValueError("matrix dimension mismatch")
        acc = LinearTwistData(
            M=mat_mul(acc.M, item.M),
            R=mat_mul(acc.R, item.R),
            D=mat_add(mat_mul(acc.D, item.R), item.D),
        )
    return acc


def identity_linear(rank: int) -> LinearTwistData:
    ident = identity_matrix(rank)
    return LinearTwistData(M=ident, R=ident, D=zero_matrix(rank))


def invert_linear(data: LinearTwistData) -> LinearTwistData:
    """Linear data of the inverse word: from D_{w^-1 w} = 0 one gets
    D_{w^-1} = -D_w R_w^-1."""
    minv = mat_inverse_unimodular(data.M)
    rinv = mat_inverse_unimodular(data.R)
    return LinearTwistData(
        M=minv,
        R=rinv,
        D=scale_matrix(mat_mul(data.D, rinv), -1),
    )


def h1_of_open_book(ob) -> AbelianGroup:
    """First homology of the closed 3-manifold of an open book.

    ``ob`` needs a ``surface`` (with ``genus`` and ``rank``) and a
    ``word`` whose entries name curves in its catalog; only the (h,q,p)
    pairing data of those curves is used, so linear-only catalogs
    suffice.  The group is the cokernel of the composed deviation
    matrix D of the monodromy word.
    """
    surface = ob.surface
    word = ob.word
    items = []
    for name, exp in word.entries:
        try:
            cfg = word.catalog[name]
        except KeyError:
            raise ValueError(f"no pairing data for curve {name!r}") from None
        items.append(twist_data(cfg.h, cfg.q, cfg.p, surface.genus, exp))
    if not items:
        return cokernel(zero_matrix(surface.rank))
    return cokernel(compose_linear(items).D)
