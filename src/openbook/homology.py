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
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Sequence

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


def append_twist(
    d: Matrix, jh: Sequence[int], h: Sequence[int], p: Sequence[int]
) -> Matrix:
    """D of the word w tau_c from D of w, for the twist tau_c with
    D_c = h p^T: D R_c + D_c = D + (D Jh + h) p^T, a rank-one update.
    Passing e p for p appends tau_c^e instead (exact as p . Jh = 0).
    """
    rows = ((row, hi + sum(map(mul, row, jh))) for row, hi in zip(d, h))
    return tuple(tuple([x + ui * pj for x, pj in zip(row, p)]) if ui else row for row, ui in rows)


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


def h1_of_open_book(ob) -> AbelianGroup:
    """First homology of the closed 3-manifold of an open book.

    ``ob`` needs a ``surface`` (with ``genus`` and ``rank``) and a
    ``word`` whose entries name curves in its catalog; only the (h, p)
    pairing data of those curves is used, so linear-only catalogs
    suffice.  The group is the cokernel of the deviation matrix D of the
    monodromy word, folded one ``append_twist`` per entry.
    """
    surface = ob.surface
    word = ob.word
    g2 = 2 * surface.genus
    d = zero_matrix(surface.rank)
    for name, exp in word.entries:
        try:
            cfg = word.catalog[name]
        except KeyError:
            raise ValueError(f"no pairing data for curve {name!r}") from None
        d = append_twist(d, cfg.h[:g2], cfg.h, tuple(exp * x for x in cfg.p))
    return cokernel(d)
