"""Reference computations the benchmark checks the program against.

Standard library only, and none of openbook's arithmetic: the only thing
read from the program is catalog data (generator images, h, q, p and the
boundary-parallel marks).  Each function states the fact it computes.
"""

from __future__ import annotations

import math
from fractions import Fraction


# -- free groups ---------------------------------------------------------

def substitute(images, word):
    """Image of ``word`` under x_k -> images[k-1], freely reduced."""
    out = []
    for letter in word:
        image = images[letter - 1] if letter > 0 else [-x for x in reversed(images[-letter - 1])]
        for x in image:
            if out and out[-1] == -x:
                out.pop()
            else:
                out.append(x)
    return tuple(out)


class Page:
    """The catalog data of one page, copied out of the program's objects."""

    def __init__(self, spec, catalog):
        self.genus = spec.genus
        self.boundary = spec.boundary
        self.rank = spec.rank
        self.curves = {}
        for name, cfg in catalog.items():
            aut = cfg.aut
            self.curves[name] = {
                "h": tuple(cfg.h),
                "q": tuple(cfg.q),
                "p": tuple(cfg.p),
                "parallel": cfg.boundary_parallel_to,
                "images": None if aut is None else tuple(tuple(w) for w in aut.images),
                "inverse": None if aut is None else tuple(tuple(w) for w in aut.inverse_images),
            }

    def deviation(self, entries):
        """The deviation matrix D of a twist word.

        Appending the e-th power of the twist about c to a word changes
        D to D + e (D Jh + h) p^T: that is D_word R_c + D_c written out
        with R_c = I + e Jh p^T and D_c = e h p^T.
        """
        m, g2 = self.rank, 2 * self.genus
        d = [[0] * m for _ in range(m)]
        for name, e in entries:
            c = self.curves[name]
            h, p = c["h"], c["p"]
            col = [
                e * (sum(d[i][k] * h[k] for k in range(g2)) + h[i]) for i in range(m)
            ]
            for i in range(m):
                if col[i]:
                    row = d[i]
                    for j in range(m):
                        row[j] += col[i] * p[j]
        return tuple(tuple(row) for row in d)

    def images(self, entries):
        """Generator images of the automorphism of a twist word, the
        rightmost twist acting first."""
        acc = tuple((k + 1,) for k in range(self.rank))
        for name, e in entries:
            c = self.curves[name]
            table = c["images"] if e > 0 else c["inverse"]
            if table is None:
                raise ValueError(f"curve {name} carries no automorphism")
            for _ in range(abs(e)):
                acc = tuple(substitute(acc, w) for w in table)
        return acc

    def mapping_class(self, entries):
        return self.images(entries), self.deviation(entries)

    def parallel_delta(self, entries, i, j):
        """Signed count of twists parallel to boundary i minus boundary j."""
        total = 0
        for name, e in entries:
            mark = self.curves[name]["parallel"]
            total += e if mark == i else -e if mark == j else 0
        return total


# -- integer linear algebra ----------------------------------------------

def determinant(matrix):
    """Exact determinant by Gaussian elimination over the rationals."""
    m = [[Fraction(x) for x in row] for row in matrix]
    n = len(m)
    result = Fraction(1)
    for col in range(n):
        pivot = next((i for i in range(col, n) if m[i][col]), None)
        if pivot is None:
            return 0
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            result = -result
        result *= m[col][col]
        for i in range(col + 1, n):
            if m[i][col]:
                f = m[i][col] / m[col][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[col])]
    return int(result)


def _xgcd(a, b):
    """(g, s, t) with s*a + t*b = g = gcd(a, b) >= 0."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        quot, rem = divmod(a, b)
        a, b = b, rem
        s0, s1 = s1, s0 - quot * s1
        t0, t1 = t1, t0 - quot * t1
    if a < 0:
        a, s0, t0 = -a, -s0, -t0
    return a, s0, t0


def cokernel(matrix, rows=None):
    """Z^rows modulo the column span of an integer matrix, as
    (free rank, invariant factors > 1).

    Diagonalises with unimodular row and column operations, using a
    Bezout combination wherever the pivot does not divide an entry, so
    that the pivot shrinks until it divides its whole row and column.
    The diagonal then becomes a divisibility chain by replacing each
    pair (a, b) with (gcd, lcm).
    """
    m = [list(row) for row in matrix]
    n_rows = len(m) if rows is None else rows
    n_cols = len(m[0]) if m else 0
    diagonal = []
    t = 0
    while t < len(m) and t < n_cols:
        spot = next(
            ((i, j) for j in range(t, n_cols) for i in range(t, len(m)) if m[i][j]),
            None,
        )
        if spot is None:
            break
        i0, j0 = spot
        m[t], m[i0] = m[i0], m[t]
        for row in m:
            row[t], row[j0] = row[j0], row[t]
        while True:
            for i in range(t + 1, len(m)):
                if m[i][t] % m[t][t] == 0:
                    f = m[i][t] // m[t][t]
                    m[i] = [y - f * x for x, y in zip(m[t], m[i])]
                elif m[i][t]:
                    g, s, u = _xgcd(m[t][t], m[i][t])
                    a, b = m[t][t] // g, m[i][t] // g
                    top, low = m[t], m[i]
                    m[t] = [s * x + u * y for x, y in zip(top, low)]
                    m[i] = [-b * x + a * y for x, y in zip(top, low)]
            for j in range(t + 1, n_cols):
                if m[t][j] % m[t][t] == 0:
                    f = m[t][j] // m[t][t]
                    for row in m:
                        row[j] -= f * row[t]
                elif m[t][j]:
                    g, s, u = _xgcd(m[t][t], m[t][j])
                    a, b = m[t][t] // g, m[t][j] // g
                    for row in m:
                        x, y = row[t], row[j]
                        row[t], row[j] = s * x + u * y, -b * x + a * y
            if all(m[i][t] == 0 for i in range(t + 1, len(m))):
                break
        diagonal.append(abs(m[t][t]))
        t += 1
    for i in range(len(diagonal)):
        for j in range(i + 1, len(diagonal)):
            a, b = diagonal[i], diagonal[j]
            g = math.gcd(a, b)
            diagonal[i], diagonal[j] = g, a * b // g
    return n_rows - len(diagonal), tuple(d for d in diagonal if d > 1)


def group_text(free_rank, torsion):
    """The program's rendering of an abelian group, e.g. ``Z + Z/2``."""
    parts = ["Z"] * free_rank + [f"Z/{d}" for d in torsion]
    return " + ".join(parts) if parts else "0"


def group_of(program_group):
    return program_group.free_rank, tuple(program_group.torsion)


# -- surgery and links ---------------------------------------------------

def neg_cf(r):
    """Entries c_1, ..., c_k <= -2 with r = c_1 - 1/(c_2 - 1/(... c_k))."""
    r = Fraction(r)
    if r >= -1:
        raise ValueError("needs r < -1")
    out = []
    while True:
        c = math.floor(r)
        out.append(c)
        if r == c:
            return tuple(out)
        r = 1 / (c - r)


def stabilisations(r):
    """Positive stabilisations the surgery construction spends on r: the
    first block costs -c_1 - 1, every later block -c_i - 2.  For r > 0,
    n = floor(q/p) + 1 negative boundary twists first turn r into
    p/(q - n p)."""
    r = Fraction(r)
    if r > 0:
        p, q = r.numerator, r.denominator
        n = q // p + 1
        r = Fraction(p, q - n * p)
    entries = neg_cf(r)
    return -entries[0] - 1 + sum(-c - 2 for c in entries[1:])


def link_matrix(labels, coefficients, linking):
    """Presentation matrix of a rationally framed link: p_i on the
    diagonal, q_i lk(i, j) off it."""
    rows = []
    for a in labels:
        c = Fraction(coefficients[a])
        row = []
        for b in labels:
            if a == b:
                row.append(c.numerator)
            else:
                row.append(c.denominator * linking.get(frozenset((a, b)), 0))
        rows.append(row)
    return rows


def seifert_order(e0, rs):
    """|e0 p1 p2 p3 + sum_i q_i prod_{j != i} p_j| for r_i = q_i / p_i."""
    ps = [Fraction(r).denominator for r in rs]
    qs = [Fraction(r).numerator for r in rs]
    total = e0 * ps[0] * ps[1] * ps[2]
    for i in range(3):
        total += qs[i] * math.prod(ps[j] for j in range(3) if j != i)
    return abs(total)
