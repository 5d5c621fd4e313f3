"""Derive the two partition-curve twists on the twice-holed torus.

The builtin curve table for the genus-1, two-boundary surface carries
nine twists.  Seven of them (a, b, g, d1, d2, e, s1) have automorphisms
that can be written down directly; the remaining two partition curves of
the four-holed sphere obtained by cutting along e need care, because the
insertion bookkeeping at their crossings is easy to get wrong by hand.

This script derives them instead of guessing them.  Cutting along e
turns the surface into a four-holed sphere whose fundamental group is
free on loops v1, v2, v3 around the inner holes; full twists about
pair-of-holes curves there are conjugates of squared Artin generators,
whose action on v1, v2, v3 is classical and mechanical.  Transporting
through the embedding determines each candidate twist on x and z and on
the subgroup element y x^-1 y^-1; the image of y itself is then pinned
down by solving a conjugacy equation (unique up to the centralizer of
the image of x, and the remaining power is fixed by the required
transvection on homology).

Every derived twist is then checked against constraints that hold for
any correct convention:

  C0  a twist fixes the based word of its own curve
  C1  the abelianisation is the transvection I + h q^T of the curve data
  C2  every twist fixes the basepoint boundary word b1 exactly
  C3  the four-holed-sphere relation d1 d2 e e = s1 s2 s3 holds on the
      nose as automorphisms (rightmost factor acts first)
  C5  the conjugator of b2 = z in the image matches the z-arc column of
      the twist's variation matrix modulo the class of the second
      boundary (mapping-torus section transport)

If several (handedness, curve-variant, ordering) combinations survive
C3, the lexicographically least is the one frozen into openbook.surface.

The script also re-verifies, at automorphism level, the relations the
package uses as rewriting moves (braid pairs, commuting pairs, the
twelve-letter chain identity, the boundary-word behaviour).
openbook.surface.pair_relation derives the braid and commute pairs from
the catalog's class keys; on the builtin pages they equal the ones
printed here.
"""

from __future__ import annotations

import itertools
import sys
from typing import Sequence

from openbook.freegroup import (
    FreeAutomorphism,
    apply_images,
    compose,
    concat,
    exponent_sums,
    invert_letters,
    reduce_letters,
)

RANK = 3  # pi_1 of the twice-holed torus: x=1, y=2, z=3

X, Y, Z = (1,), (2,), (3,)
B1 = (1, 2, -1, -2, -3)  # basepoint boundary word [x,y] z^-1
B2 = (3,)
G_WORD = (1, 2, -1, -2)  # separating curve bounding the genus

# loops of the four-holed sphere cut out by e (a parallel copy of a):
# v1 v2 v3 = b1, with v1 ~ one copy of e, v2 ~ the other, v3 ~ b2^-1
V1 = (1,)
V2 = (2, -1, -2)
V3 = (-3,)

IDENTITY = FreeAutomorphism.identity(RANK)


def inner(word: Sequence[int]) -> FreeAutomorphism:
    return FreeAutomorphism.inner(RANK, word)


def aut(images, inverse_images) -> FreeAutomorphism:
    return FreeAutomorphism(RANK, images, inverse_images)


# ---------------------------------------------------------------------------
# the seven known twists
# ---------------------------------------------------------------------------

AUT_A = aut([(1,), (2, 1), (3,)], [(1,), (2, -1), (3,)])
AUT_B = aut([(1, -2), (2,), (3,)], [(1, 2), (2,), (3,)])
AUT_G = aut(
    [concat(invert_letters(G_WORD), X, G_WORD),
     concat(invert_letters(G_WORD), Y, G_WORD),
     Z],
    [concat(G_WORD, X, invert_letters(G_WORD)),
     concat(G_WORD, Y, invert_letters(G_WORD)),
     Z],
)
AUT_D2 = IDENTITY
AUT_E = AUT_A  # e is a parallel copy of a

# curve data (h, q, p) in basis x, y, z2 / jx, jy, A2
DATA = {
    "a": ((1, 0, 0), (0, 1, 0), (0, 1, 0)),
    "b": ((0, 1, 0), (-1, 0, 0), (-1, 0, 0)),
    "g": ((0, 0, 0), (0, 0, 0), (0, 0, 0)),
    "d1": ((0, 0, -1), (0, 0, 0), (0, 0, -1)),
    "d2": ((0, 0, 1), (0, 0, 0), (0, 0, 1)),
    "e": ((1, 0, 0), (0, 1, 0), (0, 1, 0)),
    "s1": ((0, 0, 0), (0, 0, 0), (0, 0, 0)),
    # partition-curve p entries solved by the variation-matrix identity
    # D(d1 d2 e e) = D(s1 s2 s3); see check_linear_lantern below
    "u": ((1, 0, -1), (0, 1, 0), (0, 1, -1)),   # class [e] - [z2]
    "w": ((1, 0, 1), (0, 1, 0), (0, 1, 1)),     # class [e] + [z2]
}
DATA["s2"] = DATA["u"]
DATA["s3"] = DATA["w"]


def transvection(h, q):
    return tuple(
        tuple((1 if i == j else 0) + h[i] * q[j] for j in range(RANK))
        for i in range(RANK)
    )


def mat_mul(a, b):
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(RANK)) for j in range(RANK))
        for i in range(RANK)
    )


def mat_add(a, b):
    return tuple(tuple(a[i][j] + b[i][j] for j in range(RANK)) for i in range(RANK))


J = ((1, 0, 0), (0, 1, 0), (0, 0, 0))
ZERO = tuple(tuple(0 for _ in range(RANK)) for _ in range(RANK))
IDMAT = tuple(tuple(1 if i == j else 0 for j in range(RANK)) for i in range(RANK))


def outer(u, v):
    return tuple(tuple(u[i] * v[j] for j in range(RANK)) for i in range(RANK))


def linear_of(name, exp=1):
    h, q, p = DATA[name]
    jh = tuple(sum(J[i][k] * h[k] for k in range(RANK)) for i in range(RANK))
    m = mat_add(IDMAT, scale(outer(h, q), exp))
    r = mat_add(IDMAT, scale(outer(jh, p), exp))
    d = scale(outer(h, p), exp)
    return m, r, d


def scale(a, c):
    return tuple(tuple(c * a[i][j] for j in range(RANK)) for i in range(RANK))


def fold_linear(names):
    """Compose linear twist data for a word, rightmost letter acting first."""
    m, r, d = IDMAT, IDMAT, ZERO
    for name in names:
        mm, rr, dd = linear_of(name)
        m = mat_mul(m, mm)
        d = mat_add(mat_mul(d, rr), dd)
        r = mat_mul(r, rr)
    return m, r, d


# ---------------------------------------------------------------------------
# twists about pair-of-holes curves, derived from the Artin action
# ---------------------------------------------------------------------------

# Artin generators acting on free generators v1, v2, v3 of the three-holed
# disk (basepoint on the outer boundary, product v1 v2 v3 = outer word):
#   s_i: v_i -> v_i v_{i+1} v_i^-1,  v_{i+1} -> v_i
SIGMA1 = FreeAutomorphism(3, [(1, 2, -1), (1,), (3,)], [(2,), (-2, 1, 2), (3,)])
SIGMA2 = FreeAutomorphism(3, [(1,), (2, 3, -2), (2,)], [(1,), (3,), (-3, 2, 3)])


def pair_twists():
    """Full twists about the pair-of-holes curves of the four-holed sphere.

    Returns a dict of candidate automorphisms of F(v1,v2,v3).  The {1,2}
    and {2,3} curves are squared Artin generators; for the {1,3} curve
    both conjugates (the curve passing in front of or behind hole 2) are
    returned, since only one of them sits in the lantern configuration.
    Signs are chosen so that the {1,2} twist transports to the known
    positive separating twist g, and the others match it.
    """
    a12 = compose(SIGMA1, SIGMA1).inverse()
    a23 = compose(SIGMA2, SIGMA2).inverse()
    variants = {}
    variants["12"] = [a12]
    variants["23"] = [a23]
    variants["13"] = [
        compose(SIGMA2, compose(a12, SIGMA2.inverse())),
        compose(SIGMA2.inverse(), compose(a12, SIGMA2)),
    ]
    return variants


IOTA = (V1, V2, V3)  # images of v1, v2, v3 in pi_1 of the twice-holed torus


def conjugacy_witness(target, of):
    """A word P with target = P of P^-1, or None."""
    def split(word):
        w = reduce_letters(word)
        lo, hi = 0, len(w)
        while hi - lo >= 2 and w[lo] == -w[hi - 1]:
            lo += 1
            hi -= 1
        return w[:lo], w[lo:hi]

    s, core_t = split(target)
    t, core_o = split(of)
    if len(core_t) != len(core_o):
        return None
    for j in range(max(1, len(core_o))):
        if core_o[j:] + core_o[:j] == core_t:
            alpha = core_o[:j]
            return concat(s, invert_letters(alpha), invert_letters(t))
    return None


def transport_images(lambda_aut: FreeAutomorphism, h, negate=False):
    """Images of x, y, z for a lantern mapping class pushed to the surface.

    The images of x = v1 and z = v3^-1 transport directly; the image of
    the handle generator y is a solution eta of

        eta * psi(x)^-1 * eta^-1 = psi(v2)

    which exists since psi(v2) is conjugate to psi(v1)^-1.  Solutions
    differ by right powers of psi(x); the transvection row for y
    (exponent sums (0,1,0) +/- h) picks exactly one.
    """
    im = [apply_images(IOTA, lambda_aut.images[k]) for k in range(3)]
    x_hat = im[0]
    z_hat = invert_letters(im[2])
    p_witness = conjugacy_witness(im[1], invert_letters(x_hat))
    if p_witness is None:
        return None
    sign = -1 if negate else 1
    want = (sign * h[0], 1 + sign * h[1], sign * h[2])
    base = exponent_sums(p_witness, RANK)
    k = want[0] - base[0]  # [x_hat] = [x], so x_hat powers shift the x entry
    eta = concat(p_witness, *([x_hat] * k if k >= 0 else [invert_letters(x_hat)] * (-k)))
    if exponent_sums(eta, RANK) != want:
        return None
    return (x_hat, eta, z_hat)


def transport(lambda_aut: FreeAutomorphism, h):
    """Extend a lantern twist to a validated surface automorphism."""
    images = transport_images(lambda_aut, h)
    inv = transport_images(lambda_aut.inverse(), h, negate=True)
    if images is None or inv is None:
        return None
    ok = all(
        apply_images(images, inv[k]) == (k + 1,)
        and apply_images(inv, images[k]) == (k + 1,)
        for k in range(RANK)
    )
    if not ok:
        return None
    return aut(images, inv)


def conjugator_of_z(psi: FreeAutomorphism):
    """Return w with psi(z) = w z w^-1, or None."""
    img = psi.images[2]
    if img == Z:
        return ()
    k = (len(img) - 1) // 2
    if len(img) % 2 == 1 and img[k] == 3 and img[:k] == invert_letters(img[k + 1:]):
        return img[:k]
    return None


def passes_c0_c2(psi: FreeAutomorphism, cword) -> bool:
    return psi.apply(cword) == tuple(cword) and psi.apply(B1) == B1


def passes_c1(psi: FreeAutomorphism, name) -> bool:
    h, q, _ = DATA[name]
    return psi.abelianize() == transvection(h, q)


def passes_c5(psi: FreeAutomorphism, name) -> bool:
    h, _, p = DATA[name]
    w = conjugator_of_z(psi)
    if w is None:
        return False
    want = (p[2] * h[0], p[2] * h[1])  # arc column of D = p_A2 * h, mod z2
    return exponent_sums(w, RANK)[:2] == want


def braid_holds(f, g):
    return compose(f, compose(g, f)) == compose(g, compose(f, g))


def commute_holds(f, g):
    return compose(f, g) == compose(g, f)


def main() -> int:
    # --- fixed consistency checks on the known part of the table -----------
    for name, psi in [("a", AUT_A), ("b", AUT_B), ("g", AUT_G), ("d2", AUT_D2), ("e", AUT_E)]:
        assert passes_c1(psi, name), name
        assert psi.apply(B1) == B1, name

    chain = IDENTITY
    for _ in range(6):
        chain = compose(chain, compose(AUT_A, AUT_B))
    assert chain == AUT_G, "chain relation (ab)^6 = g fails"
    print("chain (a b)^6 == g at automorphism level: ok")

    m_l, r_l, d_l = fold_linear(["d1", "d2", "e", "e"])
    for order in itertools.permutations(["s1", "u", "w"]):
        m_r, r_r, d_r = fold_linear(list(order))
        if (m_l, r_l, d_l) == (m_r, r_r, d_r):
            print(f"linear lantern data matches for every order containing u,w: {order}")
            break
    else:
        print("NO linear lantern match -- p entries of u/w are wrong")
        return 1

    # --- derive the pair-curve twists ---------------------------------------
    variants = pair_twists()

    g_transport = transport(variants["12"][0], DATA["s1"][0])
    assert g_transport is not None
    print(f"{{1,2}}-pair twist transports to the known g twist: {g_transport == AUT_G}")
    if g_transport != AUT_G:
        return 1

    u_cands, w_cands = [], []
    for idx, lam in enumerate(variants["13"]):
        psi = transport(lam, DATA["u"][0])
        if psi is None:
            continue
        ok = (passes_c1(psi, "u"), psi.apply(B1) == B1, passes_c5(psi, "u"))
        print(f"u variant {idx}: C1={ok[0]} C2={ok[1]} C5={ok[2]}")
        if all(ok):
            u_cands.append((idx, psi))
    for idx, lam in enumerate(variants["23"]):
        psi = transport(lam, DATA["w"][0])
        if psi is None:
            continue
        ok = (passes_c1(psi, "w"), psi.apply(B1) == B1, passes_c5(psi, "w"))
        print(f"w variant {idx}: C1={ok[0]} C2={ok[1]} C5={ok[2]}")
        if all(ok):
            w_cands.append((idx, psi))

    solutions = []
    for s in (1, -1):
        d1 = inner(B1) if s == 1 else inner(invert_letters(B1))
        lhs = compose(d1, compose(AUT_D2, compose(AUT_E, AUT_E)))
        for (iu, pu), (iw, pw) in itertools.product(u_cands, w_cands):
            named = {"g": AUT_G, "u": pu, "w": pw}
            for assign in itertools.permutations(["g", "u", "w"]):
                rhs = compose(named[assign[0]], compose(named[assign[1]], named[assign[2]]))
                if rhs == lhs:
                    solutions.append((s, assign, iu, iw, pu, pw))

    print(f"full lantern solutions: {len(solutions)}")
    if not solutions:
        print("no solution -- the variant set or a convention upstream is wrong")
        return 1

    solutions.sort(key=lambda sol: (sol[0] != 1, sol[1], sol[2], sol[3]))
    s, assign, iu, iw, pu, pw = solutions[0]
    print()
    print("frozen solution (lexicographically least):")
    print(f"  d1 handedness: conj by b1^{s}")
    print(f"  relation order s1 s2 s3 = {assign}")
    print(f"  u ([e]-[z2]) variant {iu}")
    print(f"    images:         {pu.images}")
    print(f"    inverse images: {pu.inverse_images}")
    print(f"  w ([e]+[z2]) variant {iw}")
    print(f"    images:         {pw.images}")
    print(f"    inverse images: {pw.inverse_images}")

    # show all solutions compactly to understand residual freedom
    print()
    for sol in solutions:
        print(f"  s={sol[0]:+d} order={sol[1]} u_variant={sol[2]} w_variant={sol[3]}")

    # --- relation tables for the frozen convention --------------------------
    d1_aut = inner(B1) if s == 1 else inner(invert_letters(B1))
    slot = {"g": AUT_G, "u": pu, "w": pw}
    catalog = {
        "a": AUT_A, "b": AUT_B, "g": AUT_G, "d1": d1_aut, "d2": AUT_D2,
        "e": AUT_E,
        "s1": slot[assign[0]], "s2": slot[assign[1]], "s3": slot[assign[2]],
    }
    names = list(catalog)

    print()
    print("boundary words under each twist (fix b1 exactly / b2 up to conj):")
    for n, psi in catalog.items():
        img2 = psi.apply(B2)
        print(f"  {n:3s} b1 fixed={psi.apply(B1) == B1}  b2 image={img2}")

    # moves on words must preserve the full class (automorphism AND the
    # variation matrix D), so a pair counts only when both levels agree
    print()
    braids, commutes, aut_only = [], [], []
    for i, j in itertools.combinations(range(len(names)), 2):
        ni, nj = names[i], names[j]
        f, g = catalog[ni], catalog[nj]
        if commute_holds(f, g):
            if fold_linear([ni, nj]) == fold_linear([nj, ni]):
                commutes.append((ni, nj))
            else:
                aut_only.append((ni, nj))
        elif braid_holds(f, g):
            if fold_linear([ni, nj, ni]) == fold_linear([nj, ni, nj]):
                braids.append((ni, nj))
            else:
                aut_only.append((ni, nj))
    print(f"commuting pairs (aut + linear): {commutes}")
    print(f"braid pairs (aut + linear, non-commuting): {braids}")
    print(f"pairs equal at aut level only (NOT usable as moves): {aut_only}")

    assert fold_linear(["a", "b"] * 6) == fold_linear(["g"]), "chain linear data"
    lhs_lin = fold_linear(["d1", "d2", "e", "e"])
    rhs_lin = fold_linear(["s1", "s2", "s3"])
    assert lhs_lin == rhs_lin, "lantern linear data in the frozen order"
    print("chain and lantern also match at linear level: ok")

    print()
    print("catalog literals to freeze:")
    for n in ["s2", "s3"]:
        psi = catalog[n]
        print(f"  {n} images:         {psi.images}")
        print(f"  {n} inverse images: {psi.inverse_images}")
    print(f"  d1 images:         {catalog['d1'].images}")
    print(f"  d1 inverse images: {catalog['d1'].inverse_images}")

    # chain on sigma11 directly, and the 12-letter a a b a a b ... identity
    a2 = [(1,), (2, 1)]
    b2_ = [(1, -2), (2,)]
    f_a = FreeAutomorphism(2, a2, [(1,), (2, -1)])
    f_b = FreeAutomorphism(2, b2_, [(1, 2), (2,)])
    f_d = FreeAutomorphism.inner(2, (1, 2, -1, -2))
    c = FreeAutomorphism.identity(2)
    for _ in range(6):
        c = compose(c, compose(f_a, f_b))
    assert c == f_d, "sigma11 chain fails"
    aab4 = FreeAutomorphism.identity(2)
    for _ in range(4):
        aab4 = compose(aab4, compose(f_a, compose(f_a, f_b)))
    print(f"(a a b)^4 == chain twist on one-holed torus: {aab4 == f_d}")

    return 0


if __name__ == "__main__":
    sys.exit(main())
