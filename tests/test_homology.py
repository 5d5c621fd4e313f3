import math
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import openbook.homology as homology
from openbook.homology import (
    AbelianGroup,
    append_twist,
    cokernel,
    compose_linear,
    h1_of_open_book,
    identity_matrix,
    invert_linear,
    j_matrix,
    mat_add,
    mat_inverse_unimodular,
    mat_mul,
    matrix_rank,
    nonzero,
    outer,
    smith_normal_form,
    twist_data,
    zero_matrix,
)
from openbook.mcg import TwistWord, evaluate
from openbook.surface import load_builtin
from openbook.surgery import OpenBook, surgery

RANDOM_ROUNDS = 200


def sympy_divisors(rows):
    """Independent Smith-form oracle."""
    from sympy import Matrix, ZZ
    from sympy.matrices.normalforms import smith_normal_form as snf

    m = snf(Matrix(rows), domain=ZZ)
    diag = [abs(m[i, i]) for i in range(min(m.shape))]
    return tuple(d for d in diag if d)


def test_smith_normal_form_examples():
    divisors, rank = smith_normal_form(((2, 4, 4), (-6, 6, 12), (10, 4, 16)))
    assert divisors == (2, 2, 156) and rank == 3
    divisors, rank = smith_normal_form(((1, 0), (0, 0), (0, 5)))
    assert divisors == (1, 5) and rank == 2
    assert smith_normal_form(((0, 0), (0, 0))) == ((), 0)
    assert smith_normal_form(()) == ((), 0)
    with pytest.raises(ValueError, match="ragged matrix"):
        smith_normal_form(((1, 2), (3,)))


def test_smith_normal_form_against_oracle():
    rng = random.Random(99)
    for _ in range(RANDOM_ROUNDS):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        a = tuple(
            tuple(rng.randint(-9, 9) for _ in range(cols)) for _ in range(rows)
        )
        divisors, rank = smith_normal_form(a)
        assert divisors == sympy_divisors(a)
        assert rank == len(divisors) == matrix_rank(a)
        for d, e in zip(divisors, divisors[1:]):
            assert e % d == 0


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(min_value=-30, max_value=30), min_size=3, max_size=3),
        min_size=1,
        max_size=4,
    )
)
def test_smith_normal_form_divisor_chain(rows):
    a = tuple(tuple(r) for r in rows)
    divisors, rank = smith_normal_form(a)
    assert rank == matrix_rank(a)
    assert all(d > 0 for d in divisors)
    assert all(e % d == 0 for d, e in zip(divisors, divisors[1:]))
    assert divisors == sympy_divisors(a)


def _check_smith(a):
    divisors, rank = smith_normal_form(a)
    assert divisors == sympy_divisors(a), a
    assert rank == len(divisors) == matrix_rank(a)
    assert all(d > 0 for d in divisors)
    assert all(e % d == 0 for d, e in zip(divisors, divisors[1:]))
    return divisors


def _seeded_matrix(rng, rows, cols, kind):
    if kind == "unit-free":
        entry = lambda: rng.choice((2, 3)) * rng.randint(-40, 40)
    elif kind == "large":
        entry = lambda: rng.randint(-10**6, 10**6)
    else:
        entry = lambda: rng.randint(-9, 9)
    a = [[entry() for _ in range(cols)] for _ in range(rows)]
    if kind == "zero lines" and rows and cols:
        for i in rng.sample(range(rows), rng.randint(0, rows)):
            a[i] = [0] * cols
        for j in rng.sample(range(cols), rng.randint(0, cols)):
            for row in a:
                row[j] = 0
    return tuple(map(tuple, a))


def test_smith_normal_form_rectangular_oracle():
    # every shape from 0x0 to 7x7 (1xk and kx1 included), with zero rows
    # and columns, with no unit entry at all, and with entries up to 10^6
    rng = random.Random(1414)
    for rows in range(8):
        for cols in range(8):
            for kind in ("small", "zero lines", "unit-free", "large"):
                for _ in range(2):
                    a = _seeded_matrix(rng, rows, cols, kind)
                    if kind == "unit-free":
                        assert not any(abs(x) == 1 for row in a for x in row)
                    _check_smith(a)


def _pad(a):
    """``a`` with a zero column appended: same divisors, but a 3x4 never
    takes the square 3x3 tail, so it walks the pivot passes."""
    return tuple(row + (0,) for row in a)


def test_smith_normal_form_branches():
    # a unit pivot on more than two rows: its row and column split off
    unit = ((4, 6, 1), (8, 2, 3), (6, 10, 5))
    assert _check_smith(_pad(unit)) == _check_smith(unit) == (1, 2, 72)
    # no unit on more than two rows: pivot 4 leaves the remainders 2 and 1
    # in its column, so the Euclid step loops before anything splits off
    euclid = ((4, 6, 0), (6, 4, 0), (9, 0, 9))
    assert not any(abs(x) == 1 for row in euclid for x in row)
    assert _check_smith(_pad(euclid)) == _check_smith(euclid) == (1, 2, 90)
    # the pivot's column is clean but its row is not: reduced mod p, loops
    row_first = ((2, 3, 0), (0, 6, 0), (0, 0, 10))
    assert _check_smith(_pad(row_first)) == _check_smith(row_first) == (1, 2, 60)
    # a unit-free pivot that splits off at once, then the two-row tail
    split = ((2, 0, 0), (0, 4, 6), (0, 6, 4))
    assert _check_smith(_pad(split)) == _check_smith(split) == (2, 2, 10)
    # the two-row tail: rank 2 (minors' gcd nonzero) and rank 1 (all zero),
    # 2x2 and 2x3
    assert _check_smith(((2, 4), (6, 2))) == (2, 10)
    assert _check_smith(((2, 4), (3, 6))) == (1,)
    assert _check_smith(((2, 4, 6), (3, 6, 9))) == (1,)
    assert _check_smith(((6,), (4,))) == (2,)
    assert _check_smith(((0, 4, 0),)) == (4,)
    # a rank-1 tail after a unit split
    rank_one = ((1, 0, 0), (0, 4, 8), (0, 6, 12))
    assert _check_smith(_pad(rank_one)) == _check_smith(rank_one) == (1, 2)
    # 4 splits off first, the tail gives 3 and 18: the fold makes 1 | 6 | 36
    fold = ((9, 0, 0), (0, 6, 0), (0, 0, 4))
    assert _check_smith(_pad(fold)) == _check_smith(fold) == (1, 6, 36)
    # the 3x3 tail from determinantal divisors: full rank, cyclic and not
    assert _check_smith(((2, 3, 5), (7, 11, 13), (17, 19, 23))) == (1, 1, 78)
    assert _check_smith(((2, 0, 0), (0, 2, 0), (0, 0, 2))) == (2, 2, 2)
    assert _check_smith(((4, 6, 2), (6, 4, 8), (2, 8, 10))) == (2, 2, 70)
    # rank 2 (|det| = 0) and rank 1 (every 2x2 minor 0)
    assert _check_smith(((2, 4, 6), (4, 2, 8), (6, 6, 14))) == (2, 2)
    assert _check_smith(((2, 4, 6), (4, 8, 12), (-6, -12, -18))) == (2,)
    # a negative determinant, -24
    assert _check_smith(((0, 2, 0), (3, 0, 0), (0, 0, 4))) == (1, 2, 12)
    # a 4x4 whose one unit splits off, leaving a 3x3 tail
    four = ((1, 2, 0, 4), (2, 6, 4, 8), (0, 4, 10, 6), (4, 8, 6, 22))
    assert sum(abs(x) == 1 for row in four for x in row) == 1
    assert _check_smith(four) == (1, 2, 2, 12)
    # 3x4 and 4x3 are not square: they pivot, never take the 3x3 tail
    wide = ((2, 4, 6, 8), (4, 2, 8, 6), (6, 8, 2, 4))
    assert _check_smith(wide) == (2, 2, 40)
    assert _check_smith(tuple(zip(*wide))) == (2, 2, 40)
    # entries near 10^6: the determinant is exact
    big = ((999983, 10**6, -999999), (123457, -999991, 654321), (10**6 - 7, 2, 999979))
    assert _check_smith(big) == (1, 1, 1469075543961502896)
    singular = big[:2] + (tuple(x + y for x, y in zip(*big[:2])),)
    assert _check_smith(singular) == (1, 3)


def test_cokernel_and_rendering():
    assert str(cokernel(((1, 0), (0, 1)))) == "0"
    assert str(cokernel(((5,),))) == "Z/5"
    assert str(cokernel(((0,),))) == "Z"
    assert str(cokernel(((2, 0), (0, 6)))) == "Z/2 + Z/6"
    assert str(cokernel(((0, 0), (0, 2)))) == "Z + Z/2"
    # the zero map off a rank-3 ambient group: three empty rows
    assert str(cokernel(((), (), ()))) == "Z + Z + Z"
    group = cokernel(((2, 0), (0, 6)))
    assert group.order == 12
    assert cokernel(((0,),)).order is None
    assert cokernel(((1,),)).is_trivial()
    # a square matrix has trivial cokernel exactly when det = +-1, and
    # order |det| when det != 0
    assert cokernel(((2, 1), (1, 1))).is_trivial()
    assert cokernel(((0, 1), (1, 0))).is_trivial()
    assert cokernel(((2, 0), (0, 2))).order == 4
    assert cokernel(()).is_trivial()


def test_abelian_group_validation():
    with pytest.raises(ValueError):
        AbelianGroup(0, (1,))
    with pytest.raises(ValueError):
        AbelianGroup(0, (4, 2))
    with pytest.raises(ValueError):
        AbelianGroup(-1, ())
    assert str(AbelianGroup(1, (2, 6))) == "Z + Z/2 + Z/6"


def test_matrix_helpers():
    assert mat_mul(((1, 2), (0, 1)), ((1, 0), (3, 1))) == ((7, 2), (3, 1))
    with pytest.raises(ValueError):
        mat_mul(((1, 2),), ((1, 2),))
    assert matrix_rank(((1, 2), (2, 4))) == 1
    assert mat_inverse_unimodular(((1, 1), (0, 1))) == ((1, -1), (0, 1))
    with pytest.raises(ValueError):
        mat_inverse_unimodular(((2, 0), (0, 1)))
    with pytest.raises(ValueError):
        mat_inverse_unimodular(((1, 1), (1, 1)))
    assert j_matrix(1, 3) == ((1, 0, 0), (0, 1, 0), (0, 0, 0))


def test_twist_data_validation():
    # p must pair to zero with Jh
    with pytest.raises(ValueError):
        twist_data((1, 0, 0), (1, 0, 0), genus=1)
    with pytest.raises(ValueError):
        twist_data((1, 0), (0, 1, 0), genus=1)
    with pytest.raises(ValueError):
        twist_data((1, 0, 0), (0, 1, 0), genus=1, exponent=0)
    # a boundary coordinate of p pairs with nothing in Jh
    assert twist_data((0, 0, 1), (0, 0, 1), genus=1) == ((0, 0, 0),) * 2 + ((0, 0, 1),)


def test_twist_data_powers():
    _, catalog = load_builtin("sigma12")
    a = catalog["a"]
    single = twist_data(a.h, a.p, 1)
    cubed = twist_data(a.h, a.p, 1, 3)
    assert compose_linear([single, single, single], 1) == cubed
    inv = twist_data(a.h, a.p, 1, -1)
    assert compose_linear([single, inv], 1) == zero_matrix(3)


SIGMA12_SPEC, SIGMA12 = load_builtin("sigma12")


def _times_transvection(m, u, v, e):
    """m (I + e u v^T), multiplied out."""
    mu = [sum(x * y for x, y in zip(row, u)) for row in m]
    return tuple(
        tuple(x + e * a * b for x, b in zip(row, v)) for row, a in zip(m, mu)
    )


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(sorted(SIGMA12)), st.sampled_from((-3, -2, -1, 1, 2, 3))
        ),
        max_size=8,
    )
)
def test_compose_linear_invariant(entries):
    # M = I + D J and R = I + J D are derived from D; check them against the
    # products of the catalog's transvections I + e h q^T and I + e Jh p^T
    genus, rank = SIGMA12_SPEC.genus, SIGMA12_SPEC.rank
    j = j_matrix(genus, rank)
    m_direct = r_direct = identity_matrix(rank)
    items = [zero_matrix(rank)]
    for name, e in entries:
        c = SIGMA12[name]
        jh = tuple(x if i < 2 * genus else 0 for i, x in enumerate(c.h))
        m_direct = _times_transvection(m_direct, c.h, c.q, e)
        r_direct = _times_transvection(r_direct, jh, c.p, e)
        items.append(twist_data(c.h, c.p, genus, e))
    d = compose_linear(items, genus)
    cls = evaluate(TwistWord(SIGMA12_SPEC, SIGMA12, tuple(entries)))
    assert cls.D == d
    assert cls.M == m_direct
    assert mat_add(identity_matrix(rank), mat_mul(j, d)) == r_direct
    inv = invert_linear(d, genus)
    assert compose_linear([d, inv], genus) == zero_matrix(rank)
    assert compose_linear([inv, d], genus) == zero_matrix(rank)


def test_compose_linear_empty():
    # a zero matrix stands for the empty word; an empty list has no rank
    with pytest.raises(ValueError):
        compose_linear([], 1)
    _, catalog = load_builtin("sigma12")
    d = twist_data(catalog["s2"].h, catalog["s2"].p, 1)
    assert compose_linear([zero_matrix(3), d], 1) == d
    assert compose_linear([d, zero_matrix(3)], 1) == d
    with pytest.raises(ValueError):
        compose_linear([d, zero_matrix(2)], 1)


def test_append_twist_is_the_dense_rank_one_update():
    # D + (D Jh + h)(e p)^T from the sparse pairs of Jh and p, rows with
    # D_i Jh + h_i = 0 shared; on catalog curves (p . Jh = 0) one update
    # with e p is |e| unit updates
    rng = random.Random(1532)
    for _ in range(RANDOM_ROUNDS):
        genus, n = rng.randint(0, 2), rng.randint(0, 3)
        m = 2 * genus + n
        d = tuple(tuple(rng.choice((0, 0, 1, -1, 3)) for _ in range(m)) for _ in range(m))
        h = tuple(rng.choice((0, 0, 1, -2)) for _ in range(m))
        p = tuple(rng.choice((0, 0, 1, -1)) for _ in range(m))
        jh = h[:2 * genus] + (0,) * n
        u = [hi + sum(x * y for x, y in zip(row, jh)) for row, hi in zip(d, h)]
        for e in (1, -1, 2, -2, 5, -5):
            dense = mat_add(d, outer(u, [e * x for x in p]))
            out = append_twist(d, nonzero(h[:2 * genus]), h, nonzero(p, e))
            assert out == dense
            assert all(row is old for row, old, ui in zip(out, d, u) if not ui)
    _, catalog = load_builtin("sigma12")
    s2 = catalog["s2"]
    start = append_twist(zero_matrix(3), nonzero(s2.h[:2]), s2.h, nonzero(s2.p))
    for cfg in catalog.values():
        jh = nonzero(cfg.h[:2])
        for e in (1, -1, 2, -2, 5, -5):
            unit = start
            for _ in range(abs(e)):
                unit = append_twist(unit, jh, cfg.h, nonzero(cfg.p, 1 if e > 0 else -1))
            assert append_twist(start, jh, cfg.h, nonzero(cfg.p, e)) == unit


def test_h1_of_open_book_is_the_cokernel_of_dense_d():
    # D composed densely from twist_data, one matrix per entry
    spec, catalog = load_builtin("sigma11")
    book = OpenBook.standard(spec, TwistWord.parse(spec, catalog, "a b"))
    big = surgery(book, "1", Fraction(7, 2), 1)
    pages = [load_builtin("sigma11"), load_builtin("sigma12"),
             (big.surface, big.word.catalog)]
    rng = random.Random(1404)
    for _ in range(RANDOM_ROUNDS):
        spec, catalog = rng.choice(pages)
        names = sorted(catalog)
        entries = [(rng.choice(names), rng.choice((-4, -2, -1, 1, 3)))
                   for _ in range(rng.randint(0, 6))]
        word = TwistWord(spec, catalog, tuple(entries))
        d = compose_linear(
            [zero_matrix(spec.rank)]
            + [twist_data(catalog[n].h, catalog[n].p, spec.genus, e) for n, e in word.entries],
            spec.genus,
        )
        assert h1_of_open_book(OpenBook.standard(spec, word)) == cokernel(d)


def _old_fold(spec, word):
    """D of a word by one ``append_twist`` per entry, e p for c^e."""
    d = zero_matrix(spec.rank)
    for name, e in word.entries:
        cfg = word.catalog[name]
        d = append_twist(d, nonzero(cfg.h[:2 * spec.genus]), cfg.h, nonzero(cfg.p, e))
    return d


def test_h1_of_open_book_folds_the_class_key_d(monkeypatch):
    # the in-place fold with memoised unscaled pairs builds exactly the D of
    # mcg.evaluate, powers and repeated letters included; on carried
    # (surgered) catalogs it matches the append_twist fold
    seen = []

    def spy(a):
        seen.append(a)
        return cokernel(a)

    monkeypatch.setattr(homology, "cokernel", spy)
    rng = random.Random(2020)
    for page in ("sigma11", "sigma12"):
        spec, catalog = load_builtin(page)
        names = sorted(catalog)
        for _ in range(RANDOM_ROUNDS // 2):
            entries = []
            for _ in range(rng.randint(0, 10)):
                name = entries[-1][0] if entries and rng.random() < 0.3 else rng.choice(names)
                entries.append((name, rng.choice((-3, -2, -1, 1, 2, 3))))
            word = TwistWord(spec, catalog, tuple(entries))
            group = h1_of_open_book(OpenBook.standard(spec, word))
            d = evaluate(word).D
            assert seen.pop() == d == _old_fold(spec, word)
            assert group == cokernel(d)
            assert (group.free_rank, group.torsion) == (
                spec.rank - len(sympy_divisors(d)),
                tuple(x for x in sympy_divisors(d) if x > 1),
            )
    spec, catalog = load_builtin("sigma11")
    book = OpenBook.standard(spec, TwistWord.parse(spec, catalog, "a b"))
    for r in (Fraction(-7, 3), Fraction(5, 2), Fraction(-11, 4)):
        ob = surgery(book, "1", r)
        group = h1_of_open_book(ob)
        assert seen.pop() == _old_fold(ob.surface, ob.word)
        assert str(group) == ("Z/%d" % abs(r.numerator))


def test_h1_of_open_book_needs_pairing_data():
    # a duck-typed book whose word names a curve its catalog lacks
    spec, catalog = load_builtin("sigma12")
    partial = {n: c for n, c in catalog.items() if n != "g"}
    word = SimpleNamespace(catalog=partial, entries=(("a", 1), ("g", -1), ("b", 2)))
    with pytest.raises(ValueError, match="^no pairing data for curve 'g'$"):
        h1_of_open_book(SimpleNamespace(surface=spec, word=word))
