import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from openbook.freegroup import (
    FreeAutomorphism,
    apply_images,
    are_conjugate,
    compose,
    concat,
    cyclic_reduce,
    exponent_sums,
    invert_letters,
    reduce_letters,
    sanov_basis,
    sanov_substitute,
)
from openbook.homology import cokernel

RANDOM_ROUNDS = 300


def random_letters(rng, rank, max_len=12):
    return tuple(
        rng.choice([k for k in range(-rank, rank + 1) if k])
        for _ in range(rng.randint(0, max_len))
    )


def test_reduce_letters():
    assert reduce_letters((1, -1)) == ()
    assert reduce_letters((1, 2, -2, -1, 3)) == (3,)
    assert reduce_letters((1, 2, 3)) == (1, 2, 3)
    assert reduce_letters(()) == ()
    # rank screening
    with pytest.raises(ValueError):
        reduce_letters((1, 4), rank=3)
    with pytest.raises(ValueError):
        reduce_letters((0,))


def test_invert_concat():
    w = (1, 2, -3)
    assert invert_letters(w) == (3, -2, -1)
    assert reduce_letters(concat(w, invert_letters(w))) == ()
    assert concat((1,), (-1, 2), (3,)) == (2, 3)
    # x y times y^-1, and the inverse, square and conjugate of x y
    w, v = (1, 2), (-2,)
    assert concat(w, v) == (1,)
    assert concat(*[invert_letters(w)] * 2) == (-2, -1, -2, -1)
    assert concat(invert_letters(v), w, v) == (2, 1)
    assert exponent_sums(w, 2) == (1, 1)


def test_apply_images_is_substitution():
    # x -> xy, y -> y on F_2
    images = ((1, 2), (2,))
    assert apply_images(images, (1,)) == (1, 2)
    assert apply_images(images, (-1,)) == (-2, -1)
    # x y^-1 x^-1 -> (xy) y^-1 (xy)^-1, which reduces back to the input
    assert apply_images(images, (1, -2, -1)) == (1, -2, -1)
    assert apply_images(images, (2, 1)) == (2, 1, 2)


def test_exponent_sums_and_cyclic():
    assert exponent_sums((1, 1, -2, 3, 1), 3) == (3, -1, 1)
    assert cyclic_reduce((1, 2, -1)) == (2,)
    assert cyclic_reduce((1, -1)) == ()
    assert are_conjugate((1, 2), (2, 1))
    assert not are_conjugate((1,), (2,))
    assert are_conjugate((-1, 2, 1), (2,))
    assert not are_conjugate((1, 2), (1,))
    assert are_conjugate((1, -1), ())


def test_automorphism_validation():
    # x -> xy needs inverse x -> xy^-1
    aut = FreeAutomorphism(2, ((1, 2), (2,)), ((1, -2), (2,)))
    assert aut.apply((1,)) == (1, 2)
    assert aut.inverse().apply((1,)) == (1, -2)
    with pytest.raises(ValueError):
        FreeAutomorphism(2, ((1, 2), (2,)), ((1,), (2,)))
    # the public constructor is a trust boundary too
    with pytest.raises(ValueError, match="do not invert"):
        FreeAutomorphism(2, ((1, 2), (2,)), ((1, 2), (2,)))
    # images o inverse_images fixes x1 here, inverse_images o images does not
    with pytest.raises(ValueError, match="inverse_images do not invert images at x1"):
        FreeAutomorphism(2, ((2,), (1,)), ((2,), (2,)))
    with pytest.raises(ValueError, match="one image per generator"):
        FreeAutomorphism(2, ((1, 2), (2,)), ((1, -2),))
    # an endomorphism that kills a generator is rejected even as its own inverse
    with pytest.raises(ValueError):
        FreeAutomorphism(2, ((1,), (1,)), ((1,), (1,)))


def test_inner_automorphism():
    inner = FreeAutomorphism.inner(2, (1, 2))
    # u -> w^-1 u w
    assert inner.apply((1,)) == reduce_letters((-2, -1, 1, 1, 2))
    assert inner.abelianize() == ((1, 0), (0, 1))
    assert compose(inner, inner.inverse()).is_identity()
    with pytest.raises(ValueError, match="rank mismatch: 2 vs 3"):
        compose(inner, FreeAutomorphism.identity(3))


def test_trusted_conjugation_rebuilds():
    # conjugation and inner skip the inverse check: every result must
    # pass it when rebuilt through the validating constructor
    rng = random.Random(10)
    for _ in range(RANDOM_ROUNDS):
        rank = rng.randint(1, 5)
        moved = sorted(rng.sample(range(1, rank + 1), rng.randint(1, rank)))
        word = tuple(rng.choice(moved) * rng.choice((1, -1)) for _ in range(rng.randint(0, 8)))
        aut = FreeAutomorphism.conjugation(rank, word, moved)
        assert aut == FreeAutomorphism(rank, aut.images, aut.inverse_images)
        assert aut.apply(word) == reduce_letters(word)
        inner = FreeAutomorphism.inner(rank, word)
        assert inner == FreeAutomorphism.conjugation(rank, word, range(1, rank + 1))
        assert inner == FreeAutomorphism(rank, inner.images, inner.inverse_images)
    with pytest.raises(ValueError, match="does not move"):
        FreeAutomorphism.conjugation(3, (1, 3), (1, 2))
    # a deferred automorphism builds its tables only for their own names
    with pytest.raises(AttributeError, match="no_such_table"):
        FreeAutomorphism.inner(2, (1,)).no_such_table


def test_trusted_automorphism_is_as_compact_as_a_validated_one():
    # the trusted constructor sets the fields in order, as __init__ does,
    # so its instance dict shares keys; a dict filled by update did not.
    # Rank 0 keeps the validated build from allocating new tables
    def bytes_per_instance(make, count=2000):
        tracemalloc.start()
        try:
            kept = [make() for _ in range(count)]
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(kept) == count
        return held / count

    trusted = bytes_per_instance(lambda: FreeAutomorphism._trusted(0, (), ()))
    assert trusted <= bytes_per_instance(lambda: FreeAutomorphism(0, (), ())) + 8
    gens = ((1,), (2,))
    assert FreeAutomorphism._trusted(2, gens, gens) == FreeAutomorphism.identity(2)
    assert FreeAutomorphism.identity(3).images == ((1,), (2,), (3,))


def test_compose_order():
    # compose(f, g) applies g first
    f = FreeAutomorphism(2, ((1, 2), (2,)), ((1, -2), (2,)))
    g = FreeAutomorphism(2, ((1,), (2, 1)), ((1,), (2, -1)))
    fg = compose(f, g)
    assert fg.apply((1,)) == f.apply(g.apply((1,)))
    assert fg.apply((2,)) == f.apply(g.apply((2,)))


def test_compose_properties_random():
    rng = random.Random(2024)
    basis = [
        FreeAutomorphism(3, ((1, 2), (2,), (3,)), ((1, -2), (2,), (3,))),
        FreeAutomorphism(3, ((1,), (2, 3), (3,)), ((1,), (2, -3), (3,))),
        FreeAutomorphism.inner(3, (1, 2, -3)),
        FreeAutomorphism(3, ((2,), (1,), (3,)), ((2,), (1,), (3,))),
    ]
    for _ in range(RANDOM_ROUNDS):
        f, g, h = (rng.choice(basis) ** rng.randint(-2, 2) for _ in range(3))
        assert compose(compose(f, g), h) == compose(f, compose(g, h))
        assert compose(f, f.inverse()).is_identity()
        w = random_letters(rng, 3)
        # automorphisms respect multiplication and inversion
        assert f.apply(invert_letters(w)) == invert_letters(f.apply(w))
        assert f.inverse().apply(f.apply(w)) == reduce_letters(w)


def test_abelianize_matches_exponent_action():
    rng = random.Random(5)
    f = compose(
        FreeAutomorphism(2, ((1, 2), (2,)), ((1, -2), (2,))),
        FreeAutomorphism.inner(2, (2, 1)),
    )
    m = f.abelianize()
    assert cokernel(m).is_trivial()  # |det m| = 1
    for _ in range(50):
        w = random_letters(rng, 2)
        e = exponent_sums(w, 2)
        image_e = exponent_sums(f.apply(w), 2)
        assert image_e == tuple(
            sum(m[i][j] * e[j] for j in range(2)) for i in range(2)
        )


def test_pow():
    f = FreeAutomorphism(2, ((1, 2), (2,)), ((1, -2), (2,)))
    assert (f ** 3).apply((1,)) == (1, 2, 2, 2)
    assert (f ** -1) == f.inverse()
    assert (f ** 0).is_identity()
    # f ** n is n-fold composition; the first factor is f itself, not
    # f composed with the identity
    assert f ** 1 is f
    for g in (f, FreeAutomorphism.inner(2, (2, 1))):
        for n in range(-3, 4):
            want = FreeAutomorphism.identity(2)
            for _ in range(abs(n)):
                want = compose(g if n > 0 else g.inverse(), want)
            assert g ** n == want


def _sl2_mul(x, y):
    a, b, c, d = x
    e, f, g, h = y
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


_reduced_f3 = st.lists(st.sampled_from((1, 2, 3, -1, -2, -3)), max_size=10).map(
    reduce_letters
)


@settings(max_examples=300, deadline=None)
@given(_reduced_f3, _reduced_f3)
def test_sanov_is_faithful(u, v):
    basis = sanov_basis(3)
    ru, rv, ruv, rinv = sanov_substitute(basis, (u, v, concat(u, v), invert_letters(u)))
    assert (ru == (1, 0, 0, 1)) == (u == ())
    assert (ru == rv) == (u == v)
    # a homomorphism into SL(2, Z)
    a, b, c, d = ru
    assert a * d - b * c == 1
    assert ruv == _sl2_mul(ru, rv)
    assert rinv == (d, -b, -c, a)
    # reading words through rho o phi is rho of their images under phi
    phi = FreeAutomorphism(
        3, [(1,), (2, 1), (3, 2)], [(1,), (2, -1), (3, 1, -2)]
    )
    key = sanov_substitute(basis, phi.images)
    assert sanov_substitute(key, (u,)) == sanov_substitute(basis, (phi.apply(u),))


def _random_sl2(rng):
    """A product of elementary matrices, so its inverse is (d, -b, -c, a)."""
    m = (1, 0, 0, 1)
    for _ in range(rng.randint(0, 6)):
        k = rng.randint(-3, 3)
        m = _sl2_mul(m, rng.choice(((1, k, 0, 1), (1, 0, k, 1))))
    return m


def test_sanov_substitute_matches_table_reference():
    # the letter table and identity start of the substitution, kept here
    # as the reference for the table-free kernel
    def reference(key, words):
        table = {}
        for k, (a, b, c, d) in enumerate(key, 1):
            table[k], table[-k] = (a, b, c, d), (d, -b, -c, a)
        out = []
        for word in words:
            m = (1, 0, 0, 1)
            for letter in word:
                m = _sl2_mul(m, table[letter])
            out.append(m)
        return tuple(out)

    rng = random.Random(1947)
    for _ in range(RANDOM_ROUNDS):
        rank = rng.randint(1, 4)
        key = tuple(_random_sl2(rng) for _ in range(rank))
        words = [random_letters(rng, rank) for _ in range(rng.randint(0, 4))]
        words += [(), (-rng.randint(1, rank),), (-1,) + random_letters(rng, rank)]
        assert sanov_substitute(key, words) == reference(key, words)
    assert sanov_substitute(sanov_basis(2), ()) == ()
