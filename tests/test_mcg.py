import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from openbook import freegroup, mcg, stabilisation
from openbook.freegroup import FreeAutomorphism, compose, sanov_basis, sanov_substitute
from openbook.homology import (
    compose_linear,
    h1_of_open_book,
    invert_linear,
    twist_data,
    zero_matrix,
)
from openbook.mcg import (
    MappingClass,
    TwistWord,
    applicable_moves,
    apply_relation,
    boundary_exponent_delta,
    equal_classes,
    evaluate,
)
from openbook.stabilisation import stabilize
from openbook.surface import (
    RELATION_PATTERNS,
    identity_key,
    load_builtin,
    pair_relation,
    right_compose,
    twist_step,
)
from openbook.surgery import OpenBook, surgery

RANDOM_ROUNDS = 100


def random_word(rng, surface, catalog, length, names=None):
    names = sorted(catalog) if names is None else names
    text = " ".join(
        f"{rng.choice(names)}^{rng.choice((-2, -1, 1, 2))}" for _ in range(length)
    )
    return TwistWord.parse(surface, catalog, text)


def test_parse_render_normalize():
    spec, catalog = load_builtin("sigma12")
    word = TwistWord.parse(spec, catalog, "a b g^-1 d1 d2^4")
    assert str(word) == "a b g^-1 d1 d2^4"
    assert word.length == 8
    assert not word.is_positive()
    assert word.expanded()[:3] == (("a", 1), ("b", 1), ("g", -1))
    # adjacent same-curve twists merge, zero exponents vanish
    assert str(TwistWord.parse(spec, catalog, "a^2 a^-1 b^0 d1 d1")) == "a d1^2"
    empty = TwistWord.parse(spec, catalog, "a^-2 a^2")
    assert empty.length == 0 and empty.entries == ()
    assert TwistWord.parse(spec, catalog, "a b d1").is_positive()


def test_parse_rejects_garbage():
    spec, catalog = load_builtin("sigma11")
    for text in ("a^", "2a", "a^x", "a^1.5"):
        with pytest.raises(ValueError, match="bad token"):
            TwistWord.parse(spec, catalog, text)
    with pytest.raises(ValueError, match="unknown curve 'c'"):
        TwistWord.parse(spec, catalog, "a c")
    with pytest.raises(ValueError, match="exponent of b must be an integer"):
        TwistWord(spec, catalog, (("a", 1), ("b", 1.5)))


def test_word_algebra():
    spec, catalog = load_builtin("sigma11")
    word = TwistWord.parse(spec, catalog, "a b^-1")
    assert str(word.inverse()) == "b a^-1"
    assert str(word * word.inverse()) == ""
    spec2, catalog2 = load_builtin("sigma12")
    other = TwistWord.parse(spec2, catalog2, "a")
    with pytest.raises(ValueError):
        word * other


def test_evaluate_golden():
    # tau_a tau_b on the one-holed torus, rightmost twist applied first
    spec, catalog = load_builtin("sigma11")
    cls = evaluate(TwistWord.parse(spec, catalog, "a b"))
    assert cls.exact.images == ((-2,), (2, 1))
    assert cls.M == ((0, 1), (-1, 1))
    assert cls.D == ((-1, 1), (-1, 0))
    assert not cls.linear_only

    ident = evaluate(TwistWord.parse(spec, catalog, ""))
    assert ident.twists == () and ident.key == identity_key(spec.rank)
    assert ident.exact == FreeAutomorphism.identity(spec.rank)


def test_composition_matches_word_concatenation():
    # a class is its factors: u's factors then v's give the class of the
    # (normalised) word u v, and u's then u^-1's, uncancelled, the identity
    rng = random.Random(7)
    spec, catalog = load_builtin("sigma12")
    ident = evaluate(TwistWord.parse(spec, catalog, ""))
    for _ in range(RANDOM_ROUNDS):
        u = random_word(rng, spec, catalog, rng.randint(0, 4))
        v = random_word(rng, spec, catalog, rng.randint(0, 4))
        cu = evaluate(u)
        lhs = evaluate(u * v)
        assert equal_classes(lhs, MappingClass(spec, cu.twists + evaluate(v).twists))
        inv = MappingClass(spec, cu.twists + evaluate(u.inverse()).twists)
        assert equal_classes(inv, ident)


def test_equal_classes_needs_full_data():
    spec, catalog = load_builtin("sigma12")
    # same automorphism of pi_1 but different twisting along the binding:
    # only the linear data tells these apart
    one = evaluate(TwistWord.parse(spec, catalog, "a b g^-1 d1 d2^4"))
    two = evaluate(TwistWord.parse(spec, catalog, "a b g^-1 d1 d2^5"))
    assert one.exact == two.exact
    assert not equal_classes(one, two)

    # tau_e = tau_a exactly: e is a parallel copy of a
    assert equal_classes(
        evaluate(TwistWord.parse(spec, catalog, "e")),
        evaluate(TwistWord.parse(spec, catalog, "a")),
    )


def test_equal_classes_errors():
    spec1, cat1 = load_builtin("sigma11")
    spec2, cat2 = load_builtin("sigma12")
    with pytest.raises(ValueError, match="surface"):
        equal_classes(
            evaluate(TwistWord.parse(spec1, cat1, "")),
            evaluate(TwistWord.parse(spec2, cat2, "")),
        )

    # a catalog entry without exact data only supports the linear invariants
    result = stabilize(spec2, cat2, 2)
    assert result.catalog["s2"].aut is None
    cls = evaluate(TwistWord.parse(result.surface, result.catalog, "s2"))
    assert cls.linear_only and cls.rho is None and cls.exact is None
    with pytest.raises(ValueError, match="linear"):
        equal_classes(cls, evaluate(TwistWord.parse(result.surface, result.catalog, "")))


def test_boundary_exponent_delta():
    spec, catalog = load_builtin("sigma12")
    word = TwistWord.parse(spec, catalog, "a b g^-1 d1 d2^4")
    assert boundary_exponent_delta(word, 2, 1) == 3
    assert boundary_exponent_delta(word, 1, 2) == -3
    assert boundary_exponent_delta(word, 1, 1) == 0
    empty = TwistWord.parse(spec, catalog, "")
    assert boundary_exponent_delta(empty, 2, 1) == 0
    with pytest.raises(ValueError):
        boundary_exponent_delta(word, 3, 1)
    # drop the curve recording component 1 and the invariant is unavailable
    partial = {n: c for n, c in catalog.items() if n != "d1"}
    broken = TwistWord.parse(spec, partial, "a b")
    with pytest.raises(ValueError):
        boundary_exponent_delta(broken, 2, 1)


def test_boundary_exponent_delta_builds_no_curve(monkeypatch):
    # on the r = -40 surgery page of the trefoil book, whose word twists
    # once about each d<i>, the delta reads the boundary indices from the
    # carried catalog's records; the memo is emptied so that no earlier
    # test has read the page's curves
    stabilisation._stabilised.cache_clear()
    spec, catalog = load_builtin("sigma11")
    book = OpenBook.standard(spec, TwistWord.parse(spec, catalog, "a b"))
    ob = surgery(book, "1", Fraction(-40))
    word = ob.word * TwistWord.parse(ob.surface, ob.word.catalog, "d2^3 g5 d7^-2 d1")
    n, carry, carried = ob.surface.boundary, stabilisation._carry, []
    monkeypatch.setattr(stabilisation, "_carry", lambda *args: carried.append(args) or carry(*args))
    pairs = [(i, j) for i in range(1, n + 1) for j in (1, n)]
    deltas = {(i, j): boundary_exponent_delta(word, i, j) for i, j in pairs}
    with pytest.raises(ValueError, match=f"no boundary-parallel curve for component {n + 1}"):
        boundary_exponent_delta(word, n + 1, 1)
    assert carried == []
    bpt = {name: cfg.boundary_parallel_to for name, cfg in dict(word.catalog).items()}
    assert carried
    for i, j in pairs:
        assert deltas[i, j] == sum(
            exp * ((bpt[name] == i) - (bpt[name] == j)) for name, exp in word.entries
        )
    assert any(deltas.values())


def test_apply_relation_goldens():
    spec, catalog = load_builtin("sigma11")
    word = TwistWord.parse(spec, catalog, "a b a")
    assert str(apply_relation(word, "braid", 0)) == "b a b"
    assert str(apply_relation(word, "braid", 0, "backward")) == "b a b"
    assert str(apply_relation(TwistWord.parse(spec, catalog, "a d"), "commute", 0)) == "d a"
    chain = TwistWord.parse(spec, catalog, "a b " * 6)
    assert str(apply_relation(chain, "chain", 0)) == "d"
    assert str(apply_relation(TwistWord.parse(spec, catalog, "d"), "chain", 0, "backward")) == str(chain)

    spec2, catalog2 = load_builtin("sigma12")
    lantern = TwistWord.parse(spec2, catalog2, "d1 d2 e^2")
    assert str(apply_relation(lantern, "lantern", 0)) == "s1 s2 s3"
    back = TwistWord.parse(spec2, catalog2, "s1 s2 s3")
    assert str(apply_relation(back, "lantern", 0, "backward")) == "d1 d2 e^2"


def test_apply_relation_errors():
    spec, catalog = load_builtin("sigma11")
    word = TwistWord.parse(spec, catalog, "a d")
    with pytest.raises(ValueError, match="braid pattern does not match at position 0"):
        apply_relation(word, "braid", 0)
    with pytest.raises(ValueError, match="unknown move"):
        apply_relation(word, "slide", 0)
    with pytest.raises(ValueError):
        apply_relation(word, "commute", 5)
    with pytest.raises(ValueError, match="^unknown direction 'sideways'$"):
        apply_relation(word, "commute", 0, "sideways")
    with pytest.raises(ValueError, match="^commute pattern does not match at position -1$"):
        apply_relation(word, "commute", -1)
    chain = TwistWord.parse(spec, catalog, "a b " * 6)
    with pytest.raises(ValueError, match="^chain pattern does not match at position 2$"):
        apply_relation(chain, "chain", 2)  # the pattern would run past the end
    page13, catalog13 = _sigma13_page()
    stars = TwistWord.parse(page13, catalog13, "s1 s2 s3")
    for move in ("chain", "lantern"):
        with pytest.raises(ValueError, match=f"^surface sigma13 has no {move} relation$"):
            apply_relation(stars, move, 0)
    # commute, like braid, reads backward as forward
    spec2, catalog2 = load_builtin("sigma12")
    pair = TwistWord.parse(spec2, catalog2, "a d2")
    assert str(apply_relation(pair, "commute", 0, "backward")) == "d2 a"


def _sigma13_page():
    """The genus-one, three-boundary page of surgery r = 7/2 on the
    binding of the trefoil book; it has no chain or lantern pattern."""
    spec, catalog = load_builtin("sigma11")
    book = OpenBook.standard(spec, TwistWord.parse(spec, catalog, "a b"))
    out = surgery(book, "1", Fraction(7, 2), 1)
    return out.surface, out.word.catalog


def test_moves_preserve_class_and_delta():
    pages = [load_builtin("sigma11"), load_builtin("sigma12"), _sigma13_page()]
    for spec, catalog in pages:
        names = sorted(n for n in catalog if catalog[n].aut is not None)
        _check_pair_relations(spec, catalog, names)
        _check_random_moves(spec, catalog, names)


def _check_pair_relations(spec, catalog, names):
    # braid and commute are derived per pair: check each against evaluation
    def cls(text):
        return evaluate(TwistWord.parse(spec, catalog, text))

    for u in names:
        for v in names:
            commutes = equal_classes(cls(f"{u} {v}"), cls(f"{v} {u}"))
            braids = not commutes and equal_classes(
                cls(f"{u} {v} {u}"), cls(f"{v} {u} {v}")
            )
            expected = "commute" if commutes else "braid" if braids else None
            assert pair_relation(spec.genus, catalog[u], catalog[v]) == expected


def _check_random_moves(spec, catalog, names):
    rng = random.Random(23)
    checked = 0
    for _ in range(RANDOM_ROUNDS):
        word = random_word(rng, spec, catalog, rng.randint(1, 6), names)
        moves = applicable_moves(word)
        assert moves == applicable_moves(word)  # deterministic enumeration
        if not moves:
            continue
        move, position, direction = rng.choice(moves)
        other = apply_relation(word, move, position, direction)
        assert equal_classes(evaluate(word), evaluate(other))
        for i, j in itertools.permutations(range(1, spec.boundary + 1), 2):
            assert boundary_exponent_delta(word, i, j) == boundary_exponent_delta(
                other, i, j
            )
        checked += 1
    assert checked > RANDOM_ROUNDS // 2


def test_apply_relation_accepts_exactly_the_applicable_moves():
    kinds = set()
    for spec, catalog in [load_builtin("sigma11"), load_builtin("sigma12"), _sigma13_page()]:
        rng = random.Random(29)
        names = sorted(catalog)
        words = [random_word(rng, spec, catalog, rng.randint(0, 5), names) for _ in range(40)]
        for move in ("chain", "lantern"):  # plant each side of each pattern
            for side in RELATION_PATTERNS.get((spec.name, move), ()):
                planted = TwistWord(spec, catalog, tuple((n, 1) for n in side))
                words.append(random_word(rng, spec, catalog, 1, names) * planted)
                words.append(planted * random_word(rng, spec, catalog, 1, names))
        for word in words:
            accepted = []
            for move, direction, position in itertools.product(
                ("braid", "commute", "chain", "lantern"),
                ("forward", "backward"),
                range(-1, len(word.expanded()) + 1),
            ):
                try:
                    moved = apply_relation(word, move, position, direction)
                except ValueError:
                    continue
                if move in ("braid", "commute") and direction == "backward":
                    forward = apply_relation(word, move, position, "forward")
                    assert moved.entries == forward.entries
                    continue
                accepted.append((move, position, direction))
            assert sorted(accepted) == sorted(applicable_moves(word))
            kinds.update((move, direction) for move, _, direction in accepted)
    assert kinds == {
        ("braid", "forward"), ("commute", "forward"), ("chain", "forward"),
        ("chain", "backward"), ("lantern", "forward"), ("lantern", "backward"),
    }


def test_applicable_moves_enumeration():
    spec, catalog = load_builtin("sigma12")
    word = TwistWord.parse(spec, catalog, "d1 d2 e^2 s1")
    assert applicable_moves(word) == (
        ("commute", 0, "forward"),
        ("commute", 1, "forward"),
        ("commute", 3, "forward"),
        ("lantern", 0, "forward"),
    )


SIGMA12_SPEC, SIGMA12 = load_builtin("sigma12")


def sigma12_entries(max_size):
    return st.lists(
        st.tuples(
            st.sampled_from(sorted(SIGMA12)), st.sampled_from((-3, -2, -1, 1, 2, 3))
        ),
        max_size=max_size,
    )


# the two-way check costs about the product of image and inverse-image
# lengths, which grow exponentially with the word; four twists keep an
# example under a second
@settings(max_examples=60, deadline=None)
@given(sigma12_entries(4))
def test_evaluated_automorphism_passes_validation(entries):
    # evaluate builds through the trusted compose and __pow__; the public
    # constructor must accept the result, and reject a spoiled inverse
    exact = evaluate(TwistWord(SIGMA12_SPEC, SIGMA12, tuple(entries))).exact
    rebuilt = FreeAutomorphism(exact.rank, exact.images, exact.inverse_images)
    assert rebuilt == exact
    spoiled = (exact.inverse_images[0] + (2,),) + exact.inverse_images[1:]
    with pytest.raises(ValueError):
        FreeAutomorphism(exact.rank, exact.images, spoiled)


@settings(max_examples=60, deadline=None)
@given(sigma12_entries(8))
def test_inverse_linear_from_inverse_twists(entries):
    # prepending the inverse twist of each letter, in word order, gives the
    # deviation of the inverse word
    genus = SIGMA12_SPEC.genus
    word = TwistWord(SIGMA12_SPEC, SIGMA12, tuple(entries))
    inv = zero_matrix(SIGMA12_SPEC.rank)
    for name, exp in word.expanded():
        cfg = SIGMA12[name]
        inv = compose_linear([twist_data(cfg.h, cfg.p, genus, -exp), inv], genus)
    assert inv == invert_linear(evaluate(word).D, genus)


_KEY_PAGES = (load_builtin("sigma11"), (SIGMA12_SPEC, SIGMA12), _sigma13_page())


def _key_page_words(max_size):
    def words(index):
        names = sorted(_KEY_PAGES[index][1])
        letter = st.tuples(st.sampled_from(names), st.sampled_from((-3, -2, -1, 1, 2, 3)))
        entries = st.lists(letter, max_size=max_size)
        return st.tuples(st.just(index), entries, entries, st.randoms(use_true_random=False))

    return st.sampled_from(range(len(_KEY_PAGES))).flatmap(words)


@settings(max_examples=80, deadline=None)
@given(_key_page_words(4))
def test_evaluate_folds_the_class_key(drawn):
    # evaluate's key is rho of the images free-group composition gives,
    # with D; equal_classes, and evaluate of the concatenated and inverse
    # words, agree with comparing and composing those images and D directly
    index, u_entries, v_entries, rng = drawn
    spec, catalog = _KEY_PAGES[index]
    genus = spec.genus

    def reference(entries):
        """(composed automorphism or None without one, composed D)"""
        aut, d = FreeAutomorphism.identity(spec.rank), zero_matrix(spec.rank)
        for name, exp in entries:
            cfg = catalog[name]
            aut = None if aut is None or cfg.aut is None else compose(aut, cfg.aut ** exp)
            d = compose_linear([d, twist_data(cfg.h, cfg.p, genus, exp)], genus)
        return aut, d

    u, v = (TwistWord(spec, catalog, tuple(e)) for e in (u_entries, v_entries))
    (au, du), (av, dv) = reference(u.entries), reference(v.entries)
    cu, cv = evaluate(u), evaluate(v)
    for cls, aut, d in ((cu, au, du), (cv, av, dv)):
        assert cls.D == d and cls.exact == aut and cls.linear_only == (aut is None)
        if aut is not None:
            assert cls.key == (sanov_substitute(sanov_basis(spec.rank), aut.images), d)
    uv, inv = evaluate(u * v), evaluate(u.inverse())
    assert uv.D == compose_linear([du, dv], genus) and inv.D == invert_linear(du, genus)
    if au is None or av is None:
        with pytest.raises(ValueError, match="linear"):
            equal_classes(cu, cv)
        return
    assert equal_classes(cu, cv) == ((au, du) == (av, dv))
    assert uv.exact == compose(au, av) and inv.exact == au.inverse()
    # a relation move keeps the class: the equal case, on the same words
    moves = applicable_moves(u)
    if moves:
        moved = evaluate(apply_relation(u, *rng.choice(moves)))
        assert equal_classes(cu, moved) and (moved.exact, moved.D) == (au, du)


def test_evaluate_builds_no_automorphism(monkeypatch):
    # evaluate and equal_classes fold class keys only; the automorphism is
    # composed when exact is first read, and kept
    def refuse(*args):
        raise AssertionError("built a FreeAutomorphism")

    monkeypatch.setattr(mcg, "compose", refuse)
    monkeypatch.setattr(FreeAutomorphism, "_trusted", classmethod(refuse))

    def cls(text):
        return evaluate(TwistWord.parse(SIGMA12_SPEC, SIGMA12, text))

    one, two = cls("a b g^-1 d1 d2^4"), cls("a b g^-1 d1 d2^5")
    assert not equal_classes(one, two)
    assert equal_classes(cls("d1 d2 e^2"), cls("s1 s2 s3"))
    assert equal_classes(cls("a b a"), cls("b a b"))
    with pytest.raises(AssertionError, match="built"):
        one.exact
    monkeypatch.undo()
    assert one.exact is one.exact and one.exact == two.exact


def test_invariants_read_only_what_they_need(monkeypatch):
    # D, M and linear_only, H1 and an equality whose D differ fold no rho;
    # rho o phi is folded on first read, when the two D agree, and kept
    def refuse(*args):
        raise AssertionError("folded rho")

    monkeypatch.setattr(mcg, "sanov_substitute", refuse)

    def cls(text):
        return evaluate(TwistWord.parse(SIGMA12_SPEC, SIGMA12, text))

    text = "a b g^-1 d1 d2^4"
    one = cls(text)
    assert one.D == ((-1, 1, 0), (-1, 0, 0), (0, 0, 5))
    assert one.M == ((0, 1, 0), (-1, 1, 0), (0, 0, 1))
    assert not one.linear_only
    book = OpenBook.standard(SIGMA12_SPEC, TwistWord.parse(SIGMA12_SPEC, SIGMA12, text))
    assert str(h1_of_open_book(book)) == "Z/5"
    assert not equal_classes(one, cls("a b g^-1 d1 d2^5"))
    lantern, stars = cls("d1 d2 e^2"), cls("s1 s2 s3")
    with pytest.raises(AssertionError, match="folded rho"):
        equal_classes(lantern, stars)
    monkeypatch.undo()
    assert equal_classes(lantern, stars) and lantern.rho is lantern.rho


def test_evaluate_powers_match_unit_words():
    # an entry c^e folds rho |e| times and D once with e p; the key is the
    # one the unit word of TwistWord.expanded gives, one twist at a time
    rng = random.Random(1578)
    for spec, catalog in _KEY_PAGES:
        names = sorted(n for n in catalog if catalog[n].aut is not None)
        for _ in range(RANDOM_ROUNDS // 2):
            entries = [(rng.choice(names), rng.choice((-4, -3, -2, -1, 1, 2, 3, 4)))
                       for _ in range(rng.randint(0, 5))]
            word = TwistWord(spec, catalog, tuple(entries))
            key = identity_key(spec.rank)
            for name, sign in word.expanded():
                key = right_compose(key, twist_step(catalog[name], spec.genus, sign))
            assert evaluate(word).key == key


def test_evaluate_builds_no_power_image(monkeypatch):
    # a^50 folds fifty unit substitutions, never the image of tau_a^50;
    # on sigma12, tau_a^50 sends x2 to x2 x1^50 and has D = 50 h p^T
    def refuse(*args):
        raise AssertionError("composed automorphisms")

    monkeypatch.setattr(freegroup, "compose", refuse)
    monkeypatch.setattr(mcg, "compose", refuse)
    r1, r2, r3 = sanov_basis(3)
    power = (1, 0, 0, 1)
    for _ in range(50):
        power = _sl2(power, r1)
    key = evaluate(TwistWord.parse(SIGMA12_SPEC, SIGMA12, "a^50")).key
    assert key == ((r1, _sl2(r2, power), r3), ((0, 50, 0), (0, 0, 0), (0, 0, 0)))


def _sl2(x, y):
    a, b, c, d = x
    e, f, g, h = y
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)
