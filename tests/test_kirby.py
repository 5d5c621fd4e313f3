import math
import random
import tracemalloc
from fractions import Fraction

import pytest

from openbook.kirby import (
    FramedLinkPresentation,
    SeifertData,
    blow_down,
    h1_of_link,
    presentation_matrix,
    rational_to_chain,
    seifert_presentation,
)

RANDOM_ROUNDS = 200


def unknot(r):
    return FramedLinkPresentation(("1",), (Fraction(r),))


def test_presentation_matrix_goldens():
    link = seifert_presentation(
        SeifertData(-1, (Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)))
    )
    assert link.labels == ("c0", "c1", "c2", "c3")
    assert link.coefficients == (Fraction(-1), Fraction(-2), Fraction(-3), Fraction(-4))
    assert presentation_matrix(link) == (
        (-1, 1, 1, 1),
        (1, -2, 0, 0),
        (1, 0, -3, 0),
        (1, 0, 0, -4),
    )
    assert str(h1_of_link(link)) == "Z/2"

    # fractional framings make the relation matrix genuinely asymmetric
    mixed = FramedLinkPresentation(
        ("1", "2"), (Fraction(3, 2), Fraction(5)), {("1", "2"): 1}
    )
    assert presentation_matrix(mixed) == ((3, 2), (1, 5))
    assert str(h1_of_link(mixed)) == "Z/13"
    assert mixed.lk("1", "2") == mixed.lk("2", "1") == 1
    assert mixed.lk("1", "1") == 0


def test_unknot_surgeries():
    assert str(h1_of_link(unknot(-5))) == "Z/5"
    assert str(h1_of_link(unknot(5))) == "Z/5"
    assert str(h1_of_link(unknot(0))) == "Z"
    assert h1_of_link(unknot(1)).is_trivial()
    assert str(h1_of_link(unknot(Fraction(-5, 4)))) == "Z/5"


def test_validation():
    with pytest.raises(ValueError, match="one coefficient per component"):
        FramedLinkPresentation(("1", "2"), (Fraction(1),))
    with pytest.raises(ValueError, match="distinct"):
        FramedLinkPresentation(("1", "1"), (Fraction(1), Fraction(2)))
    with pytest.raises(ValueError, match="sorted pairs"):
        FramedLinkPresentation(("1", "2"), (Fraction(1), Fraction(2)), {("2", "1"): 1})
    with pytest.raises(ValueError, match="unknown components"):
        FramedLinkPresentation(("1", "2"), (Fraction(1), Fraction(2)), {("1", "3"): 1})
    with pytest.raises(ValueError, match="integers"):
        FramedLinkPresentation(("1", "2"), (Fraction(1), Fraction(2)), {("1", "2"): 1.5})
    with pytest.raises(ValueError, match="self-linking"):
        FramedLinkPresentation(("1",), (Fraction(1),), {("1", "1"): 1})
    with pytest.raises(ValueError, match="\\(0, 1\\]"):
        SeifertData(-1, (Fraction(1, 2), Fraction(3, 2), Fraction(1, 4)))


def test_seifert_order_formula():
    # |H1| = |e0 p1 p2 p3 + sum_i q_i prod_{j != i} p_j|, 0 meaning infinite
    rng = random.Random(17)
    for _ in range(RANDOM_ROUNDS):
        e0 = rng.randint(-3, 3)
        rs = []
        for _ in range(3):
            p = rng.randint(1, 9)
            q = rng.randint(1, p)
            rs.append(Fraction(q, p))
        link = seifert_presentation(SeifertData(e0, tuple(rs)))
        group = h1_of_link(link)
        ps = [r.denominator for r in rs]
        qs = [r.numerator for r in rs]
        expected = abs(
            e0 * ps[0] * ps[1] * ps[2]
            + qs[0] * ps[1] * ps[2]
            + qs[1] * ps[0] * ps[2]
            + qs[2] * ps[0] * ps[1]
        )
        assert (group.order or 0) == expected


def test_blow_down_golden():
    link = FramedLinkPresentation(
        ("1", "2"), (Fraction(2), Fraction(-1)), {("1", "2"): 3}
    )
    after = blow_down(link, "2")
    assert after.labels == ("1",)
    assert after.coefficients == (Fraction(11),)
    assert after.linking == {}
    assert str(h1_of_link(after)) == "Z/11"

    plus = FramedLinkPresentation(
        ("1", "2"), (Fraction(2), Fraction(1)), {("1", "2"): 3}
    )
    assert blow_down(plus, "2").coefficients == (Fraction(-7),)


def test_blow_down_preserves_homology():
    rng = random.Random(71)
    for _ in range(RANDOM_ROUNDS):
        k = rng.randint(2, 5)
        labels = tuple(str(i) for i in range(1, k + 1))
        coefficients = [Fraction(rng.randint(-6, 6)) for _ in range(k)]
        victim = rng.randrange(k)
        coefficients[victim] = Fraction(rng.choice((-1, 1)))
        linking = {}
        for i in range(k):
            for j in range(i + 1, k):
                lk = rng.randint(-3, 3)
                if lk:
                    linking[(labels[i], labels[j])] = lk
        link = FramedLinkPresentation(labels, tuple(coefficients), linking)
        before = h1_of_link(link)
        after = h1_of_link(blow_down(link, labels[victim]))
        assert before == after, (link, before, after)


def _random_link(rng):
    """A seeded link: labels out of sorted order, rational framings, some
    pairs absent and some stored with linking zero."""
    k = rng.randint(1, 6)
    labels = tuple(rng.sample(["a", "b", "c", "x1", "x2", "z", "10", "9"], k))
    coefficients = [
        Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 5))) for _ in range(k)
    ]
    linking = {}
    for i in range(k):
        for j in range(i + 1, k):
            if rng.random() < 0.7:
                a, b = sorted((labels[i], labels[j]))
                linking[(a, b)] = rng.choice((0, -3, -2, -1, 1, 2, 3))
    return labels, coefficients, linking


def test_presentation_matrix_matches_definition():
    rng = random.Random(2014)
    for _ in range(RANDOM_ROUNDS):
        labels, coefficients, linking = _random_link(rng)
        link = FramedLinkPresentation(labels, tuple(coefficients), linking)
        reference = tuple(
            tuple(c.numerator if a == b else c.denominator * link.lk(a, b) for b in labels)
            for a, c in zip(labels, coefficients)
        )
        assert presentation_matrix(link) == reference


def test_blow_down_matches_formula():
    # coefficient c_a - eps lk(a, v)^2 and linking lk(a, b) - eps lk(a, v) lk(b, v)
    rng = random.Random(1413)
    for _ in range(RANDOM_ROUNDS):
        labels, coefficients, linking = _random_link(rng)
        victim = rng.choice(labels)
        eps = rng.choice((-1, 1))
        coefficients[labels.index(victim)] = Fraction(eps)
        link = FramedLinkPresentation(labels, tuple(coefficients), linking)
        after = blow_down(link, victim)
        rest = tuple(a for a in labels if a != victim)
        assert after.labels == rest
        assert after.coefficients == tuple(
            c - eps * link.lk(a, victim) ** 2
            for a, c in zip(labels, coefficients) if a != victim
        )
        for a in rest:
            for b in rest:
                if a != b:
                    want = link.lk(a, b) - eps * link.lk(a, victim) * link.lk(b, victim)
                    assert after.lk(a, b) == want
        assert 0 not in after.linking.values()


def test_blow_down_result_equals_validated_construction():
    # the trusted result equals what the validating constructor builds from
    # the blow-down formula over every pair, zero linkings left out
    rng = random.Random(1590)
    for _ in range(RANDOM_ROUNDS):
        labels, coefficients, linking = _random_link(rng)
        victim = rng.choice(labels)
        eps = rng.choice((-1, 1))
        coefficients[labels.index(victim)] = Fraction(eps)
        link = FramedLinkPresentation(labels, tuple(coefficients), linking)
        rest = [a for a in labels if a != victim]
        want_linking = {}
        for i, a in enumerate(rest):
            for b in rest[i + 1:]:
                lk = link.lk(a, b) - eps * link.lk(a, victim) * link.lk(b, victim)
                if lk:
                    want_linking[min(a, b), max(a, b)] = lk
        want = FramedLinkPresentation(
            tuple(rest),
            tuple(c - eps * link.lk(a, victim) ** 2
                  for a, c in zip(labels, coefficients) if a != victim),
            want_linking,
        )
        after = blow_down(link, victim)
        assert after == want
        assert after == FramedLinkPresentation(
            after.labels, after.coefficients, dict(after.linking))
        assert link.linking == linking


def test_blow_down_errors():
    link = FramedLinkPresentation(("1",), (Fraction(3, 2),))
    with pytest.raises(ValueError, match="needs framing \\+1 or -1"):
        blow_down(link, "1")
    with pytest.raises(ValueError, match="no component labelled"):
        blow_down(link, "9")


def test_rational_to_chain():
    chain = rational_to_chain(Fraction(-5, 4))
    assert chain.labels == ("c1", "c2", "c3", "c4")
    assert chain.coefficients == (Fraction(-2),) * 4
    assert chain.linking == {("c1", "c2"): 1, ("c2", "c3"): 1, ("c3", "c4"): 1}
    assert str(h1_of_link(chain)) == "Z/5"

    for p in range(2, 40):
        for q in range(1, p):
            r = Fraction(-p, q)
            if r >= -1:
                continue
            chain = rational_to_chain(r)
            group = h1_of_link(chain)
            assert group.order == abs(r.numerator)
            # the chain surgery and the single rational component agree
            assert group == h1_of_link(unknot(r))


def _bytes_per_instance(make, count=2000):
    """Traced bytes held per object built by ``make``."""
    tracemalloc.start()
    try:
        kept = [make() for _ in range(count)]
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(kept) == count
    return held / count


def test_trusted_link_is_as_compact_as_a_validated_one():
    # the trusted constructor sets the fields in order, as __init__ does,
    # so its instance dict shares keys; a dict filled by update did not
    labels, coefficients, linking = ("a", "b"), (Fraction(1), Fraction(2)), {("a", "b"): 1}
    trusted = _bytes_per_instance(
        lambda: FramedLinkPresentation._trusted(labels, coefficients, linking))
    validated = _bytes_per_instance(
        lambda: FramedLinkPresentation(labels, coefficients, linking))
    assert trusted <= validated + 8
    link = FramedLinkPresentation._trusted(labels, coefficients, linking)
    assert link == FramedLinkPresentation(labels, coefficients, linking)
