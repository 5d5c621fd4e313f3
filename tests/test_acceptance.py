"""End-to-end checks, one per advertised capability, each with its time budget.

Run with -s to watch the pass/fail lines stream; each test prints exactly
one "criterion N: ..." line.
"""

import contextlib
import random
import time
from fractions import Fraction
from math import gcd

from openbook.cli import main
from openbook.homology import h1_of_open_book
from openbook.kirby import (
    FramedLinkPresentation,
    SeifertData,
    blow_down,
    h1_of_link,
    rational_to_chain,
    seifert_presentation,
)
from openbook.mcg import (
    TwistWord,
    applicable_moves,
    apply_relation,
    boundary_exponent_delta,
    equal_classes,
    evaluate,
)
from openbook.factorsearch import SearchProblem, search_positive, verify_factorisation
from openbook.stabilisation import boundary_parallel_curve, stabilize
from openbook.surface import curve_weights, load_builtin, relation_tables
from openbook.surgery import OpenBook, neg_continued_fraction, surgery


@contextlib.contextmanager
def criterion(number, budget):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    in_budget = elapsed < budget
    print(
        f"criterion {number}: {'PASS' if in_budget else 'FAIL'}"
        f" ({elapsed:.2f}s, budget {budget:g}s)"
    )
    assert in_budget, f"criterion {number} took {elapsed:.2f}s, budget {budget:g}s"


def trefoil_book():
    spec, catalog = load_builtin("sigma11")
    return OpenBook.standard(spec, TwistWord.parse(spec, catalog, "a b"))


def test_criterion_01_continued_fractions(capsys):
    with criterion(1, 1.0):
        assert main(["cf", "-5/4"]) == 0
        assert capsys.readouterr().out == "[-3+1, -2, -2, -2]^-\n"
        for p in range(-200, -1):
            for q in range(1, 201):
                if gcd(p, q) != 1:
                    continue
                r = Fraction(p, q)
                if r >= -1:
                    continue
                cf = neg_continued_fraction(r)
                assert all(c <= -2 for c in cf.entries)
                assert cf.value() == r


def test_criterion_02_inadmissible_surgery_golden():
    with criterion(2, 1.0):
        out = surgery(trefoil_book(), "1", Fraction(5), n=1)
        assert out.surface.name == "sigma12"
        assert str(out.word) == "a b g^-1 d1 d2^4"


def test_criterion_03_small_inadmissible_surgery():
    with criterion(3, 1.0):
        out = surgery(trefoil_book(), "1", Fraction(2), n=1)
        assert str(out.word) == "a b g^-1 d1 d2"


def test_criterion_04_surgery_family():
    with criterion(4, 1.0):
        for nhat in range(11):
            out = surgery(trefoil_book(), "1", Fraction(5 + nhat), n=1)
            assert str(out.word) == f"a b g^-1 d1 d2^{4 + nhat}"


def test_criterion_05_homology():
    with criterion(5, 1.0):
        assert str(h1_of_open_book(trefoil_book())) == "0"
        for nhat in range(11):
            out = surgery(trefoil_book(), "1", Fraction(5 + nhat), n=1)
            group = h1_of_open_book(out)
            assert str(group) == f"Z/{5 + nhat}"
            single = FramedLinkPresentation(("1",), (Fraction(5 + nhat),))
            assert group == h1_of_link(single)
        phi_prime = surgery(trefoil_book(), "1", Fraction(2), n=1)
        assert str(h1_of_open_book(phi_prime)) == "Z/2"


def test_criterion_06_seifert_kirby():
    with criterion(6, 10.0):
        data = SeifertData(-1, (Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)))
        group = h1_of_link(seifert_presentation(data))
        assert str(group) == "Z/2"
        phi_prime = surgery(trefoil_book(), "1", Fraction(2), n=1)
        assert group == h1_of_open_book(phi_prime)

        rng = random.Random(6)
        for _ in range(1000):
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
            assert h1_of_link(link) == h1_of_link(blow_down(link, labels[victim]))

        for _ in range(1000):
            p = rng.randint(2, 60)
            q = rng.randint(1, p - 1)
            r = Fraction(-p, q)
            if r >= -1:
                continue
            single = FramedLinkPresentation(("1",), (r,))
            assert h1_of_link(single) == h1_of_link(rational_to_chain(r))


def test_criterion_07_relation_oracle():
    with criterion(7, 1.0):
        for name in ("sigma11", "sigma12"):
            spec, catalog = load_builtin(name)
            tables = relation_tables(name)
            parse = lambda text: evaluate(TwistWord.parse(spec, catalog, text))
            for u, v in tables.braid_pairs:
                assert equal_classes(parse(f"{u} {v} {u}"), parse(f"{v} {u} {v}"))
            for u, v in tables.commute_pairs:
                assert equal_classes(parse(f"{u} {v}"), parse(f"{v} {u}"))
            lhs, rhs = tables.chain
            assert equal_classes(parse(" ".join(lhs)), parse(" ".join(rhs)))
            if tables.lantern is not None:
                lhs, rhs = tables.lantern
                assert equal_classes(parse(" ".join(lhs)), parse(" ".join(rhs)))


def test_criterion_08_boundary_exponent_invariance():
    with criterion(8, 60.0):
        spec, catalog = load_builtin("sigma12")
        names = sorted(catalog)
        weights = curve_weights(spec, catalog)

        def weight(word):
            # the capping weights, a class invariant on any page
            return tuple(
                sum(e * weights[n][j] for n, e in word.entries) for j in range(2)
            )

        rng = random.Random(8)
        applications = 0
        while applications < 10_000:
            text = " ".join(
                f"{rng.choice(names)}^{rng.choice((-1, 1, 2))}"
                for _ in range(rng.randint(1, 4))
            )
            word = TwistWord.parse(spec, catalog, text)
            base = evaluate(word)
            delta = boundary_exponent_delta(word, 2, 1)
            base_weight = weight(word)
            for move, position, direction in applicable_moves(word):
                other = apply_relation(word, move, position, direction)
                assert boundary_exponent_delta(other, 2, 1) == delta
                assert weight(other) == base_weight
                assert equal_classes(base, evaluate(other))
                applications += 1


def test_criterion_09_search_positive_cases():
    with criterion(9, 60.0):
        spec, catalog = load_builtin("sigma12")
        word = TwistWord.parse(spec, catalog, "d1 d2 e^2")
        outcome = search_positive(SearchProblem(word, ("s1", "s2", "s3"), 3))
        assert outcome.found and outcome.word.length == 3
        assert verify_factorisation(outcome.word, evaluate(word))

        spec, catalog = load_builtin("sigma11")
        word = TwistWord.parse(spec, catalog, "d")
        outcome = search_positive(SearchProblem(word, ("a", "b"), 12))
        assert outcome.found and outcome.word.length == 12
        assert verify_factorisation(outcome.word, evaluate(word))


def test_criterion_10_search_obstruction_certificate():
    with criterion(10, 600.0):
        spec, catalog = load_builtin("sigma12")
        target = TwistWord.parse(spec, catalog, "a b g^-1 d1 d2^4")
        alphabet = ("a", "b", "g", "d1", "d2", "e", "s1", "s2", "s3")
        problem = SearchProblem(target, alphabet, 8)
        first = search_positive(problem)
        assert not first.found
        assert first.certificate is not None
        assert first.certificate.max_length == 8
        assert first.certificate.any_length  # the weights force length 5
        second = search_positive(problem)
        assert second == first  # the certificate is reproducible


def test_criterion_11_stabilisation_invariance():
    with criterion(11, 60.0):
        rng = random.Random(11)
        books = {name: load_builtin(name) for name in ("sigma11", "sigma12")}
        for _ in range(1000):
            spec, catalog = books[rng.choice(("sigma11", "sigma12"))]
            names = sorted(catalog)
            text = " ".join(
                f"{rng.choice(names)}^{rng.choice((-2, -1, 1, 2))}"
                for _ in range(rng.randint(0, 4))
            )
            word = TwistWord.parse(spec, catalog, text)
            before = h1_of_open_book(OpenBook.standard(spec, word))
            position = rng.randint(1, spec.boundary)
            result = stabilize(spec, catalog, position)
            fresh = 1 if position == 1 else result.surface.boundary
            entries = tuple((result.renames.get(n, n), e) for n, e in word.entries)
            entries += ((boundary_parallel_curve(result.catalog, fresh), 1),)
            moved = TwistWord(result.surface, result.catalog, entries)
            after = h1_of_open_book(OpenBook.standard(result.surface, moved))
            assert before == after
