import hashlib
import math
import random
from fractions import Fraction

import pytest

from openbook import stabilisation
from openbook.homology import h1_of_open_book
from openbook.mcg import TwistWord, equal_classes, evaluate
from openbook.catalog_json import catalog_to_json
from openbook.surface import load_builtin
from openbook.surgery import (
    NegCF,
    OpenBook,
    _fresh_labels,
    admissible_surgery,
    default_n,
    inadmissible_surgery,
    neg_continued_fraction,
    parse_rational,
    surgery,
)


def trefoil_book():
    spec, catalog = load_builtin("sigma11")
    return OpenBook.standard(spec, TwistWord.parse(spec, catalog, "a b"))


def test_parse_rational():
    assert parse_rational("5") == Fraction(5)
    assert parse_rational("-7/2") == Fraction(-7, 2)
    assert parse_rational("3/4") == Fraction(3, 4)
    for bad in ("", "abc", "1/0", "--3", "1/2/3"):
        with pytest.raises(ValueError, match="bad surgery coefficient"):
            parse_rational(bad)


def test_continued_fraction_goldens():
    cf = neg_continued_fraction(Fraction(-5, 4))
    assert cf.entries == (-2, -2, -2, -2)
    assert cf.display() == "[-3+1, -2, -2, -2]^-"
    assert cf.value() == Fraction(-5, 4)
    assert neg_continued_fraction(Fraction(-2)).display() == "[-3+1]^-"
    assert neg_continued_fraction(Fraction(-7, 2)).entries == (-4, -2)


def test_continued_fraction_round_trip():
    # every admissible coefficient reconstructs from its expansion
    for p in range(-60, -1):
        for q in range(1, 15):
            r = Fraction(p, q)
            if r >= -1:
                continue
            cf = neg_continued_fraction(r)
            assert all(c <= -2 for c in cf.entries)
            assert cf.value() == r


def test_continued_fraction_rejects_shallow_slopes():
    for r in (Fraction(-1), Fraction(0), Fraction(-1, 2), Fraction(3)):
        with pytest.raises(ValueError, match="needs r < -1"):
            neg_continued_fraction(r)
    for entries in ((), (-2, -1), (-3, 0, -2)):
        with pytest.raises(ValueError, match="entries of a negative continued fraction are <= -2"):
            NegCF(entries)


def test_default_n():
    assert default_n(Fraction(5)) == 1
    assert default_n(Fraction(7, 3)) == 1
    assert default_n(Fraction(1, 2)) == 3
    assert default_n(Fraction(1)) == 2
    for r in (Fraction(0), Fraction(-3)):
        with pytest.raises(ValueError, match="only positive coefficients"):
            default_n(r)


def test_open_book_validation():
    spec, catalog = load_builtin("sigma12")
    word = TwistWord.parse(spec, catalog, "a")
    ob = OpenBook(spec, word, ("K", "L"))
    assert ob.binding_index("K") == 1 and ob.binding_index("L") == 2
    with pytest.raises(ValueError, match="no binding labelled"):
        ob.binding_index("M")
    with pytest.raises(ValueError, match="one binding label per boundary"):
        OpenBook(spec, word, ("K",))
    with pytest.raises(ValueError, match="distinct"):
        OpenBook(spec, word, ("K", "K"))
    with pytest.raises(ValueError, match="different surface"):
        OpenBook(spec, trefoil_book().word, ("K", "L"))
    assert OpenBook.standard(spec, word).bindings == ("1", "2")


def test_admissible_traces():
    ob = trefoil_book()
    res = surgery(ob, "1", Fraction(-2))
    assert str(res.word) == "a b d1 d2"
    assert res.bindings == ("2", "1")
    assert res.surface.boundary == 2

    res = surgery(ob, "1", Fraction(-3))
    assert str(res.word) == "a b d1 d3 d2"
    assert res.bindings == ("2", "1", "3")

    res = surgery(ob, "1", Fraction(-7, 2))
    assert str(res.word) == "a b d1 d3 d4 d2^2"
    assert res.bindings == ("2", "1", "3", "4")

    res = surgery(ob, "1", Fraction(-5, 4))
    assert str(res.word) == "a b d1 d2^4"
    assert res.bindings == ("2", "1")

    # the dispatcher and the direct entry point agree
    direct = admissible_surgery(ob, "1", Fraction(-2))
    assert direct.word == surgery(ob, "1", Fraction(-2)).word


def test_inadmissible_traces():
    ob = trefoil_book()
    res = surgery(ob, "1", Fraction(2), n=1)
    assert str(res.word) == "a b g^-1 d1 d2"
    assert res.bindings == ("2", "1")

    res = surgery(ob, "1", Fraction(5), n=1)
    assert str(res.word) == "a b g^-1 d1 d2^4"
    assert res.bindings == ("2", "1")
    # n defaults to the least valid twist count
    assert surgery(ob, "1", Fraction(5)).word == res.word

    direct = inadmissible_surgery(ob, "1", Fraction(5), n=1)
    assert direct.word == res.word


def test_surgery_errors():
    ob = trefoil_book()
    with pytest.raises(ValueError, match="is in \\[-1, 0\\]"):
        surgery(ob, "1", Fraction(-1, 2))
    with pytest.raises(ValueError, match="no binding labelled"):
        surgery(ob, "2", Fraction(-2))
    with pytest.raises(ValueError, match="1/n < r"):
        inadmissible_surgery(ob, "1", Fraction(5), n=0)
    with pytest.raises(ValueError, match="none exists when p divides q"):
        inadmissible_surgery(ob, "1", Fraction(5), n=2)
    # p | q: the window q/p < n < q/p + 1 is empty
    with pytest.raises(ValueError, match="none exists when p divides q"):
        surgery(ob, "1", Fraction(1, 2))
    with pytest.raises(ValueError, match="admissible"):
        inadmissible_surgery(ob, "1", Fraction(-3))
    for r in (Fraction(-1), Fraction(-1, 2), Fraction(2)):
        with pytest.raises(ValueError, match=f"admissible surgery needs r < -1, got {r};"):
            admissible_surgery(ob, "1", r)


def test_surgery_rejects_twist_count_for_admissible():
    # n counts the negative twists of an inadmissible surgery; an
    # admissible coefficient has none, so a given n is an error, not ignored
    ob = trefoil_book()
    for r, n in ((Fraction(-7, 2), 3), (Fraction(-2), 1), (Fraction(-5, 4), 0)):
        with pytest.raises(ValueError, match=f"twist count n={n} applies only to r > 0"):
            surgery(ob, "1", r, n)
    assert surgery(ob, "1", Fraction(-7, 2)).word.render() == "a b d1 d3 d4 d2^2"
    with pytest.raises(ValueError, match="is in \\[-1, 0\\]"):
        surgery(ob, "1", Fraction(-1, 2), 1)


def test_integral_surgery_homology_orders():
    # p-surgery on a knot in the three-sphere has first homology Z/p,
    # whatever the knot: only the framing matrix survives abelianisation
    ob = trefoil_book()
    for p in range(2, 16):
        res = surgery(ob, "1", Fraction(p), n=1)
        group = h1_of_open_book(res)
        assert group.order == p, (p, str(group))
    for p, q in ((7, 2), (9, 4), (11, 3)):
        res = surgery(ob, "1", Fraction(p, q))
        assert h1_of_open_book(res).order == p


def test_negative_surgeries_match_inverse_slopes():
    # -p surgery: same drill, mirrored framing; order is still p
    ob = trefoil_book()
    rng = random.Random(5)
    for _ in range(20):
        p = rng.randint(2, 40)
        q = rng.randint(1, p - 1)
        r = Fraction(-p, q)
        if r >= -1:
            continue
        res = surgery(ob, "1", r)
        assert h1_of_open_book(res).order == abs(r.numerator)


def test_surgery_keeps_page_class_away_from_binding():
    # drilling keeps the original monodromy acting identically on the
    # old page: restricting the new class to the old generators returns it
    ob = trefoil_book()
    res = surgery(ob, "1", Fraction(-2))
    cls = evaluate(res.word)
    old = evaluate(ob.word)
    # x, y images of the stabilised class abelianise like the old ones
    for row_new, row_old in zip(cls.M[:2], old.M):
        assert row_new[:2] == row_old


def test_surgery_digest_is_pinned():
    # SHA-256 over the page, word, bindings and H1 of every surgery on the
    # trefoil book with |p| < 30, q < 6, errors included; pinned from the
    # eager stabilisation that rebuilt every curve of every page
    book = trefoil_book()
    digest = hashlib.sha256()
    for q in range(1, 6):
        for p in range(-29, 30):
            if math.gcd(p, q) != 1:
                continue
            r = Fraction(p, q)
            try:
                ob = surgery(book, "1", r)
                text = "\n".join([
                    catalog_to_json(ob.surface, ob.word.catalog),
                    ob.word.render(),
                    " ".join(ob.bindings),
                    str(h1_of_open_book(ob)),
                ])
            except ValueError as e:
                text = f"error: {e}"
            digest.update(f"{r}\n{text}\n".encode())
    assert digest.hexdigest() == "70dae8b9c5d1c3643c6112d046c22003f7c505fd763262c2ca937432aeff9a21"


def _surgery_h1_coefficients():
    """The coefficients of the benchmark's surgery-h1 workload: r = -p/q
    and p/q, p <= 40 and q <= 8 coprime, outside [-1, 0], with p not
    dividing q when r > 0 and at most 8 stabilisations."""
    out = []
    for p in range(1, 41):
        for q in range(1, 9):
            if math.gcd(p, q) != 1:
                continue
            for r in (Fraction(-p, q), Fraction(p, q)):
                if -1 <= r <= 0 or (r > 0 and q % p == 0):
                    continue
                residual = r if r < 0 else Fraction(p, q - default_n(r) * p)
                entries = neg_continued_fraction(residual).display_entries()
                depth = sum(abs(e + 2) for e in entries)
                if depth <= 8:
                    out.append((depth, r))
    return out


def _book_text(ob):
    return (catalog_to_json(ob.surface, ob.word.catalog), ob.word.entries, ob.bindings,
            str(h1_of_open_book(ob)))


def test_memo_changes_no_book():
    # every surgery-h1 coefficient gives the same page, word, bindings and
    # H1 from a memo filled deepest first, or shallowest first, as from an
    # empty memo.  Each book is read in full as soon as it is built, so
    # later pages are stabilised from pages whose curves were carried
    book, coefficients = trefoil_book(), _surgery_h1_coefficients()
    assert len(coefficients) > 300 and max(coefficients)[0] == 8
    want = {}
    for _, r in coefficients:
        stabilisation._stabilised.cache_clear()
        want[r] = _book_text(surgery(book, "1", r))
    for deepest_first in (True, False):
        stabilisation._stabilised.cache_clear()
        got = {}
        for _, r in sorted(coefficients, reverse=deepest_first):
            got[r] = _book_text(surgery(book, "1", r))
        assert got == want
        # one chain of pages serves every coefficient: the seven pages
        # after sigma12, which stabilize hands back without the memo
        info = stabilisation._stabilised.cache_info()
        assert (info.currsize, info.misses) == (7, 7)


def test_memo_keeps_its_bound():
    # r = -480 stabilises the trefoil page 479 times, all but the first
    # through the memo, which keeps only the last MEMO_PAGES pages
    stabilisation._stabilised.cache_clear()
    deep = surgery(trefoil_book(), "1", Fraction(-480))
    assert deep.surface.boundary == 480
    info = stabilisation._stabilised.cache_info()
    assert (info.hits, info.misses) == (0, 478)
    assert info.currsize == info.maxsize == stabilisation.MEMO_PAGES


def _least_free_labels(bindings, k):
    """k fresh labels, each the least positive integer not yet a label."""
    taken, out = list(bindings), []
    for _ in range(k):
        i = 1
        while str(i) in taken:
            i += 1
        taken.append(str(i))
        out.append(str(i))
    return out


def test_fresh_labels_are_least_free_integers():
    rng = random.Random(5)
    pool = ["1", "2", "3", "5", "8", "01", "0", "-1", "x", "K", "10", "12"]
    for _ in range(200):
        bindings = tuple(rng.sample(pool, rng.randint(0, len(pool))))
        fresh = _fresh_labels(bindings)
        assert [next(fresh) for _ in range(15)] == _least_free_labels(bindings, 15)
    # on a book with other labels: the binding at position 2, then at 1
    spec, catalog = load_builtin("sigma12")
    book = OpenBook(spec, TwistWord.parse(spec, catalog, "a b"), ("2", "x"))
    assert surgery(book, "x", Fraction(-4)).bindings == ("2", "x", "1", "3", "4")
    assert surgery(book, "2", Fraction(-4)).bindings == ("1", "x", "2", "3", "4")
