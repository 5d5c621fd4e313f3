import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import openbook.factorsearch as factorsearch
from openbook.factorsearch import (
    SearchProblem,
    search_positive,
    verify_factorisation,
    word_weights,
)
from openbook.freegroup import sanov_basis, sanov_substitute
from openbook.homology import matrix_rank
from openbook.mcg import (
    TwistWord,
    applicable_moves,
    apply_relation,
    equal_classes,
    evaluate,
)
from openbook.catalog_json import catalog_from_json, catalog_to_json
from openbook.stabilisation import stabilize
from openbook.surface import (
    CurveConfig,
    SurfaceSpec,
    identity_key,
    load_builtin,
    right_compose,
    twist_step,
)
from openbook.surgery import OpenBook, surgery


def brute_force(surface, catalog, target, alphabet, max_length):
    """Independent oracle: plain enumeration in length-then-lex order."""
    for length in range(max_length + 1):
        for letters in itertools.product(alphabet, repeat=length):
            word = TwistWord.parse(surface, catalog, " ".join(letters))
            if equal_classes(evaluate(word), target):
                return word
    return None


def test_word_weights_goldens():
    spec, catalog = load_builtin("sigma12")

    def weights(text):
        return word_weights(TwistWord.parse(spec, catalog, text))

    # phi_R = a b g^-1 d1 d2^(R-1) weighs (2, 12 R - 22)
    assert weights("a b g^-1 d1 d2^4") == (2, 38)
    # both sides of the lantern relation
    assert weights("d1 d2 e^2") == weights("s1 s2 s3") == (14, 14)
    assert weights("d2^4") == (0, 48)
    assert weights("d1^2 d2") == (24, 12)
    assert weights("") == (0, 0)
    spec1, catalog1 = load_builtin("sigma11")
    assert word_weights(TwistWord.parse(spec1, catalog1, "a b " * 6)) == (12,)
    assert word_weights(TwistWord.parse(spec1, catalog1, "d")) == (12,)
    # no weights are defined off genus 1
    spec2 = SurfaceSpec.standard(2, 1)
    a = CurveConfig((1, 0, 0, 0), (0, 1, 0, 0), (0, 1, 0, 0))
    assert word_weights(TwistWord.parse(spec2, {"a": a}, "a")) is None


def test_verify_factorisation():
    spec, catalog = load_builtin("sigma12")
    target = evaluate(TwistWord.parse(spec, catalog, "d1 d2 e^2"))
    assert verify_factorisation(TwistWord.parse(spec, catalog, "s1 s2 s3"), target)
    assert not verify_factorisation(TwistWord.parse(spec, catalog, "s1 s2"), target)
    # class-correct but not positive does not count
    sneaky = TwistWord.parse(spec, catalog, "d1 d2 e^2 s1 s1^-1")
    assert sneaky.is_positive()  # the cancelling pair merged away
    assert verify_factorisation(sneaky, target)
    negative = TwistWord.parse(spec, catalog, "s1 s2 s3 a a^-1 b b^-1")
    assert verify_factorisation(negative, target)
    assert not verify_factorisation(
        TwistWord.parse(spec, catalog, "d1 d2 e^2 a a^-1 g"), target
    )


_SIGMA12 = load_builtin("sigma12")
_sigma12_positive = st.lists(st.sampled_from(sorted(_SIGMA12[1])), max_size=6)


@settings(max_examples=80, deadline=None)
@given(_sigma12_positive, _sigma12_positive, st.randoms(use_true_random=False))
def test_class_key_is_faithful(u, v, rng):
    spec, catalog = _SIGMA12

    def walked(names, sign=1, start=identity_key(spec.rank)):
        key = start
        for name in names:
            key = right_compose(key, twist_step(catalog[name], spec.genus, sign))
        return key

    def key_of(cls):
        return (sanov_substitute(sanov_basis(spec.rank), cls.exact.images), cls.D)

    def word(names):
        return TwistWord(spec, catalog, tuple((n, 1) for n in names))

    cu, cv = evaluate(word(u)), evaluate(word(v))
    assert walked(u) == key_of(cu)
    assert (walked(u) == walked(v)) == equal_classes(cu, cv)
    # a relation move gives an equal class, and so the same key
    moves = applicable_moves(word(u))
    if moves:
        move, position, direction = rng.choice(moves)
        moved = apply_relation(word(u), move, position, direction)
        assert walked(n for n, _ in moved.expanded()) == walked(u)
    # the suffix-table key: u o v^-1 by folding v's inverse twists, last first
    needed = walked(reversed(v), -1, walked(u))
    assert needed == key_of(evaluate(word(u) * word(v).inverse()))


def test_found_word_is_verified(monkeypatch):
    spec, catalog = load_builtin("sigma12")
    word = TwistWord.parse(spec, catalog, "d1 d2 e^2")
    problem = SearchProblem(word, ("s1", "s2", "s3"), 3)
    monkeypatch.setattr(factorsearch, "verify_factorisation", lambda w, t: False)
    with pytest.raises(RuntimeError, match="s1 s2 s3"):
        search_positive(problem)


def test_search_types_the_catalog_once(monkeypatch):
    # one curve_weights table serves the target and the letters, and a
    # search without pruning types nothing
    calls = []
    typed = factorsearch.curve_weights
    monkeypatch.setattr(
        factorsearch, "curve_weights", lambda *args: calls.append(args) or typed(*args)
    )
    spec, catalog = load_builtin("sigma12")
    word = TwistWord.parse(spec, catalog, "d1 d2 e^2")
    problem = SearchProblem(word, ("s1", "s2", "s3"), 3)
    assert str(search_positive(problem).word) == "s1 s2 s3"
    assert len(calls) == 1
    assert str(search_positive(problem, prune=False).word) == "s1 s2 s3"
    assert len(calls) == 1


def test_lantern_search():
    spec, catalog = load_builtin("sigma12")
    word = TwistWord.parse(spec, catalog, "d1 d2 e^2")
    target = evaluate(word)
    outcome = search_positive(SearchProblem(word, ("s1", "s2", "s3"), 3))
    assert outcome.found
    assert str(outcome.word) == "s1 s2 s3"
    assert outcome.certificate is None
    assert verify_factorisation(outcome.word, target)


def test_chain_search():
    spec, catalog = load_builtin("sigma11")
    word = TwistWord.parse(spec, catalog, "d")
    target = evaluate(word)
    outcome = search_positive(SearchProblem(word, ("a", "b"), 12))
    assert str(outcome.word) == "a^4 b a^2 b^2 a^2 b"
    # both classic factorisations are valid but lexicographically later
    for text in ("a b " * 6, "a a b " * 4):
        other = TwistWord.parse(spec, catalog, text)
        assert verify_factorisation(other, target)
        assert [n for n, _ in outcome.word.expanded()] < [
            n for n, _ in other.expanded()
        ]


def test_search_matches_brute_force():
    rng = random.Random(3)
    spec, catalog = load_builtin("sigma11")
    alphabet = ("a", "b", "d")
    for _ in range(12):
        length = rng.randint(0, 4)
        text = " ".join(rng.choice(alphabet) for _ in range(length))
        word = TwistWord.parse(spec, catalog, text)
        target = evaluate(word)
        expected = brute_force(spec, catalog, target, alphabet, 4)
        outcome = search_positive(SearchProblem(word, alphabet, 4))
        assert outcome.found
        assert outcome.word == expected

    # a class with no positive factorisation in range: both report failure
    word = TwistWord.parse(spec, catalog, "a^-1")
    target = evaluate(word)
    assert brute_force(spec, catalog, target, alphabet, 3) is None
    assert not search_positive(SearchProblem(word, alphabet, 3)).found


def _sigma13_page():
    """The genus-one, three-boundary page of surgery r = 7/2 on the
    binding of the trefoil book."""
    spec, catalog = load_builtin("sigma11")
    book = OpenBook.standard(spec, TwistWord.parse(spec, catalog, "a b"))
    out = surgery(book, "1", Fraction(7, 2), 1)
    return out.surface, out.word.catalog, out.word


_SIGMA13 = _sigma13_page()
_PAGES = {name: load_builtin(name) for name in ("sigma11", "sigma12")}
_PAGES["sigma13"] = _SIGMA13[:2]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(_PAGES)), st.data())
def test_pruning_does_not_change_answers(page, data):
    # unpruned, pruned depth-first and pruned meet-in-the-middle search
    # return the same word or all exhaust, on any page: the commuting
    # pairs of the canonical prune are derived from class keys
    spec, catalog = _PAGES[page]
    exact = sorted(n for n in catalog if catalog[n].aut is not None)
    alphabet = tuple(
        data.draw(st.lists(st.sampled_from(exact), min_size=1, max_size=4, unique=True))
    )
    max_length = data.draw(st.integers(min_value=0, max_value=4))
    if data.draw(st.booleans()):
        letters = st.lists(st.sampled_from(alphabet)) | st.permutations(alphabet)
        text = " ".join(data.draw(letters)[:max_length])
    else:
        powers = st.tuples(st.sampled_from(exact), st.sampled_from((-1, 1, 2)))
        text = " ".join(f"{n}^{e}" for n, e in data.draw(st.lists(powers, max_size=4)))
    word = TwistWord.parse(spec, catalog, text)
    problem = SearchProblem(word, alphabet, max_length)
    plain = search_positive(problem, prune=False)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(factorsearch, "MITM_THRESHOLD", 10**9)
        depth_first = search_positive(problem)
        mp.setattr(factorsearch, "MITM_THRESHOLD", 1)
        halved = search_positive(problem)
    assert plain.word == depth_first.word == halved.word
    if halved.certificate:
        # the mode counts the one-twist classes the walk keeps
        start = identity_key(spec.rank)
        classes = {
            right_compose(start, twist_step(catalog[n], spec.genus)) for n in alphabet
        }
        mitm = len(classes) > 1 and max_length > 0
        assert halved.certificate.mode == ("mitm" if mitm else "iddfs")


def test_derived_commutation_on_sigma13():
    # the sigma13 page has no builtin relation tables; its commuting
    # pairs come from class keys, and the certificate shows the prunes.
    # e and s1 repeat the classes of a and g, so the walk leaves them out
    spec, catalog, word = _SIGMA13
    assert str(word) == "a b g^-1 d1 g3^2 d3 d2"
    alphabet = ("a", "b", "g", "d1", "g3", "e", "s1", "d2", "d3")
    outcome = search_positive(SearchProblem(word, alphabet, 5))
    assert outcome.certificate.lines() == (
        "exhausted: no positive factorisation up to length 5",
        "alphabet: a b g d1 g3 e s1 d2 d3",
        "nodes: 71",
        "pruned weight: 115",
        "pruned homology: 12",
        "pruned memo: 0",
        "pruned canonical: 219",
        "pruned infeasible: 0",
        "mode: iddfs",
    )
    # the weights (2, 26, 26) allow lengths 4 to 6 only (g3^2, g3 d2 d3
    # or d2^2 d3^2 beside two nonseparating twists), so length 6 settles
    # every length
    assert search_positive(SearchProblem(word, alphabet, 6)).certificate.any_length


def test_meet_in_middle_matches_depth_first(monkeypatch):
    spec, catalog = load_builtin("sigma11")
    word = TwistWord.parse(spec, catalog, "d")
    problem = SearchProblem(word, ("a", "b"), 12)
    plain = search_positive(problem)
    assert plain.certificate is None or plain.certificate.mode == "iddfs"
    monkeypatch.setattr(factorsearch, "MITM_THRESHOLD", 1)
    halved = search_positive(problem)
    assert halved.word == plain.word == TwistWord.parse(
        spec, catalog, "a^4 b a^2 b^2 a^2 b"
    )

    # and on an exhausted search both modes agree there is nothing to find
    hopeless = SearchProblem(word, ("a", "b"), 8)
    assert not search_positive(hopeless).found
    monkeypatch.setattr(factorsearch, "MITM_THRESHOLD", 10**9)
    assert not search_positive(hopeless).found


def test_search_is_deterministic():
    spec, catalog = load_builtin("sigma11")
    # the weight 2 allows length 2 alone, which the homology prune rules out
    problem = SearchProblem(TwistWord.parse(spec, catalog, "b^3 a^-1"), ("a", "b"), 3)
    first = search_positive(problem)
    second = search_positive(problem)
    assert first == second
    assert not first.found
    assert first.certificate.lines() == (
        "exhausted: no positive factorisation up to length 3",
        "alphabet: a b",
        "nodes: 3",
        "pruned weight: 3",
        "pruned homology: 2",
        "pruned memo: 0",
        "pruned canonical: 0",
        "pruned infeasible: 0",
        "mode: iddfs",
        "no positive factorisation over this alphabet at any length",
    )
    assert str(first.certificate) == "\n".join(first.certificate.lines())


@settings(max_examples=300, deadline=None)
@given(st.sampled_from((1, 2)), st.data())
def test_rank_bound_is_exact(genus, data):
    # the cut reads (D_target - D_prefix) J from the first 2g columns of
    # each D; a sum of a few outer products gives every rank.  From 2g
    # letters left the check always passes, so the search skips it there
    cols = 2 * genus
    rows = data.draw(st.integers(min_value=1, max_value=5))
    entry = st.integers(min_value=-4, max_value=4)
    prefix = [data.draw(st.lists(entry, min_size=rows + cols, max_size=rows + cols))
              for _ in range(rows)]
    delta = [[0] * cols for _ in range(rows)]
    for _ in range(data.draw(st.integers(min_value=0, max_value=3))):
        u = data.draw(st.lists(entry, min_size=rows, max_size=rows))
        v = data.draw(st.lists(entry, min_size=cols, max_size=cols))
        delta = [[d + x * y for d, y in zip(row, v)] for row, x in zip(delta, u)]
    target = tuple(
        tuple(p + d for p, d in zip(p_row, d_row)) for p_row, d_row in zip(prefix, delta)
    )
    remaining = data.draw(st.integers(min_value=1, max_value=cols + 1))
    ok = factorsearch._rank_bound_ok(prefix, target, remaining)
    assert ok == (matrix_rank(delta) <= remaining)
    assert ok or remaining < cols


def test_duplicate_letters_are_walked_once():
    # e is a's class on sigma12: the search keeps the earlier letter of
    # the given order, and unpruned search finds the same word
    spec, catalog = load_builtin("sigma12")
    square = TwistWord.parse(spec, catalog, "a^2")
    for alphabet, found in ((("a", "e"), "a^2"), (("e", "a"), "e^2")):
        problem = SearchProblem(square, alphabet, 2)
        assert str(search_positive(problem).word) == found
        assert str(search_positive(problem, prune=False).word) == found
    # the certificate lists the given alphabet; the walk is the one over
    # the letters kept, count for count
    word = TwistWord.parse(spec, catalog, "a b g^-1 d1 d2^4")
    full = ("a", "b", "g", "d1", "d2", "e", "s1", "s2", "s3")
    kept = tuple(n for n in full if n not in ("e", "s1"))
    lines = search_positive(SearchProblem(word, full, 8)).certificate.lines()
    assert lines[1] == "alphabet: a b g d1 d2 e s1 s2 s3"
    lean = search_positive(SearchProblem(word, kept, 8)).certificate.lines()
    assert lines[:1] + lines[2:] == lean[:1] + lean[2:]


def test_homology_obstruction_needs_no_nodes():
    # tau_b moves a class that every twist in {a} fixes: the search is
    # refuted before a single word is tried
    spec, catalog = load_builtin("sigma11")
    word = TwistWord.parse(spec, catalog, "b")
    outcome = search_positive(SearchProblem(word, ("a",), 6))
    assert not outcome.found
    assert outcome.certificate.nodes == 0
    assert dict(outcome.certificate.prunes)["infeasible"] == 1
    assert outcome.certificate.any_length


def test_weight_prune_certifies_every_length():
    spec, catalog = load_builtin("sigma12")
    word = TwistWord.parse(spec, catalog, "a b g^-1 d1 d2^4")
    # weights (2, 38) need two nonseparating twists and three about d2:
    # without d2 no length works, and nothing is walked
    outcome = search_positive(SearchProblem(word, ("a", "b", "e", "s2"), 9))
    assert outcome.certificate.nodes == 0
    assert dict(outcome.certificate.prunes)["weight"] == 10
    assert outcome.certificate.any_length

    # with d2 only length 5 is walked; a bound short of it claims nothing
    # beyond the bound, and one that reaches it claims every length
    alphabet = ("a", "b", "g", "d1", "d2", "e", "s1", "s2", "s3")
    for max_length, any_length in ((4, False), (5, True), (6, True)):
        outcome = search_positive(SearchProblem(word, alphabet, max_length))
        assert not outcome.found
        assert outcome.certificate.any_length is any_length
    # e and s1 repeat the classes of a and g: the 7 ** 6 words of the 7
    # letters walked stay under MITM_THRESHOLD
    assert outcome.certificate.mode == "iddfs"
    # pruning off: no weights, no claim, the same answer
    plain = search_positive(SearchProblem(word, alphabet, 5), prune=False)
    assert not plain.found and not plain.certificate.any_length
    assert dict(plain.certificate.prunes)["weight"] == 0

    # a weightless letter repeats a level, which then stands for every
    # longer length: x, a trivial curve with the identity twist, keeps
    # the weights (0, 12) of d2 out of reach, and a^2 is found unpruned too
    page = json.loads(catalog_to_json(spec, catalog))
    identity = {"images": [[1], [2], [3]], "inverse_images": [[1], [2], [3]]}
    page["curves"].append({"name": "x", "h": [0, 0, 0], "q": [0, 0, 0], "p": [0, 0, 0],
                           "aut": identity})
    spec_x, catalog_x = catalog_from_json(json.dumps(page))
    d2, a2 = (
        SearchProblem(TwistWord.parse(spec_x, catalog_x, text), ("x", "a"), 4)
        for text in ("d2", "a^2")
    )
    outcome = search_positive(d2)
    assert outcome.certificate.any_length and outcome.certificate.nodes == 0
    assert dict(outcome.certificate.prunes)["weight"] == 5
    assert not search_positive(d2, prune=False).found
    assert str(search_positive(a2).word) == str(search_positive(a2, prune=False).word) == "a^2"

    # a letter of undecided weight switches the cut off (g3 of the
    # four-holed page bounds {2, 3} or {1, 4}, and h cannot tell which)
    spec13, catalog13, _ = _SIGMA13
    result = stabilize(spec13, catalog13, 1)
    target = TwistWord.parse(result.surface, result.catalog, "d2 d3")
    outcome = search_positive(SearchProblem(target, ("g3", "d2", "d3"), 2))
    assert str(outcome.word) == "d2 d3"
    outcome = search_positive(SearchProblem(target, ("g3", "d2"), 2))
    prunes = dict(outcome.certificate.prunes)
    assert prunes["weight"] == 0 and not outcome.certificate.any_length


def test_empty_alphabet_and_identity():
    spec, catalog = load_builtin("sigma12")
    identity = TwistWord.parse(spec, catalog, "")
    outcome = search_positive(SearchProblem(identity, (), 2))
    assert outcome.found and outcome.word.length == 0


def test_search_problem_validation():
    spec, catalog = load_builtin("sigma12")
    target = TwistWord.parse(spec, catalog, "d1")
    with pytest.raises(ValueError, match="nonnegative"):
        SearchProblem(target, ("s1",), -1)
    with pytest.raises(ValueError, match="distinct"):
        SearchProblem(target, ("s1", "s1"), 3)
    with pytest.raises(ValueError, match="not in the catalog"):
        SearchProblem(target, ("nope",), 3)
    # s2 runs through the handle of the sigma13 page and keeps only
    # linear data: it can be neither the target nor a letter
    spec13, catalog13, _ = _SIGMA13
    with pytest.raises(ValueError, match="exact automorphism"):
        SearchProblem(TwistWord.parse(spec13, catalog13, "a s2"), ("a",), 3)
    with pytest.raises(ValueError, match="no exact automorphism"):
        SearchProblem(TwistWord.parse(spec13, catalog13, "a"), ("s2",), 3)


def test_search_rejects_a_curve_with_nonzero_p_jh():
    # p . Jh = 1 for h = x, p = x: no twist transvection has these data
    spec, catalog = load_builtin("sigma11")
    bad = CurveConfig((1, 0), (0, 1), (1, 0), aut=catalog["a"].aut)
    target = TwistWord.parse(spec, dict(catalog, bad=bad), "a")
    with pytest.raises(ValueError, match=r"^p \. Jh must vanish for a twist transvection$"):
        search_positive(SearchProblem(target, ("bad",), 1))
