"""
Searching for positive factorisations
=====================================

A mapping class supports a Stein filling only if it factors into positive
Dehn twists.  The search enumerates candidate words shortest-first and in
alphabet order, so the first hit is the lexicographically least shortest
factorisation; an exhausted search returns a reproducible certificate.
"""

from openbook import (
    SearchProblem,
    TwistWord,
    evaluate,
    load_builtin,
    search_positive,
    verify_factorisation,
    word_weights,
)

# The lantern class factors at length 3.
spec, catalog = load_builtin("sigma12")
lantern = TwistWord.parse(spec, catalog, "d1 d2 e^2")
outcome = search_positive(SearchProblem(lantern, ("s1", "s2", "s3"), 3))
print("lantern target:", outcome.word)

# The boundary twist on the one-holed torus factors at length 12 over
# {a, b}; the chain relation (a b)^6 is one witness, but not the first
# in search order.
spec1, catalog1 = load_builtin("sigma11")
chain = TwistWord.parse(spec1, catalog1, "d")
outcome = search_positive(SearchProblem(chain, ("a", "b"), 12))
print("chain target:  ", outcome.word)
classic = TwistWord.parse(spec1, catalog1, "a b " * 6)
print("(a b)^6 works too:", verify_factorisation(classic, evaluate(chain)))

# Capping all boundary components but one gives each positive twist a
# weight (1 nonseparating, 12 for a separating curve cutting off that
# component), conserved by every relation.  phi_R = a b g^-1 d1 d2^(R-1)
# weighs (2, 12 R - 22): two nonseparating twists and R - 2 about d2, so
# every positive factorisation has length exactly R, and a search up to
# R rules out every length.
for R in (2, 5, 13, 50):
    word = TwistWord.parse(spec, catalog, f"a b g^-1 d1 d2^{R - 1}")
    problem = SearchProblem(
        word, ("a", "b", "g", "d1", "d2", "e", "s1", "s2", "s3"), R
    )
    certificate = search_positive(problem).certificate
    print(f"\nphi_{R}: weights {word_weights(word)}")
    print(certificate)
