"""Time exhaustive searches whose capping weights leave several lengths open.

Three targets, each timed on a second search, after a warm-up search of
all three:

* ``a^14 b^-1`` on ``sigma12`` (weights (13, 13): lengths 2, 3 and 13)
  to length 13 over a,b,g,d1,d2,e,s1,s2,s3;
* ``s2^7 s3^-1 a^7`` on ``sigma12``, the same weights, search and
  alphabet, with larger Sanov entries;
* ``a b g^-1 d1 g3^2 d3 d2`` on the ``sigma13`` page of surgery r = 7/2
  on the binding of the trefoil book, to length 6 over
  a,b,g,d1,g3,e,s1,d2,d3.

Run from the repository root:

    PYTHONPATH=src python3 tools/search_cost.py

It prints one JSON line mapping each target to its verdict, nodes, mode
and seconds.
"""

import json
import time
from fractions import Fraction

from openbook.factorsearch import SearchProblem, search_positive
from openbook.mcg import TwistWord
from openbook.surface import load_builtin
from openbook.surgery import OpenBook, surgery

SIGMA12_ALPHABET = ("a", "b", "g", "d1", "d2", "e", "s1", "s2", "s3")
SIGMA13_ALPHABET = ("a", "b", "g", "d1", "g3", "e", "s1", "d2", "d3")


def problems():
    sigma12 = load_builtin("sigma12")
    spec, catalog = load_builtin("sigma11")
    book = OpenBook.standard(spec, TwistWord.parse(spec, catalog, "a b"))
    sigma13 = surgery(book, "1", Fraction(7, 2), 1).word
    return {
        "a^14 b^-1": SearchProblem(
            TwistWord.parse(*sigma12, "a^14 b^-1"), SIGMA12_ALPHABET, 13
        ),
        "s2^7 s3^-1 a^7": SearchProblem(
            TwistWord.parse(*sigma12, "s2^7 s3^-1 a^7"), SIGMA12_ALPHABET, 13
        ),
        str(sigma13): SearchProblem(sigma13, SIGMA13_ALPHABET, 6),
    }


def verdict(outcome) -> str:
    if outcome.found:
        return f"found: {outcome.word}"
    lines = outcome.certificate.lines()
    return lines[0] + ("; " + lines[-1] if outcome.certificate.any_length else "")


def main() -> None:
    runs = problems()
    # the first search on a page builds its twist steps and relations
    for problem in runs.values():
        search_positive(problem)
    report = {}
    for name, problem in runs.items():
        start = time.perf_counter()
        outcome = search_positive(problem)
        seconds = time.perf_counter() - start
        certificate = outcome.certificate
        report[name] = {
            "verdict": verdict(outcome),
            "nodes": certificate.nodes if certificate else None,
            "mode": certificate.mode if certificate else None,
            "seconds": round(seconds, 4),
        }
    print(json.dumps(report))


if __name__ == "__main__":
    main()
