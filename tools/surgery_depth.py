"""Time in-process ``surgery`` on the trefoil book at increasing depth.

Admissible surgery with integer coefficient r on the binding of the
trefoil book (``sigma11``, word ``a b``) stabilises the page -r - 1
times, so the four coefficients r = -60, -120, -240 and -480 show how
the cost of a surgery grows with the number of stabilisations.  Each
coefficient is timed once, after a warm-up surgery at r = -5.

Run from the repository root:

    PYTHONPATH=src python3 tools/surgery_depth.py

It prints one JSON line mapping each coefficient to its seconds.
"""

import json
import time
from fractions import Fraction

from openbook.mcg import TwistWord
from openbook.surface import load_builtin
from openbook.surgery import OpenBook, surgery

COEFFICIENTS = (-60, -120, -240, -480)


def main() -> None:
    spec, catalog = load_builtin("sigma11")
    book = OpenBook.standard(spec, TwistWord.parse(spec, catalog, "a b"))
    surgery(book, "1", Fraction(-5))
    seconds = {}
    for r in COEFFICIENTS:
        start = time.perf_counter()
        surgery(book, "1", Fraction(r))
        seconds[str(r)] = round(time.perf_counter() - start, 4)
    print(json.dumps(seconds))


if __name__ == "__main__":
    main()
