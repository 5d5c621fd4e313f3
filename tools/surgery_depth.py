"""Time in-process ``surgery`` on the trefoil book at increasing depth.

Admissible surgery with integer coefficient r on the binding of the
trefoil book (``sigma11``, word ``a b``) stabilises the page -r - 1
times, so the four coefficients r = -60, -120, -240 and -480 show how
the cost of a surgery grows with the number of stabilisations.  After a
warm-up surgery at r = -5, each coefficient is timed twice: once with
the memo of stabilised pages (``stabilisation.MEMO_PAGES``) empty, and
once more straight after, when the memo serves every page it still
holds.  A chain deeper than the memo's bound is served by none of it, as
its first pages leave the memo first.  Then the four surgeries run once
more under ``tracemalloc``, from an empty memo, and the memory the memo
still holds after them is what emptying it frees.

Run from the repository root:

    PYTHONPATH=src python3 tools/surgery_depth.py

It prints one JSON line: the seconds of each coefficient with the memo
empty (``empty_memo_s``) and served by it (``memo_s``), the memo's bound
in pages, and the MiB it retains after the run.
"""

import gc
import json
import time
import tracemalloc
from fractions import Fraction

from openbook.mcg import TwistWord
from openbook.stabilisation import MEMO_PAGES, _stabilised
from openbook.surface import load_builtin
from openbook.surgery import OpenBook, surgery

COEFFICIENTS = (-60, -120, -240, -480)


def _seconds(book, r: int) -> float:
    start = time.perf_counter()
    surgery(book, "1", Fraction(r))
    return round(time.perf_counter() - start, 4)


def main() -> None:
    spec, catalog = load_builtin("sigma11")
    book = OpenBook.standard(spec, TwistWord.parse(spec, catalog, "a b"))
    surgery(book, "1", Fraction(-5))
    empty, served = {}, {}
    for r in COEFFICIENTS:
        _stabilised.cache_clear()
        empty[str(r)] = _seconds(book, r)
        served[str(r)] = _seconds(book, r)
    _stabilised.cache_clear()
    gc.collect()
    tracemalloc.start()
    for r in COEFFICIENTS:
        surgery(book, "1", Fraction(r))
    gc.collect()
    held = tracemalloc.get_traced_memory()[0]
    _stabilised.cache_clear()
    gc.collect()
    retained = held - tracemalloc.get_traced_memory()[0]
    tracemalloc.stop()
    print(json.dumps({
        "empty_memo_s": empty,
        "memo_s": served,
        "memo_pages": MEMO_PAGES,
        "memo_retained_mib": round(retained / 2**20, 2),
    }))


if __name__ == "__main__":
    main()
