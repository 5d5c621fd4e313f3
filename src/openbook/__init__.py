"""Workbench for open book decompositions of 3-manifolds.

Core pipeline: describe a monodromy as a word of Dehn twists on a small
surface, push rational surgeries through stabilisations into new twist
words, decide mapping-class equality exactly, read off first homology of
the resulting closed manifold, and search for (or obstruct) positive
factorisations.
"""

from openbook.factorsearch import (
    SearchOutcome,
    SearchProblem,
    search_positive,
    verify_factorisation,
    word_weights,
)
from openbook.freegroup import FreeAutomorphism
from openbook.homology import AbelianGroup, cokernel, h1_of_open_book, smith_normal_form
from openbook.kirby import (
    FramedLinkPresentation,
    SeifertData,
    blow_down,
    h1_of_link,
    presentation_matrix,
    rational_to_chain,
    seifert_presentation,
)
from openbook.mcg import (
    MappingClass,
    TwistWord,
    apply_relation,
    boundary_exponent_delta,
    equal_classes,
    evaluate,
)
from openbook.surface import (
    CurveConfig,
    SurfaceSpec,
    load_builtin,
    stabilize,
    validate_catalog,
)
from openbook.surgery import (
    OpenBook,
    admissible_surgery,
    inadmissible_surgery,
    neg_continued_fraction,
    surgery,
)

__all__ = [
    "AbelianGroup",
    "CurveConfig",
    "FramedLinkPresentation",
    "FreeAutomorphism",
    "MappingClass",
    "OpenBook",
    "SearchOutcome",
    "SearchProblem",
    "SeifertData",
    "SurfaceSpec",
    "TwistWord",
    "admissible_surgery",
    "apply_relation",
    "blow_down",
    "boundary_exponent_delta",
    "cokernel",
    "equal_classes",
    "evaluate",
    "h1_of_link",
    "h1_of_open_book",
    "inadmissible_surgery",
    "load_builtin",
    "neg_continued_fraction",
    "presentation_matrix",
    "rational_to_chain",
    "search_positive",
    "seifert_presentation",
    "smith_normal_form",
    "stabilize",
    "surgery",
    "validate_catalog",
    "verify_factorisation",
    "word_weights",
]

__version__ = "0.1.0"
