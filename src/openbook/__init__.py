"""Workbench for open book decompositions of 3-manifolds.

Core pipeline: describe a monodromy as a word of Dehn twists on a small
surface, push rational surgeries through stabilisations into new twist
words, decide mapping-class equality exactly, read off first homology of
the resulting closed manifold, and search for (or obstruct) positive
factorisations.

The names below are loaded with their module on first read (PEP 562),
so ``import openbook`` alone loads no layer.
"""

import importlib
import sys
from types import ModuleType

# the module that defines each exported name
_HOMES = {
    "factorsearch": (
        "SearchOutcome", "SearchProblem", "search_positive",
        "verify_factorisation", "word_weights",
    ),
    "freegroup": ("FreeAutomorphism",),
    "homology": ("AbelianGroup", "cokernel", "h1_of_open_book", "smith_normal_form"),
    "kirby": (
        "FramedLinkPresentation", "SeifertData", "blow_down", "h1_of_link",
        "neg_continued_fraction", "presentation_matrix", "rational_to_chain",
        "seifert_presentation",
    ),
    "mcg": (
        "MappingClass", "TwistWord", "apply_relation", "boundary_exponent_delta",
        "equal_classes", "evaluate",
    ),
    "stabilisation": ("stabilize",),
    "surface": ("CurveConfig", "SurfaceSpec", "load_builtin", "validate_catalog"),
    "surgery": ("OpenBook", "admissible_surgery", "inadmissible_surgery", "surgery"),
}
_EXPORTS = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))


class _Package(ModuleType):
    """Importing a submodule binds it to the package attribute of its
    name.  ``surgery`` names both a submodule and an exported function;
    the function keeps the name whichever loads first."""

    def __setattr__(self, name, value):
        if not (name in _EXPORTS and isinstance(value, ModuleType)):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
