"""Value semantics of every frozen value class: field equality within a
class, the hash of the field tuple, no assignment or deletion."""

from fractions import Fraction

import pytest

from openbook._value import Value
from openbook.factorsearch import Certificate, SearchOutcome, SearchProblem
from openbook.freegroup import FreeAutomorphism
from openbook.homology import AbelianGroup, cokernel
from openbook.kirby import FramedLinkPresentation, NegCF, SeifertData
from openbook.mcg import MappingClass, TwistWord, evaluate
from openbook.stabilisation import StabResult, stabilize
from openbook.surface import (
    CheckResult,
    CurveConfig,
    RelationTables,
    SurfaceSpec,
    ValidationReport,
    load_builtin,
    relation_tables,
)
from openbook.surgery import OpenBook


def _word(text="a b"):
    spec, catalog = load_builtin("sigma12")
    return TwistWord.parse(spec, catalog, text)


def _rebuilt(value):
    """``value`` built again from its fields by the checking constructor."""
    return type(value)(*(getattr(value, f) for f in value._fields))


def _certificate():
    return Certificate(("a", "b"), 3, 7, (("weight", 2),), "iddfs")


# class: (a builder called twice for two equal instances, hashable)
CASES = {
    SurfaceSpec: (lambda: SurfaceSpec.standard(1, 2), True),
    CurveConfig: (lambda: _rebuilt(load_builtin("sigma12")[1]["a"]), True),
    RelationTables: (lambda: _rebuilt(relation_tables("sigma12")), True),
    CheckResult: (lambda: CheckResult("chain", False, "fails"), True),
    ValidationReport: (lambda: ValidationReport((CheckResult("chain", True),)), True),
    StabResult: (lambda: StabResult(SurfaceSpec.standard(1, 1), {}, {"d": "e"}, "d2", 2), False),
    FreeAutomorphism: (lambda: FreeAutomorphism(2, [(1,), (2, 1)], [(1,), (2, -1)]), True),
    AbelianGroup: (lambda: AbelianGroup(1, (2, 4)), True),
    TwistWord: (_word, False),
    SearchProblem: (lambda: SearchProblem(_word(), ("a", "b"), 3), False),
    Certificate: (_certificate, True),
    SearchOutcome: (lambda: SearchOutcome(None, _certificate()), True),
    NegCF: (lambda: NegCF((-2, -3)), True),
    FramedLinkPresentation: (
        lambda: FramedLinkPresentation(("1", "2"), (Fraction(1), Fraction(-1, 2)), {("1", "2"): 3}),
        False,
    ),
    SeifertData: (lambda: SeifertData(-1, (Fraction(1, 2), Fraction(1, 3), Fraction(1, 4))), True),
    OpenBook: (lambda: OpenBook.standard(*load_builtin("sigma12")[:1], _word()), False),
}


def test_every_value_class_is_covered():
    assert set(Value.__subclasses__()) == set(CASES) | {MappingClass}


@pytest.mark.parametrize("cls", CASES, ids=lambda cls: cls.__name__)
def test_value_semantics(cls):
    build, hashable = CASES[cls]
    a, b = build(), build()
    assert type(a) is cls and a is not b
    assert a == b and not a != b and a == a
    fields = tuple(getattr(a, f) for f in cls._fields)
    if hashable:
        # a curve hashes (h, q, p) only, cached (test_curve_hash_is_computed_once)
        key = (a.h, a.q, a.p) if cls is CurveConfig else fields
        assert hash(a) == hash(b) == hash(key)
    else:
        with pytest.raises(TypeError):
            hash(a)
    # only the same class compares equal, never a tuple of the same fields
    assert a.__eq__(fields) is NotImplemented and a != fields
    other = CheckResult("other", True) if cls is not CheckResult else NegCF((-2,))
    assert a != other and a.__eq__(other) is NotImplemented
    assert repr(a).startswith(f"{cls.__name__}({cls._fields[0]}=")
    for name in (cls._fields[0], "extra"):
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert a == b


def test_fields_follow_the_constructor():
    assert CurveConfig._fields == ("h", "q", "p", "boundary_parallel_to", "aut")
    assert repr(CheckResult("x", True)) == "CheckResult(name='x', passed=True, detail='')"
    assert repr(NegCF((-2,))) == "NegCF(entries=(-2,))"
    assert hash(NegCF((-2,))) == hash(((-2,),))
    # a missing linking is a new dict for every link
    one, two = (FramedLinkPresentation(("1",), (Fraction(1),)) for _ in range(2))
    assert one.linking == {} and one.linking is not two.linking


def test_mapping_classes_compare_by_identity():
    word = _word("a b g^-1 d1 d2^4")
    a, b = evaluate(word), evaluate(word)
    assert a == a and a != b and hash(a) != hash(b)
    assert len({a, b}) == 2
    with pytest.raises(AttributeError):
        a.twists = ()
    a.D  # derived fields are kept on first read despite the frozen fields
    assert "D" in vars(a)


def test_deferred_automorphism_equals_its_built_twin():
    built = FreeAutomorphism(2, [(1,), (-1, 2, 1)], [(1,), (1, 2, -1)])
    deferred = FreeAutomorphism.inner(2, (1,))
    assert "_build" in vars(deferred)
    assert deferred == built and built == FreeAutomorphism.inner(2, (1,))
    assert hash(FreeAutomorphism.inner(2, (1,))) == hash(built)
    assert "_build" not in vars(deferred)


def test_trusted_builds_equal_their_checked_twins():
    spec, catalog = load_builtin("sigma12")
    result = stabilize(spec, catalog, 2)
    for cfg in result.catalog.values():
        twin = _rebuilt(cfg)
        assert twin == cfg and hash(twin) == hash(cfg)
    assert cokernel(((2, 0), (0, 0))) == AbelianGroup(1, (2,))
