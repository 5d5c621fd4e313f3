import json
import random
import re
import time
from fractions import Fraction
from itertools import combinations

import pytest

from openbook import freegroup, surface
from openbook.cli import main
from openbook.freegroup import FreeAutomorphism, compose, reduce_letters
from openbook.homology import h1_of_open_book
from openbook.mcg import TwistWord
from openbook.surface import (
    RELATION_PATTERNS,
    CurveConfig,
    SurfaceSpec,
    boundary_parallel_curve,
    catalog_from_json,
    catalog_to_json,
    curve_weights,
    load_builtin,
    pair_relation,
    relation_tables,
    stabilize,
    validate_catalog,
)
from openbook.surgery import OpenBook, surgery


def replace(cfg: CurveConfig, **changes) -> CurveConfig:
    """``cfg`` with ``changes``, rebuilt through the checking constructor."""
    return CurveConfig(**{**{name: getattr(cfg, name) for name in cfg._fields}, **changes})


def test_builtin_catalogs_validate():
    for name in ("sigma11", "sigma12"):
        spec, catalog = load_builtin(name)
        report = validate_catalog(spec, catalog)
        assert report.ok, [c.detail for c in report.checks if not c.passed]
        assert [c.name for c in report.checks] == [
            "structure",
            "transvection",
            "unimodular",
            "separating_q",
            "boundary_parallel_data",
            "boundary_words",
            "chain",
            "lantern",
        ]


def test_builtin_structure():
    spec, catalog = load_builtin("sigma11")
    assert spec.genus == 1 and spec.boundary == 1
    assert spec.gen_labels == ("x", "y")
    assert spec.boundary_words == ((1, 2, -1, -2),)
    assert sorted(catalog) == ["a", "b", "d"]

    spec, catalog = load_builtin("sigma12")
    assert spec.genus == 1 and spec.boundary == 2
    assert spec.gen_labels == ("x", "y", "z2")
    assert spec.boundary_words == ((1, 2, -1, -2, -3), (3,))
    assert sorted(catalog) == ["a", "b", "d1", "d2", "e", "g", "s1", "s2", "s3"]
    # the labels follow from the signature alone
    assert SurfaceSpec.standard(2, 1).gen_labels == ("x1", "y1", "x2", "y2")
    assert SurfaceSpec.standard(0, 3).gen_labels == ("z2", "z3")
    # e is a second handle over the same homology class as a
    assert catalog["e"].h == catalog["a"].h
    assert catalog["e"].aut == catalog["a"].aut

    with pytest.raises(ValueError):
        load_builtin("sigma21")


def test_validate_catches_corruption():
    spec, catalog = load_builtin("sigma12")
    bad = dict(catalog)
    bad["a"] = replace(catalog["a"], q=(9, 9, 9))
    report = validate_catalog(spec, bad)
    assert not report.ok
    failing = [c.name for c in report.checks if not c.passed]
    assert "structure" in failing

    bad = dict(catalog)
    # q of a separating curve must pair trivially with every h in the catalog
    bad["s1"] = replace(catalog["s1"], h=(1, 0, 0))
    assert not validate_catalog(spec, bad).ok

    # a relation curve without an exact automorphism raises
    bad = dict(catalog)
    bad["s1"] = replace(catalog["s1"], aut=None)
    with pytest.raises(ValueError, match="missing automorphism for curve 's1'"):
        validate_catalog(spec, bad)
    # the constructor refuses what no check could read
    with pytest.raises(ValueError, match="curve x: h, q, p lengths differ"):
        CurveConfig("x", (1, 0), (0, 1), (0, 1, 0))
    with pytest.raises(ValueError, match="curve x: automorphism rank mismatch"):
        CurveConfig("x", (1, 0), (0, 1), (0, 1), aut=catalog["a"].aut)


_ZERO = {"h": (0, 0, 0), "q": (0, 0, 0), "p": (0, 0, 0)}

# One corruption of a builtin page per check of validate_catalog: (page,
# curve, fields) and the failing checks with their details.  The fields
# replace those of a catalog curve, or make a new curve x, which no
# relation names.  A failing structure check stops the report.
CORRUPTIONS = {
    "key-name": ("sigma12", "a", {"name": "x"},
                 {"structure": "catalog key 'a' holds curve named 'x'"}),
    "rank": ("sigma12", "a", {"h": (1, 0), "q": (0, 1), "p": (0, 1), "aut": None},
             {"structure": "curve a: vectors have length 2, want 3"}),
    "q-Jp": ("sigma12", "a", {"q": (0, 1, 1)}, {"structure": "curve a: q != J p"}),
    "p-Jh": ("sigma12", "a", {"q": (1, 1, 0), "p": (1, 1, 0)},
             {"structure": "curve a: p . Jh != 0"}),
    "boundary-index": ("sigma12", "d2", {"boundary_parallel_to": 3},
                       {"structure": "curve d2: bad boundary index"}),
    # b's twist on a's data
    "transvection": ("sigma12", "x", {
        "h": (1, 0, 0), "q": (0, 1, 0), "p": (0, 1, 0),
        "aut": FreeAutomorphism(3, [(1, -2), (2,), (3,)], [(1, 2), (2,), (3,)]),
    }, {"transvection": "curve x: abelianisation is not I + h q^T"}),
    # det(I + h q^T) = 1 + q . h, and q = Omega h makes q . h = 0: only a
    # map that fails the transvection check can fail this one, and no
    # checked constructor builds x -> x^2
    "unimodular": ("sigma11", "x", {
        "h": (0, 0), "q": (0, 0), "p": (0, 0),
        "aut": FreeAutomorphism._trusted(2, ((1, 1), (2,)), ((1,), (2,))),
    }, {
        "transvection": "curve x: abelianisation is not I + h q^T",
        "unimodular": "curve x: automorphism not unimodular",
        "boundary_words": "curve x: does not fix the basepoint boundary word",
    }),
    "separating_q": ("sigma12", "x", {**_ZERO, "h": (1, 0, 0)},
                     {"separating_q": "curve x: q != Omega h"}),
    "boundary_parallel_data": ("sigma12", "d2", {"boundary_parallel_to": 1}, {
        "boundary_parallel_data": "curve d2: data does not match a curve parallel to boundary 1",
    }),
    "boundary-word-1": ("sigma12", "x", {**_ZERO, "aut": FreeAutomorphism.inner(3, (1,))},
                        {"boundary_words": "curve x: does not fix the basepoint boundary word"}),
    # z -> z [x, y] takes b_1 to z^-1
    "boundary-word-2": ("sigma12", "x", {**_ZERO, "aut": FreeAutomorphism(
        3, [(1,), (2,), (3, 1, 2, -1, -2)], [(1,), (2,), (3, 2, 1, -2, -1)],
    )}, {"boundary_words": "curve x: does not fix the basepoint boundary word; "
                           "curve x: moves boundary word 2 off its conjugacy class"}),
    "chain-automorphisms": ("sigma11", "d", {"aut": FreeAutomorphism.identity(2)},
                            {"chain": "chain relation fails on automorphisms"}),
    # d2's linear data on g: D moves, rho does not
    "chain-linear": ("sigma12", "g", {"h": (0, 0, 1), "p": (0, 0, 1)},
                     {"chain": "chain relation fails on linear data"}),
    "lantern-automorphisms": ("sigma12", "s1", {"aut": FreeAutomorphism.identity(3)},
                              {"lantern": "lantern relation fails on automorphisms"}),
    "lantern-linear": ("sigma12", "s1", {"h": (0, 0, 1), "p": (0, 0, 1)},
                       {"lantern": "lantern relation fails on linear data"}),
}


@pytest.mark.parametrize("page, key, fields, failing", CORRUPTIONS.values(), ids=list(CORRUPTIONS))
def test_validate_reports_each_failing_check(page, key, fields, failing):
    spec, catalog = load_builtin(page)
    if key in catalog:
        catalog[key] = replace(catalog[key], **fields)
    else:
        catalog[key] = CurveConfig(key, **fields)
    report = validate_catalog(spec, catalog)
    assert {check.name: check.detail for check in report.failing()} == failing


def test_relation_tables():
    # the derived pairs, pinned to the hand-written tables they replace
    tables = relation_tables("sigma12")
    assert tables.braid_pairs == (("a", "b"), ("b", "e"), ("b", "s2"), ("b", "s3"))
    assert tables.commute_pairs == (
        ("a", "g"), ("a", "d1"), ("a", "d2"), ("a", "e"),
        ("a", "s1"), ("a", "s2"), ("a", "s3"),
        ("b", "g"), ("b", "d1"), ("b", "d2"), ("b", "s1"),
        ("g", "d1"), ("g", "d2"), ("g", "e"), ("g", "s1"),
        ("d1", "d2"), ("d1", "e"), ("d1", "s1"), ("d1", "s2"),
        ("d1", "s3"),
        ("d2", "e"), ("d2", "s1"), ("d2", "s2"), ("d2", "s3"),
        ("e", "s1"), ("e", "s2"), ("e", "s3"),
    )
    assert tables.braids("a", "b") and tables.braids("b", "a")
    assert tables.braids("b", "e")
    assert not tables.braids("a", "e")
    assert tables.commutes("a", "d1") and tables.commutes("d1", "a")
    assert not tables.commutes("a", "b")
    assert tables.chain == (("a", "b") * 6, ("g",))
    assert tables.lantern == (("d1", "d2", "e", "e"), ("s1", "s2", "s3"))

    tables = relation_tables("sigma11")
    assert tables.braid_pairs == (("a", "b"),)
    assert tables.commute_pairs == (("a", "d"), ("b", "d"))
    assert tables.braids("a", "b")
    assert tables.commutes("a", "d") and tables.commutes("b", "d")
    assert tables.chain == (("a", "b") * 6, ("d",))
    assert tables.lantern is None

    with pytest.raises(ValueError):
        relation_tables("sigma13")


def test_boundary_parallel_curve():
    _, catalog = load_builtin("sigma12")
    assert boundary_parallel_curve(catalog, 1) == "d1"
    assert boundary_parallel_curve(catalog, 2) == "d2"
    with pytest.raises(ValueError):
        boundary_parallel_curve(catalog, 3)


def test_json_round_trip():
    for name in ("sigma11", "sigma12"):
        spec, catalog = load_builtin(name)
        text = catalog_to_json(spec, catalog)
        spec2, catalog2 = catalog_from_json(text)
        assert spec2 == spec and catalog2 == catalog
        assert catalog_to_json(spec2, catalog2) == text


def test_json_error_reporting():
    with pytest.raises(ValueError, match="line 1, column 13"):
        catalog_from_json('{"genus": 1,,}')

    spec, catalog = load_builtin("sigma11")
    obj = json.loads(catalog_to_json(spec, catalog))

    dup = json.loads(json.dumps(obj))
    dup["curves"].append(dict(dup["curves"][0]))
    with pytest.raises(ValueError, match="duplicate curve name 'a'"):
        catalog_from_json(json.dumps(dup))

    bad = json.loads(json.dumps(obj))
    for curve in bad["curves"]:
        if curve["name"] == "b":
            curve["aut"]["inverse_images"] = [[1, -2], [2]]
    with pytest.raises(ValueError, match="curve 'b'"):
        catalog_from_json(json.dumps(bad))

    missing = json.loads(json.dumps(obj))
    del missing["curves"][0]["q"]
    with pytest.raises(ValueError, match="malformed curve entry"):
        catalog_from_json(json.dumps(missing))


def test_json_numbers_must_be_integers():
    # int() would take 1.9, true and "0": every number must be a JSON
    # integer, or loading fails with one line naming the field
    spec, catalog = load_builtin("sigma11")
    text = catalog_to_json(spec, catalog)
    for edit, message in (
        (lambda obj, c: obj.update(genus=1.9), "integer genus and boundary"),
        (lambda obj, c: obj.update(boundary=True), "integer genus and boundary"),
        (lambda obj, c: obj["boundary_words"][0].append("1"), "boundary_words must be lists"),
        (lambda obj, c: c["a"].update(h=[1.9, 0]), "curve 'a': h must be a list"),
        (lambda obj, c: c["a"].update(q=["0", 1]), "curve 'a': q must be a list"),
        (lambda obj, c: c["b"].update(p=[True, 0]), "curve 'b': p must be a list"),
        (lambda obj, c: c["a"]["aut"]["images"][0].append(1.0), "curve 'a': bad automorphism"),
        (lambda obj, c: c["d"].update(boundary_parallel_to=1.0), "boundary_parallel_to must"),
    ):
        obj = json.loads(text)
        edit(obj, {curve["name"]: curve for curve in obj["curves"]})
        with pytest.raises(ValueError, match=message):
            catalog_from_json(json.dumps(obj))
    assert catalog_from_json(text) == (spec, catalog)


def test_json_automorphism_letter_limit(tmp_path, capsys):
    # a curve's images and inverse images together hold at most
    # MAX_AUT_LETTERS letters; a longer one is refused before the costly
    # check that the two maps invert each other
    spec, catalog = load_builtin("sigma11")
    obj = json.loads(catalog_to_json(spec, catalog))
    a = next(c for c in obj["curves"] if c["name"] == "a")
    n = (surface.MAX_AUT_LETTERS - 4) // 2  # y -> y x^n has 2n + 4 letters both ways
    a["aut"] = {"images": [[1], [2] + [1] * n], "inverse_images": [[1], [2] + [-1] * n]}
    assert catalog_from_json(json.dumps(obj))[1]["a"].aut.images[1] == (2,) + (1,) * n
    a["aut"]["images"][0].append(1)  # one letter past the limit, and no inverse
    with pytest.raises(ValueError) as err:
        catalog_from_json(json.dumps(obj))
    assert str(err.value) == (
        f"curve 'a': bad automorphism: images and inverse_images hold "
        f"{surface.MAX_AUT_LETTERS + 1} letters; the limit is {surface.MAX_AUT_LETTERS}"
    )
    path = tmp_path / "long.json"
    path.write_text(json.dumps(obj))
    assert main(["validate", "--config", str(path)]) == 1
    assert capsys.readouterr() == ("", f"error: {err.value}\n")


def test_stabilize_matches_builtin():
    # plumbing onto the single boundary component of sigma11 must reproduce
    # the hand-built sigma12 catalog exactly, including the frozen twist data
    spec, catalog = load_builtin("sigma11")
    result = stabilize(spec, catalog, 1)
    spec12, catalog12 = load_builtin("sigma12")
    assert result.surface == spec12
    assert result.catalog == catalog12
    assert list(result.catalog) == list(catalog12)
    assert result.renames == {"d": "g"}
    assert (result.stab_curve, result.k_index) == ("d1", 2)
    # the builtin page is handed back only for the builtin input; the rule
    # itself, run on a catalog with one more curve, gives the same curves
    extra = dict(catalog, c=replace(catalog["a"], name="c"))
    ruled = stabilize(spec, extra, 1)
    assert ruled.surface == spec12
    assert list(ruled.catalog) == ["a", "b", "g", "c", "d1", "d2"]
    for name in ("a", "b", "g", "d1", "d2"):
        assert ruled.catalog[name] == catalog12[name]
    assert ruled.catalog["c"] == replace(catalog12["a"], name="c")
    assert (ruled.renames, ruled.stab_curve, ruled.k_index) == ({"d": "g"}, "d1", 2)


def test_stabilize_second_component():
    spec, catalog = load_builtin("sigma12")
    result = stabilize(spec, catalog, 2)
    assert result.surface.genus == 1 and result.surface.boundary == 3
    assert result.surface.gen_labels == ("x", "y", "z2", "z3")
    assert result.surface.boundary_words == ((1, 2, -1, -2, -4, -3), (3,), (4,))
    assert result.renames == {"d2": "g3"}
    assert result.k_index == 2
    assert sorted(result.catalog) == [
        "a", "b", "d1", "d2", "d3", "e", "g", "g3", "s1", "s2", "s3",
    ]
    parallel = {
        n: c.boundary_parallel_to
        for n, c in result.catalog.items()
        if c.boundary_parallel_to
    }
    assert parallel == {"d1": 1, "d2": 2, "d3": 3}
    # the separating-curve automorphisms do not extend across the new handle
    assert result.catalog["s2"].aut is None
    assert result.catalog["s3"].aut is None
    assert result.catalog["a"].aut is not None
    assert validate_catalog(result.surface, result.catalog).ok

    # K = 1: the binding moves to the fresh hole and d1 bounds both holes
    result = stabilize(spec, catalog, 1)
    assert result.surface.boundary_words == ((1, 2, -1, -2, -3, -4), (3,), (4,))
    assert result.renames == {"d1": "g3"}
    assert (result.stab_curve, result.k_index) == ("d1", 3)
    assert list(result.catalog) == [
        "a", "b", "g", "g3", "d2", "e", "s1", "s2", "s3", "d1", "d3",
    ]
    assert validate_catalog(result.surface, result.catalog).ok


def test_stabilisation_chains_stay_valid():
    # stabilize builds every automorphism trusted: each page of a random
    # chain must validate, and each automorphism must rebuild through
    # the validating constructor
    rng = random.Random(11)
    for _ in range(40):
        spec, catalog = load_builtin(rng.choice(["sigma11", "sigma12"]))
        for _ in range(rng.randint(1, 5)):
            result = stabilize(spec, catalog, rng.randint(1, spec.boundary))
            spec, catalog = result.surface, result.catalog
            report = validate_catalog(spec, catalog)
            assert report.ok, str(report)
            for cfg in catalog.values():
                if cfg.aut is not None:
                    aut = cfg.aut
                    assert aut == FreeAutomorphism(aut.rank, aut.images, aut.inverse_images)


def _conjugation_reference(rank, word, moved):
    """Images both ways of u -> word^-1 u word on ``moved``, by hand."""
    wi = tuple(-x for x in reversed(word))
    return tuple(
        tuple(reduce_letters(a + (u,) + b) if u in moved else (u,) for u in range(1, rank + 1))
        for a, b in ((wi, word), (word, wi))
    )


def _transport_reference(aut, t, zk):
    """S o (aut * fix t) o S^-1 by plain composition, for the basis change
    S: z_K -> z_K t (the identity when zk is None)."""
    ext = FreeAutomorphism(t, aut.images + ((t,),), aut.inverse_images + ((t,),))
    if zk is None:
        return ext
    s = FreeAutomorphism(
        t,
        [(zk, t) if u == zk else (u,) for u in range(1, t + 1)],
        [(zk, -t) if u == zk else (u,) for u in range(1, t + 1)],
    )
    return compose(s, compose(ext, s.inverse()))


def test_stabilised_tables_match_transport():
    # each derived automorphism equals the stabilisation rule computed
    # here with plain composition; tables are read at some pages and not
    # at others, so transports of read and of unread tables both occur.
    # On builtin pages every carried twist commutes with z_K -> z_K t, so
    # half the chains carry a curve w whose automorphism, a product of two
    # catalog twists, need not (the rule does not ask w to be a curve)
    rng = random.Random(13)
    flattened = 0
    for _ in range(200):
        spec, catalog = load_builtin(rng.choice(["sigma11", "sigma12"]))
        if rng.random() < 0.5:
            u, v = (catalog[rng.choice(sorted(catalog))].aut for _ in range(2))
            zero = (0,) * spec.rank
            catalog["w"] = CurveConfig("w", zero, zero, zero, aut=compose(u, v.inverse()))
        ref = {name: cfg.aut for name, cfg in catalog.items()}
        steps = rng.randint(1, 5)
        for step in range(steps):
            K = rng.randint(1, spec.boundary)
            result = stabilize(spec, catalog, K)
            new, t = result.catalog, spec.rank + 1
            zk = None if K == 1 else 2 * spec.genus + K - 1
            b1 = result.surface.boundary_words[0]
            if K == 1 and (spec, catalog) == load_builtin("sigma11"):
                want = {name: cfg.aut for name, cfg in new.items()}
            else:
                far = (spec.boundary_words[0], range(1, t)) if K == 1 else ((zk, t), (zk, t))
                want = {
                    f"d{K}": _conjugation_reference(t, b1, range(1, t + 1)) if K == 1 else None,
                    f"d{result.surface.boundary}": None,
                }
                for name, cfg in catalog.items():
                    bpt = cfg.boundary_parallel_to
                    if cfg.aut is None or (zk and bpt is None and (cfg.h[zk - 1] or cfg.p[zk - 1])):
                        aut = None
                    elif bpt == K:
                        aut = _conjugation_reference(t, *far)
                    elif bpt == 1:
                        aut = _conjugation_reference(t, b1, range(1, t + 1))
                    else:
                        aut = _transport_reference(ref[name], t, None if bpt else zk)
                    want[result.renames.get(name, name)] = aut
            assert set(want) == set(new)
            ref = {}
            for name, aut in want.items():
                if isinstance(aut, tuple):
                    aut = FreeAutomorphism(t, *aut)
                elif aut is None and new[name].boundary_parallel_to:
                    aut = FreeAutomorphism.identity(t)
                ref[name] = aut
                assert (new[name].aut is None) == (aut is None), name
            flattened += sum(
                "_build" in cfg.aut.__dict__ and len(cfg.aut.__dict__["_build"][1][1]) > 1
                for cfg in new.values() if cfg.aut is not None
            )
            if step == steps - 1 or rng.random() < 0.5:
                for name, cfg in new.items():
                    if cfg.aut is not None:
                        assert cfg.aut.images == ref[name].images, name
                        assert cfg.aut.inverse_images == ref[name].inverse_images, name
            spec, catalog = result.surface, new
    assert flattened > 100


def test_surgery_builds_no_table(monkeypatch, capsys):
    # surgery, H1 and the surgery command never read a stabilised table;
    # the first read of one builds it, once
    calls, armed = [], [True]

    def watch(builder):
        def watched(*args):
            if armed:
                raise AssertionError("built a table")
            calls.append(builder)
            return builder(*args)
        return watched

    monkeypatch.setattr(surface, "_transport_tables", watch(surface._transport_tables))
    monkeypatch.setattr(freegroup, "_conjugation_tables", watch(freegroup._conjugation_tables))
    spec, catalog = load_builtin("sigma11")
    book = OpenBook.standard(spec, TwistWord.parse(spec, catalog, "a b"))
    pages = [surgery(book, "1", r) for r in (Fraction(-30), Fraction(-7, 2), Fraction(17, 5))]
    assert [h1_of_open_book(ob).order for ob in pages] == [30, 7, 17]
    argv = ["surgery", "--surface", "sigma11", "--word", "a b", "--K", "1", "--r", "-120"]
    assert main(argv) == 0 and capsys.readouterr().out.startswith("surface: sigma1120\n")
    armed.clear()
    deferred = {}
    for ob in pages:
        for cfg in ob.word.catalog.values():
            build = cfg.aut.__dict__.get("_build") if cfg.aut is not None else None
            if build is not None:
                deferred[id(cfg.aut)] = cfg.aut
                root = build[1][0]
                if build[0] is surface._transport_tables and "_build" in root.__dict__:
                    deferred[id(root)] = root
    assert len(deferred) > 30
    for aut in deferred.values():
        assert aut.images is aut.images and aut.inverse_images
    assert len(calls) == len(deferred)
    for ob in pages:
        for cfg in ob.word.catalog.values():
            if cfg.aut is not None:
                assert cfg.aut == FreeAutomorphism(cfg.aut.rank, cfg.aut.images, cfg.aut.inverse_images)
    assert len(calls) == len(deferred)


def test_surface_spec_is_linear_in_boundary():
    # the abelianisation check sums all boundary words at once: 20000
    # components take milliseconds, and took 30 s when each
    # word was summed into its own length-m vector
    start = time.perf_counter()
    spec = SurfaceSpec.standard(1, 20000)
    assert spec.rank == 20001 and time.perf_counter() - start < 5
    words = list(spec.boundary_words)
    words[-1] = (20001, 20001)
    with pytest.raises(ValueError, match="boundary words do not abelianise to zero"):
        SurfaceSpec(1, 20000, tuple(words))
    # a new hole re-checks only the exponent sum of its generator t
    small = SurfaceSpec.standard(1, 1)
    with pytest.raises(ValueError, match="boundary words do not abelianise to zero"):
        small._with_hole(small.boundary_words[0])
    with pytest.raises(ValueError, match="need genus >= 0 and at least one boundary component"):
        SurfaceSpec(-1, 1, ((),))


def test_stabilize_errors():
    spec, catalog = load_builtin("sigma12")
    with pytest.raises(ValueError):
        stabilize(spec, catalog, 3)
    with pytest.raises(ValueError):
        stabilize(spec, catalog, 0)
    collide = dict(catalog)
    collide["d3"] = replace(catalog["e"], name="d3")
    with pytest.raises(ValueError, match="collision"):
        stabilize(spec, collide, 2)
    short = dict(catalog, c=CurveConfig("c", (1, 0), (0, 1), (0, 1)))
    with pytest.raises(ValueError, match="curve c: vectors have length 2, want 3"):
        stabilize(spec, short, 1)


def _sigma13():
    """The r = 7/2 surgery page of the trefoil book."""
    spec, catalog = load_builtin("sigma11")
    book = OpenBook.standard(spec, TwistWord.parse(spec, catalog, "a b"))
    out = surgery(book, "1", Fraction(7, 2), 1)
    return out.surface, out.word.catalog


def test_curve_weights():
    assert curve_weights(*load_builtin("sigma11")) == {"a": (1,), "b": (1,), "d": (12,)}
    assert curve_weights(*load_builtin("sigma12")) == {
        "a": (1, 1), "b": (1, 1), "g": (12, 12), "d1": (12, 0), "d2": (0, 12),
        "e": (1, 1), "s1": (12, 12), "s2": (1, 1), "s3": (1, 1),
    }
    spec, catalog = _sigma13()
    weights = curve_weights(spec, catalog)
    # g3 and d1 share h = +-(z2 + z3); the class keys tell g3 from d1
    assert weights["g3"] == (0, 12, 12) and weights["d1"] == (12, 0, 0)
    assert weights["g"] == (12, 12, 12)
    # s2 keeps only linear data, but its h types it
    assert catalog["s2"].aut is None and weights["s2"] == (1, 1, 1)
    # without an automorphism the keys cannot tell g3 from d1
    bare = dict(catalog, g3=replace(catalog["g3"], aut=None))
    assert curve_weights(spec, bare)["g3"] is None

    # on the four-holed page g3 bounds {2, 3} or {1, 4}: undecided
    result = stabilize(spec, catalog, 1)
    weights = curve_weights(result.surface, result.catalog)
    assert weights["g3"] is None and weights["d4"] == (0, 0, 0, 12)

    # genus 2: no capping weights are defined
    spec2 = SurfaceSpec.standard(2, 1)
    a = CurveConfig("a", (1, 0, 0, 0), (0, 1, 0, 0), (0, 1, 0, 0))
    d = CurveConfig("d", (0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0), 1)
    assert curve_weights(spec2, {"a": a, "d": d}) is None


def test_relations_conserve_weights():
    # the weights are homomorphisms: both sides of every relation weigh
    # the same
    for (name, _), (lhs, rhs) in RELATION_PATTERNS.items():
        weights = curve_weights(*load_builtin(name))
        total = lambda names: tuple(map(sum, zip(*(weights[n] for n in names))))
        assert total(lhs) == total(rhs)
    # braid pairs, on the builtins, the sigma13 page and seeded chains of
    # stabilisations; a stabilisation at K copies weight K into the new
    # last slot, which checks the key comparisons from both pages
    rng = random.Random(17)
    pages = [load_builtin("sigma11"), load_builtin("sigma12"), _sigma13()]
    braids = 0
    for start in range(12):
        spec, catalog = pages[start % 3]
        for step in range(4):
            weights = curve_weights(spec, catalog)
            for u, v in combinations(catalog, 2):
                if pair_relation(spec.genus, catalog[u], catalog[v]) == "braid":
                    assert weights[u] == weights[v] is not None
                    braids += 1
            if step == 3:
                break
            K = rng.randint(1, spec.boundary)
            result = stabilize(spec, catalog, K)
            after = curve_weights(result.surface, result.catalog)
            for name, w in weights.items():
                moved = after[result.renames.get(name, name)]
                if w is not None and moved is not None:
                    assert moved == w + (w[K - 1],)
            spec, catalog = result.surface, result.catalog
    assert braids > 100


def _eager_stabilize(spec, catalog, K):
    """The stabilisation rule rebuilding every curve on every page, as
    ``stabilize`` did before catalogs were carried: the reference for
    ``CarriedCatalog``.  Returns the surface, a plain catalog, the renames,
    the stabilisation curve and the binding's new index."""
    g, n, m = spec.genus, spec.boundary, spec.rank
    new_n, t = n + 1, m + 1
    ident = FreeAutomorphism.identity(t)
    if K == 1:
        zk = None
        far_word, far_side = spec.boundary_words[0], range(1, t)
        new_b1 = spec.boundary_words[0] + (-t,)
        k_index, stab_index = new_n, 1
    else:
        zk = 2 * g + K - 1
        far_word = far_side = (zk, t)
        new_b1 = tuple(y for x in spec.boundary_words[0] for y in {zk: (zk, t), -zk: (-t, -zk)}.get(x, (x,)))
        k_index, stab_index = K, new_n
    new_spec = SurfaceSpec(g, new_n, (new_b1,) + spec.boundary_words[1:] + ((t,),))

    def extend(v):
        return (*v, 0 if zk is None else v[zk - 1])

    def derived_aut(cfg):
        bpt = cfg.boundary_parallel_to
        if cfg.aut is None:
            return None
        if bpt == K:
            return FreeAutomorphism.conjugation(t, far_word, far_side)
        if bpt == 1:
            return FreeAutomorphism.inner(t, new_b1)
        if bpt is not None:
            return surface._transported_aut(cfg.aut, ((t, None),))
        if zk is not None and (cfg.h[zk - 1] or cfg.p[zk - 1]):
            return None
        return surface._transported_aut(cfg.aut, ((t, zk),))

    new_catalog, renames = {}, {}

    def insert(cfg):
        if cfg.name in new_catalog:
            raise ValueError(f"curve name collision during stabilisation: {cfg.name!r}")
        new_catalog[cfg.name] = cfg

    target = "g" if new_n == 2 else f"g{new_n}"
    for name, cfg in catalog.items():
        bpt = cfg.boundary_parallel_to
        if bpt == K:
            renames[name] = name = target
            bpt = None
        insert(CurveConfig(name, extend(cfg.h), (*cfg.q, 0), extend(cfg.p), bpt, derived_aut(cfg)))
    insert(surface._boundary_curve(new_spec, K, ident))
    insert(surface._boundary_curve(new_spec, new_n, ident))
    return new_spec, new_catalog, renames, f"d{stab_index}", k_index


def _json_page(rng):
    """sigma12 through JSON, with some automorphisms dropped and extra
    curves: copies of catalog curves under other names, some of which
    (g3, d4, g5) the chain will create, so stabilising may collide, and
    v, a copy of g whose relative pairing alone meets z_2."""
    spec, catalog = load_builtin("sigma12")
    obj = json.loads(catalog_to_json(spec, catalog))
    v = dict(obj["curves"][2], name="v", p=[0, 0, 1])
    for entry in obj["curves"]:
        if rng.random() < 0.25:
            entry.pop("aut", None)
    for name in rng.sample(["c", "w", "g3", "d4", "g5", "v"], rng.randint(1, 3)):
        extra = v if name == "v" else dict(rng.choice(obj["curves"]), name=name)
        if name != "v" and rng.random() < 0.5:
            extra.pop("aut", None)
        obj["curves"].append(extra)
    return catalog_from_json(json.dumps(obj))


def test_carried_catalogs_match_eager_stabilisation():
    # seeded chains of up to 12 stabilisations, carried and eager side by
    # side: same pages, names, renames, boundary-parallel answers and
    # errors; curves read at some pages and not at others, so records are
    # carried from every depth; the last pages serialise byte for byte
    rng = random.Random(16)
    sigma11, sigma12 = load_builtin("sigma11"), load_builtin("sigma12")
    extra11 = dict(sigma11[1], c=replace(sigma11[1]["a"], name="c"))
    errors = compared = 0
    for chain in range(60):
        spec, catalog = [
            sigma12, (sigma11[0], extra11), _sigma13(), _json_page(rng),
        ][chain % 4]
        ref = dict(catalog)
        for _ in range(rng.randint(1, 12)):
            K = rng.randint(1, spec.boundary)
            try:
                want = _eager_stabilize(spec, ref, K)
            except ValueError as e:
                with pytest.raises(ValueError, match=f"^{re.escape(str(e))}$"):
                    stabilize(spec, catalog, K)
                errors += 1
                break
            result = stabilize(spec, catalog, K)
            assert result.surface == want[0]
            assert list(result.catalog) == list(want[1])
            assert len(result.catalog) == len(want[1])
            assert (result.renames, result.stab_curve, result.k_index) == want[2:]
            spec, catalog, ref = result.surface, result.catalog, want[1]
            for i in range(1, spec.boundary + 2):
                try:
                    expected = boundary_parallel_curve(ref, i)
                except ValueError:
                    with pytest.raises(ValueError, match="exactly one"):
                        boundary_parallel_curve(catalog, i)
                else:
                    assert boundary_parallel_curve(catalog, i) == expected
            for name in rng.sample(list(ref), rng.randint(0, len(ref))):
                assert name in catalog and catalog[name] == ref[name], name
                assert hash(catalog[name]) == hash(ref[name])
                compared += 1
        assert catalog_to_json(spec, catalog) == catalog_to_json(spec, ref)
        assert dict(catalog) == ref and catalog == ref
    assert errors > 5 and compared > 500


def test_stabilised_catalogs_are_read_only():
    spec, catalog = load_builtin("sigma12")
    carried = stabilize(spec, catalog, 2).catalog
    with pytest.raises(TypeError):
        carried["x"] = catalog["a"]
    copy = dict(carried)
    copy["x"] = catalog["a"]
    assert "x" in copy and "x" not in carried and "zz" not in carried
    assert carried.get("zz") is None and carried.get("a") == copy["a"]


def test_stabilisation_chain_builds_curves_only_when_read(monkeypatch):
    # 100 stabilisations of sigma12 build a bounded number of curves each:
    # the curves parallel to K and to 1 and the two new boundary curves;
    # every other curve is built when the final catalog is read, once
    built = []
    trusted = CurveConfig._trusted.__func__
    validated = CurveConfig.__post_init__
    monkeypatch.setattr(CurveConfig, "_trusted", classmethod(
        lambda cls, name, *rest: built.append(name) or trusted(cls, name, *rest)))
    monkeypatch.setattr(CurveConfig, "__post_init__", lambda self: built.append(self.name) or validated(self))
    rng = random.Random(100)
    spec, catalog = load_builtin("sigma12")
    for step in range(100):
        result = stabilize(spec, catalog, rng.randint(1, spec.boundary))
        spec, catalog = result.surface, result.catalog
        boundary_parallel_curve(catalog, result.k_index)
    assert len(built) <= 6 * 100
    assert len(catalog) == 9 + 2 * 100 and spec.boundary == 102
    built.clear()
    assert dict(catalog) == dict(catalog)
    assert len(built) <= len(catalog)
    built.clear()
    for name in catalog:
        catalog[name]
    assert built == []


def test_curve_hash_is_computed_once():
    spec, catalog = load_builtin("sigma12")
    a = catalog["a"]
    assert hash(a) == hash((a.h, a.q, a.p))
    assert "_hash" not in repr(a)
    moved = replace(a, h=(2, 0, 0), q=(0, 2, 0), p=(0, 2, 0))
    assert hash(moved) == hash(((2, 0, 0), (0, 2, 0), (0, 2, 0)))
    assert replace(a, name="c") != a
    assert replace(a, name="c") == replace(catalog["e"], name="c")
    trusted = CurveConfig._trusted(a.name, a.h, a.q, a.p, None, a.aut)
    assert trusted == a and hash(trusted) == hash(a)
    assert list(vars(trusted)) == list(vars(a))
