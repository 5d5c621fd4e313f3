"""Surfaces with boundary and named twist-curve catalogs.

Conventions, fixed once and locked by the homology outputs downstream:

* A page Sigma_{g,n} has basepoint p on the first boundary component.
  pi_1(Sigma, p) is free of rank m = 2g + n - 1 on x_1, y_1, ..., x_g,
  y_g (genus loops) and z_2, ..., z_n (one loop around each boundary
  component other than the first; the class of the first is determined,
  z_1 = -(z_2 + ... + z_n)).
* The basepoint boundary word is b_1 = [x_1,y_1]...[x_g,y_g]
  z_2^-1 ... z_n^-1 and b_i = z_i for i >= 2.
* The relative H_1(Sigma, boundary) basis is j(x_1), ..., j(y_g)
  followed by arcs A_2, ..., A_n from boundary 1 to boundary i; the
  vector slot of A_i coincides with the slot of z_i.
* A CurveConfig, named by its catalog key, stores the class h = [c], the
  pairings q_k = <basis_k, c> (absolute) and p_k = <relative basis_k, c>,
  and optionally the exact automorphism of the positive twist about c.
  The absolute basis pairs through the relative one, so q = J p, with J
  keeping the 2g genus coordinates, and q = Omega h by the intersection
  form; validate_catalog checks both, and the linear algebra downstream
  derives every homology action from h and p.
* Classes are keyed exactly by (rho o phi, D) (``right_compose``);
  ``pair_relation`` decides on these keys which twists commute or braid,
  and ``mcg.MappingClass`` and the search fold the same keys.

This module holds the spec, the curves, the builtin pages, the class
keys, the capping weights, the relation tables, ``validate_catalog`` and
``boundary_indices``.  Stabilisation lives in ``openbook.stabilisation``
and the JSON format in ``openbook.catalog_json``, loaded only by the
commands that run them; ``stabilize``, ``catalog_to_json`` and
``catalog_from_json`` can still be read here, which loads their module.

The builtin catalogs cover the one- and two-boundary genus-1 pages.  The
two partition-curve automorphisms of the two-boundary page (s2, s3) and
every handedness choice were derived, not guessed: see
tools/derive_lantern_twists.py, whose output is frozen verbatim below
and re-checked by validate_catalog.
"""

from __future__ import annotations

import importlib
from functools import lru_cache
from itertools import combinations
from typing import Iterable, Mapping

from ._value import Value
from .freegroup import (
    FreeAutomorphism,
    Letters,
    are_conjugate,
    exponent_sums,
    reduce_letters,
    sanov_basis,
    sanov_substitute,
)
from .homology import (
    append_twist,
    cokernel,
    dot,
    identity_matrix,
    mat_add,
    nonzero,
    outer,
    zero_matrix,
)

Vector = tuple[int, ...]


class SurfaceSpec(Value):
    """Signature and boundary words of a compact surface with boundary;
    the generator labels follow from the signature (``gen_labels``)."""

    genus: int
    boundary: int
    boundary_words: tuple[Letters, ...]

    def __init__(self, genus, boundary, boundary_words) -> None:
        object.__setattr__(self, "genus", genus)
        object.__setattr__(self, "boundary", boundary)
        object.__setattr__(self, "boundary_words", boundary_words)
        self.__post_init__()

    def __post_init__(self) -> None:
        if self.genus < 0 or self.boundary < 1:
            raise ValueError("need genus >= 0 and at least one boundary component")
        m = self.rank
        if len(self.boundary_words) != self.boundary:
            raise ValueError("need one boundary word per boundary component")
        words = tuple(reduce_letters(w, m) for w in self.boundary_words)
        object.__setattr__(self, "boundary_words", words)
        if any(exponent_sums([x for w in words for x in w], m)):
            raise ValueError("boundary words do not abelianise to zero")

    def _with_hole(self, new_b1: Letters) -> "SurfaceSpec":
        """This page with one more hole: boundary words new_b1, b_2, ...,
        b_n and (t,), t the new generator, where new_b1 is reduced and is
        b_1 with letters t inserted.  Only the exponent sum of t can break
        ``__post_init__``'s rule, so only it is checked."""
        t, n = self.rank + 1, self.boundary + 1
        if new_b1.count(t) - new_b1.count(-t) != -1:
            raise ValueError("boundary words do not abelianise to zero")
        spec = object.__new__(SurfaceSpec)
        object.__setattr__(spec, "genus", self.genus)
        object.__setattr__(spec, "boundary", n)
        object.__setattr__(spec, "boundary_words", (new_b1,) + self.boundary_words[1:] + ((t,),))
        return spec

    @property
    def rank(self) -> int:
        return 2 * self.genus + self.boundary - 1

    @property
    def name(self) -> str:
        return f"sigma{self.genus}{self.boundary}"

    @property
    def gen_labels(self) -> tuple[str, ...]:
        """Names of x_1, y_1, ..., x_g, y_g, z_2, ..., z_n: x and y on a
        genus-1 page, x1, y1, ..., xg, yg otherwise, then z2, ..., zn."""
        if self.genus == 1:
            labels = ("x", "y")
        else:
            labels = tuple(f"{s}{k}" for k in range(1, self.genus + 1) for s in "xy")
        return labels + tuple(f"z{i}" for i in range(2, self.boundary + 1))

    @classmethod
    def standard(cls, genus: int, boundary: int) -> "SurfaceSpec":
        """The spec with the canonical boundary words b_1 =
        [x_1,y_1]...[x_g,y_g] z_2^-1 ... z_n^-1 and b_i = z_i."""
        commutators = []
        for k in range(genus):
            x, y = 2 * k + 1, 2 * k + 2
            commutators += [x, y, -x, -y]
        b1 = tuple(commutators) + tuple(
            -(2 * genus + i - 1) for i in range(2, boundary + 1)
        )
        words = (b1,) + tuple(
            (2 * genus + i - 1,) for i in range(2, boundary + 1)
        )
        return cls(genus, boundary, words)


class CurveConfig(Value):
    """A simple closed curve with pairing data and, optionally, the exact
    automorphism of its positive twist; its name is its catalog key."""

    h: Vector
    q: Vector
    p: Vector
    boundary_parallel_to: int | None
    aut: FreeAutomorphism | None
    # curves key the twist_step and pair_relation caches: the hash of
    # (h, q, p), computed once, skipping the automorphism; not a field
    _hash: int

    def __init__(self, h, q, p, boundary_parallel_to=None, aut=None) -> None:
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "boundary_parallel_to", boundary_parallel_to)
        object.__setattr__(self, "aut", aut)
        self.__post_init__()

    def __post_init__(self) -> None:
        if not (len(self.h) == len(self.q) == len(self.p)):
            raise ValueError("h, q, p lengths differ")
        if self.aut is not None and self.aut.rank != len(self.h):
            raise ValueError("automorphism rank mismatch")
        object.__setattr__(self, "_hash", hash((self.h, self.q, self.p)))

    @classmethod
    def _trusted(cls, h, q, p, boundary_parallel_to, aut) -> "CurveConfig":
        """Wrap fields already known to pass ``__post_init__``, set in
        field order as ``__init__`` sets them."""
        cfg = object.__new__(cls)
        object.__setattr__(cfg, "h", h)
        object.__setattr__(cfg, "q", q)
        object.__setattr__(cfg, "p", p)
        object.__setattr__(cfg, "boundary_parallel_to", boundary_parallel_to)
        object.__setattr__(cfg, "aut", aut)
        object.__setattr__(cfg, "_hash", hash((h, q, p)))
        return cfg

    @property
    def rank(self) -> int:
        return len(self.h)

    def __hash__(self) -> int:
        return self._hash


Catalog = dict[str, CurveConfig]


def _boundary_curve(spec: SurfaceSpec, i: int, ident=None) -> CurveConfig:
    """d<i>, parallel to boundary component i: h = p is the class of that
    component, and the twist is inner(b_1) for i = 1 and trivial on pi_1
    otherwise (the identity ``ident`` when given)."""
    m, g2 = spec.rank, 2 * spec.genus
    if i == 1:
        h = (0,) * g2 + (-1,) * (spec.boundary - 1)
        aut = FreeAutomorphism._conjugation(m, spec.boundary_words[0], range(1, m + 1))
    else:
        h = (0,) * (g2 + i - 2) + (1,) + (0,) * (m - g2 - i + 1)
        aut = ident or FreeAutomorphism.identity(m)
    return CurveConfig._trusted(h, (0,) * m, h, i, aut)


@lru_cache(maxsize=None)
def _sigma11() -> tuple[SurfaceSpec, Catalog]:
    spec = SurfaceSpec.standard(1, 1)
    b1 = spec.boundary_words[0]
    catalog = {
        "a": CurveConfig(
            (1, 0), (0, 1), (0, 1),
            aut=FreeAutomorphism(2, [(1,), (2, 1)], [(1,), (2, -1)]),
        ),
        "b": CurveConfig(
            (0, 1), (-1, 0), (-1, 0),
            aut=FreeAutomorphism(2, [(1, -2), (2,)], [(1, 2), (2,)]),
        ),
        "d": CurveConfig(
            (0, 0), (0, 0), (0, 0),
            boundary_parallel_to=1,
            aut=FreeAutomorphism.inner(2, b1),
        ),
    }
    return spec, catalog


# Frozen output of tools/derive_lantern_twists.py: the two partition
# curves of the four-holed sphere cut out by e, in the lexicographically
# least surviving convention (handedness +1, relation order g, u, w).
_S2_IMAGES = ((3, 1, -3), (3, -1, -3, 1, 2, 1, -3), (3, -1, 3, 1, -3))
_S2_INVERSE = ((1, -3, 1, 3, -1), (1, -3, -1, 3, 2, 3, -1), (1, 3, -1))
_S3_IMAGES = ((1,), (3, 2, 1), (3, 2, 1, -2, 3, 2, -1, -2, -3))
_S3_INVERSE = ((1,), (2, -1, -2, -3, 2), (2, -1, -2, 3, 2, 1, -2))


@lru_cache(maxsize=None)
def _sigma12() -> tuple[SurfaceSpec, Catalog]:
    spec = SurfaceSpec.standard(1, 2)
    b1 = spec.boundary_words[0]          # (1, 2, -1, -2, -3)
    g_word = (1, 2, -1, -2)              # separating curve around the genus
    aut_a = FreeAutomorphism(3, [(1,), (2, 1), (3,)], [(1,), (2, -1), (3,)])
    aut_g = FreeAutomorphism.conjugation(3, g_word, (1, 2))
    a = CurveConfig((1, 0, 0), (0, 1, 0), (0, 1, 0), aut=aut_a)
    g = CurveConfig((0, 0, 0), (0, 0, 0), (0, 0, 0), aut=aut_g)
    catalog = {
        "a": a,
        "b": CurveConfig(
            (0, 1, 0), (-1, 0, 0), (-1, 0, 0),
            aut=FreeAutomorphism(3, [(1, -2), (2,), (3,)], [(1, 2), (2,), (3,)]),
        ),
        "g": g,
        "d1": CurveConfig(
            (0, 0, -1), (0, 0, 0), (0, 0, -1),
            boundary_parallel_to=1,
            aut=FreeAutomorphism.inner(3, b1),
        ),
        "d2": CurveConfig(
            (0, 0, 1), (0, 0, 0), (0, 0, 1),
            boundary_parallel_to=2,
            aut=FreeAutomorphism.identity(3),
        ),
        # e is a parallel copy of a on the other side of the handle and
        # s1 is parallel to the separating curve g: same data, one value
        "e": a,
        "s1": g,
        "s2": CurveConfig(
            (1, 0, -1), (0, 1, 0), (0, 1, -1),
            aut=FreeAutomorphism(3, _S2_IMAGES, _S2_INVERSE),
        ),
        "s3": CurveConfig(
            (1, 0, 1), (0, 1, 0), (0, 1, 1),
            aut=FreeAutomorphism(3, _S3_IMAGES, _S3_INVERSE),
        ),
    }
    return spec, catalog


def load_builtin(name: str) -> tuple[SurfaceSpec, Catalog]:
    """The builtin surface configurations.

    ``sigma11`` is the one-holed torus with curves a, b (dual
    non-separating curves) and d (boundary-parallel).  ``sigma12`` is
    the twice-holed torus with a, b, the separating curve g, the
    boundary-parallel d1 and d2, the second non-separating curve e, and
    the lantern interior curves s1, s2, s3.  The curves are built once
    and shared, as they are immutable; each call returns a new dict.
    """
    if name not in ("sigma11", "sigma12"):
        raise ValueError(f"unknown builtin surface {name!r}")
    spec, catalog = (_sigma11 if name == "sigma11" else _sigma12)()
    return spec, dict(catalog)


@lru_cache(maxsize=32)
def identity_key(rank: int):
    """Class key of the identity (see ``right_compose``); built once per
    rank, as keys are immutable."""
    return sanov_basis(rank), zero_matrix(rank)


@lru_cache(maxsize=4096)
def twist_step(cfg: CurveConfig, genus: int, sign: int = 1):
    """The step of tau_c^sign, sign = +-1, for ``right_compose``: the
    generator images, Jh (h cut to its 2g genus coordinates), h, and
    sign p, with Jh and sign p as ``homology.nonzero`` pairs.  c needs an
    exact automorphism.  Built once per (curve, genus, sign)."""
    images = cfg.aut.images if sign > 0 else cfg.aut.inverse_images
    return images, nonzero(cfg.h[:2 * genus]), cfg.h, nonzero(cfg.p, sign)


def right_compose(key, step):
    """Class key (rho o phi o psi, D) from the key (rho o phi, D) of phi and
    the step of psi = tau_c^+-1.  rho is Sanov's faithful representation
    (``freegroup.sanov_basis``), so keys are equal exactly when classes
    are: rho o phi o psi reads psi's images through the matrices of
    rho o phi, and D takes the rank-one update D + (D Jh + h)(+-p)^T
    (``homology.append_twist``)."""
    rho, d = key
    images, jh, h, p = step
    return sanov_substitute(rho, images), append_twist(d, jh, h, p)


def _class_key(genus: int, rank: int, catalog: Mapping[str, CurveConfig], names: Iterable[str]):
    """Class key of the word of positive twists about the catalog curves
    ``names``; raises for a curve without an exact automorphism."""
    key = identity_key(rank)
    for name in names:
        cfg = catalog[name]
        if cfg.aut is None:
            raise ValueError(f"missing automorphism for curve {name!r}")
        key = right_compose(key, twist_step(cfg, genus))
    return key


@lru_cache(maxsize=4096)
def pair_relation(genus: int, u: CurveConfig, v: CurveConfig) -> str | None:
    """"commute" when u v and v u have one class key, "braid" when
    |q_u . h_v| = 1 and u v u and v u v have one key, else None.

    Twists commute when their curves are disjoint and braid when they
    meet once (Farb-Margalit, A Primer on Mapping Class Groups, 3.5); the
    pairing keeps curves of one class, for which u v u = v u v trivially,
    out of the braids.  A curve without an exact automorphism relates to
    nothing.  Cached per ordered pair; on validated curves (q = Omega h)
    the relation is symmetric in u and v.
    """
    if u.aut is None or v.aut is None:
        return None
    su, sv = twist_step(u, genus), twist_step(v, genus)
    base = identity_key(u.rank)
    uv = right_compose(right_compose(base, su), sv)
    vu = right_compose(right_compose(base, sv), su)
    if uv == vu:
        return "commute"
    if abs(dot(u.q, v.h)) == 1 and right_compose(uv, su) == right_compose(vu, sv):
        return "braid"
    return None


def curve_weights(
    spec: SurfaceSpec, catalog: Mapping[str, CurveConfig]
) -> dict[str, Vector | None] | None:
    """The capping weights of each curve's positive twist, None for a
    curve whose weights are undecided; None off genus 1.

    Capping all boundary components but j maps Mod(Sigma_{1,r}) to
    Mod(Sigma_{1,1}) = B_3, whose abelianisation makes weight j 1 for a
    nonseparating curve (the genus part of h is nonzero), 12 for a
    separating curve whose planar side B holds component j ((a b)^6 is
    the boundary twist), else 0.  The r weights carry all of
    H_1(Mod(Sigma_{1,r})) = Z^r (Korkmaz 2002).  h = +-(the z_i, i in T)
    leaves B = T or its complement; a side of at most one component is
    tested against the class key of the identity or d<i>.  Undecided:
    both sides have two or more components (r >= 4), the test needs a
    missing automorphism, or h has no such form.
    """
    if spec.genus != 1:
        return None
    r, m = spec.boundary, spec.rank
    weights: dict[str, Vector | None] = dict.fromkeys(catalog)

    def side_key(side):
        """Key of the twist about d<i> for side (i,), or a trivial curve for ()."""
        curves = {f"d{i}": _boundary_curve(spec, i) for i in side}
        return _class_key(1, m, curves, curves)

    for name, cfg in catalog.items():
        if any(cfg.h[:2]):
            weights[name] = (1,) * r
            continue
        if cfg.boundary_parallel_to is not None:
            sides = [(cfg.boundary_parallel_to,)]
        elif cfg.aut is not None and set(cfg.h[2:]) - {0} in (set(), {1}, {-1}):
            t = tuple(i for i in range(2, r + 1) if cfg.h[i])
            both = (t, tuple(j for j in range(1, r + 1) if j not in t))
            own = _class_key(1, m, catalog, [name])
            sides = [s for s in both if len(s) < 2 and side_key(s) == own]
            sides = sides or [s for s in both if len(s) > 1]
        else:
            continue
        if len(sides) == 1:
            weights[name] = tuple(12 if j in sides[0] else 0 for j in range(1, r + 1))
    return weights


# chain and lantern (lhs, rhs) by surface name: the only name-keyed relations
RELATION_PATTERNS = {
    ("sigma11", "chain"): (("a", "b") * 6, ("d",)),
    ("sigma12", "chain"): (("a", "b") * 6, ("g",)),
    ("sigma12", "lantern"): (("d1", "d2", "e", "e"), ("s1", "s2", "s3")),
}


class RelationTables(Value):
    """Relation moves of a builtin page: the ``pair_relation`` braid and
    commute pairs in catalog order, and the chain and lantern patterns."""

    braid_pairs: tuple[tuple[str, str], ...]
    commute_pairs: tuple[tuple[str, str], ...]
    chain: tuple[tuple[str, ...], tuple[str, ...]] | None
    lantern: tuple[tuple[str, ...], tuple[str, ...]] | None

    def __init__(self, braid_pairs, commute_pairs, chain=None, lantern=None) -> None:
        object.__setattr__(self, "braid_pairs", braid_pairs)
        object.__setattr__(self, "commute_pairs", commute_pairs)
        object.__setattr__(self, "chain", chain)
        object.__setattr__(self, "lantern", lantern)

    def braids(self, u: str, v: str) -> bool:
        return (u, v) in self.braid_pairs or (v, u) in self.braid_pairs

    def commutes(self, u: str, v: str) -> bool:
        return (u, v) in self.commute_pairs or (v, u) in self.commute_pairs


@lru_cache(maxsize=None)
def relation_tables(surface_name: str) -> RelationTables:
    """The relation moves of a builtin page; raises for any other name."""
    spec, catalog = load_builtin(surface_name)
    kinds = {
        (u, v): pair_relation(spec.genus, catalog[u], catalog[v])
        for u, v in combinations(catalog, 2)
    }
    return RelationTables(
        tuple(pair for pair, kind in kinds.items() if kind == "braid"),
        tuple(pair for pair, kind in kinds.items() if kind == "commute"),
        RELATION_PATTERNS.get((surface_name, "chain")),
        RELATION_PATTERNS.get((surface_name, "lantern")),
    )


class CheckResult(Value):
    name: str
    passed: bool
    detail: str

    def __init__(self, name, passed, detail="") -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "passed", passed)
        object.__setattr__(self, "detail", detail)


class ValidationReport(Value):
    checks: tuple[CheckResult, ...]

    def __init__(self, checks) -> None:
        object.__setattr__(self, "checks", checks)

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failing(self) -> tuple[CheckResult, ...]:
        return tuple(c for c in self.checks if not c.passed)

    def __str__(self) -> str:
        lines = []
        for c in self.checks:
            status = "PASS" if c.passed else f"FAIL ({c.detail})"
            lines.append(f"{c.name}: {status}")
        return "\n".join(lines)


def validate_catalog(surface: SurfaceSpec, catalog: Mapping[str, CurveConfig]) -> ValidationReport:
    """Run every structural and relation check on a catalog.

    Structural checks apply to any catalog; the chain and lantern checks
    compare the class keys of the two sides of the surface's
    ``RELATION_PATTERNS`` and are vacuous without them.  A relation naming
    a curve the catalog lacks fails its check; one naming a curve without
    an exact automorphism raises.

    Boundary-word behaviour: every twist must fix the basepoint
    boundary word b_1 on the nose; for the other components only the
    free homotopy class is defined, so their words are checked up to
    conjugacy (a twist about a curve crossing the arc to boundary i
    genuinely conjugates b_i).
    """
    m = surface.rank
    g2 = 2 * surface.genus
    checks: list[CheckResult] = []

    def add(name: str, failures: list[str]) -> None:
        checks.append(CheckResult(name, not failures, "; ".join(failures)))

    failures = []
    for key, cfg in catalog.items():
        if cfg.rank != m:
            failures.append(f"curve {key}: vectors have length {cfg.rank}, want {m}")
            continue
        if cfg.q != cfg.p[:g2] + (0,) * (m - g2):
            failures.append(f"curve {key}: q != J p")
        if dot(cfg.p, cfg.h[:g2]) != 0:
            failures.append(f"curve {key}: p . Jh != 0")
        if cfg.boundary_parallel_to is not None and not (
            1 <= cfg.boundary_parallel_to <= surface.boundary
        ):
            failures.append(f"curve {key}: bad boundary index")
    add("structure", failures)
    if failures:
        return ValidationReport(tuple(checks))

    # the other per-curve checks in one pass: (check, detail) in catalog order
    failed: list[tuple[str, str]] = []
    b1 = surface.boundary_words[0]
    for key, cfg in catalog.items():
        problems = []
        # q = Omega h: <y_i, x_i> = 1, and the boundary loops pair to 0
        omega_h = sum(((-cfg.h[k + 1], cfg.h[k]) for k in range(0, g2, 2)), ())
        if cfg.q != omega_h + (0,) * (m - g2):
            problems.append(("separating_q", "q != Omega h"))
        i = cfg.boundary_parallel_to
        if i is not None:
            want_h = _boundary_curve(surface, i).h
            if cfg.h != want_h or cfg.p != want_h or any(cfg.q):
                problems.append((
                    "boundary_parallel_data",
                    f"data does not match a curve parallel to boundary {i}",
                ))
        if cfg.aut is not None:
            abelian = cfg.aut.abelianize()
            if abelian != mat_add(identity_matrix(m), outer(cfg.h, cfg.q)):
                problems.append(("transvection", "abelianisation is not I + h q^T"))
                # Z^m / A Z^m = 0 exactly when det A = +-1
                unimodular = cokernel(abelian).is_trivial()
            else:
                # det(I + h q^T) = 1 + q . h (the matrix determinant lemma)
                unimodular = abs(1 + dot(cfg.q, cfg.h)) == 1
            if not unimodular:
                problems.append(("unimodular", "automorphism not unimodular"))
            if cfg.aut.apply(b1) != b1:
                problems.append(
                    ("boundary_words", "does not fix the basepoint boundary word")
                )
            for k, bk in enumerate(surface.boundary_words[1:], 2):
                if not are_conjugate(cfg.aut.apply(bk), bk):
                    problems.append((
                        "boundary_words",
                        f"moves boundary word {k} off its conjugacy class",
                    ))
        failed += [(check, f"curve {key}: {detail}") for check, detail in problems]
    for name in (
        "transvection", "unimodular", "separating_q",
        "boundary_parallel_data", "boundary_words",
    ):
        add(name, [detail for check, detail in failed if check == name])

    for kind in ("chain", "lantern"):
        failures = []
        relation = RELATION_PATTERNS.get((surface.name, kind))
        if relation is not None:
            lhs, rhs = relation
            gone = sorted(set(lhs + rhs) - set(catalog))
            if gone:
                failures.append("curves not in catalog: " + ", ".join(gone))
            else:
                (rho_l, d_l), (rho_r, d_r) = (
                    _class_key(surface.genus, m, catalog, side)
                    for side in (lhs, rhs)
                )
                if rho_l != rho_r:
                    failures.append(f"{kind} relation fails on automorphisms")
                if d_l != d_r:
                    failures.append(f"{kind} relation fails on linear data")
        add(kind, failures)

    return ValidationReport(tuple(checks))


def boundary_indices(catalog: Mapping[str, CurveConfig]) -> dict[str, int]:
    """The boundary component each boundary-parallel curve is parallel
    to, by name, in catalog order.  A ``stabilisation.CarriedCatalog``
    answers from its records, whose boundary indices are current,
    building no curve."""
    # type, not isinstance: an ABC's isinstance costs about 150 ns, this 17 ns
    curves = catalog._records if type(catalog) is _carried_catalog else catalog
    return {name: cfg.boundary_parallel_to for name, cfg in curves.items()
            if cfg.boundary_parallel_to is not None}


# stabilisation.CarriedCatalog, set when that module loads: until then no
# catalog is carried, and boundary_indices need not load it to tell
_carried_catalog = None

# public names that moved out of this module, by their new module
_MOVED = {
    "stabilize": "stabilisation",
    "catalog_to_json": "catalog_json",
    "catalog_from_json": "catalog_json",
}


def __getattr__(name):
    if name not in _MOVED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__package__}.{_MOVED[name]}"), name)
    globals()[name] = value
    return value
