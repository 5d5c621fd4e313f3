"""Surfaces with boundary, named twist-curve catalogs, and stabilisation.

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
* A CurveConfig stores the class h = [c] and the two pairing vectors
  q_k = <basis_k, c> (absolute) and p_k = <relative basis_k, c>, plus
  optionally the exact automorphism of the positive twist about c.
  The absolute basis pairs through the relative one, so q = J p, with J
  keeping the 2g genus coordinates, and q = Omega h by the intersection
  form; validate_catalog checks both, and the linear algebra downstream
  derives every homology action from h and p.
* Classes are keyed exactly by (rho o phi, D) (``right_compose``);
  ``pair_relation`` decides on these keys which twists commute or braid,
  and ``mcg.MappingClass`` and the search fold the same keys.
* ``stabilize`` is one rule for every boundary index: each curve's twist
  is carried to the new page by the basis change, zero-extended, or
  replaced by a conjugation.  These are built trusted, on first read:
  each is an automorphism whenever the input twist is, and a carried
  twist keeps only its first page's automorphism and the steps (t, z_K)
  since; automorphisms are checked where they enter (the public
  constructor, JSON).  Whole curves are carried the same way: a
  stabilised page's catalog is a read-only ``CarriedCatalog``, in
  which a stabilisation writes only the curves it changes and every
  other curve is carried through the steps since its last build when it
  is first read; ``dict(catalog)`` gives a mutable copy.

The builtin catalogs cover the one- and two-boundary genus-1 pages.  The
two partition-curve automorphisms of the two-boundary page (s2, s3) and
every handedness choice were derived, not guessed: see
tools/derive_lantern_twists.py, whose output is frozen verbatim below
and re-checked by validate_catalog.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import Mapping, Sequence

from ._value import Value
from .freegroup import (
    FreeAutomorphism,
    Letters,
    are_conjugate,
    concat,
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
    """A named simple closed curve with pairing data and, optionally,
    the exact automorphism of its positive twist."""

    name: str
    h: Vector
    q: Vector
    p: Vector
    boundary_parallel_to: int | None
    aut: FreeAutomorphism | None
    # curves key the twist_step and pair_relation caches: the hash of
    # (h, q, p), computed once, skipping the automorphism; not a field
    _hash: int

    def __init__(self, name, h, q, p, boundary_parallel_to=None, aut=None) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "boundary_parallel_to", boundary_parallel_to)
        object.__setattr__(self, "aut", aut)
        self.__post_init__()

    def __post_init__(self) -> None:
        if not (len(self.h) == len(self.q) == len(self.p)):
            raise ValueError(f"curve {self.name}: h, q, p lengths differ")
        if self.aut is not None and self.aut.rank != len(self.h):
            raise ValueError(f"curve {self.name}: automorphism rank mismatch")
        object.__setattr__(self, "_hash", hash((self.h, self.q, self.p)))

    @classmethod
    def _trusted(cls, name, h, q, p, boundary_parallel_to, aut) -> "CurveConfig":
        """Wrap fields already known to pass ``__post_init__``, set in
        field order as ``__init__`` sets them."""
        cfg = object.__new__(cls)
        object.__setattr__(cfg, "name", name)
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
    return CurveConfig._trusted(f"d{i}", h, (0,) * m, h, i, aut)


@lru_cache(maxsize=None)
def _sigma11() -> tuple[SurfaceSpec, Catalog]:
    spec = SurfaceSpec.standard(1, 1)
    b1 = spec.boundary_words[0]
    catalog = {
        "a": CurveConfig(
            "a", (1, 0), (0, 1), (0, 1),
            aut=FreeAutomorphism(2, [(1,), (2, 1)], [(1,), (2, -1)]),
        ),
        "b": CurveConfig(
            "b", (0, 1), (-1, 0), (-1, 0),
            aut=FreeAutomorphism(2, [(1, -2), (2,)], [(1, 2), (2,)]),
        ),
        "d": CurveConfig(
            "d", (0, 0), (0, 0), (0, 0),
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
    catalog = {
        "a": CurveConfig("a", (1, 0, 0), (0, 1, 0), (0, 1, 0), aut=aut_a),
        "b": CurveConfig(
            "b", (0, 1, 0), (-1, 0, 0), (-1, 0, 0),
            aut=FreeAutomorphism(3, [(1, -2), (2,), (3,)], [(1, 2), (2,), (3,)]),
        ),
        "g": CurveConfig("g", (0, 0, 0), (0, 0, 0), (0, 0, 0), aut=aut_g),
        "d1": CurveConfig(
            "d1", (0, 0, -1), (0, 0, 0), (0, 0, -1),
            boundary_parallel_to=1,
            aut=FreeAutomorphism.inner(3, b1),
        ),
        "d2": CurveConfig(
            "d2", (0, 0, 1), (0, 0, 0), (0, 0, 1),
            boundary_parallel_to=2,
            aut=FreeAutomorphism.identity(3),
        ),
        # e is a parallel copy of a on the other side of the handle;
        # same class, same pairings, same action
        "e": CurveConfig("e", (1, 0, 0), (0, 1, 0), (0, 1, 0), aut=aut_a),
        # s1 is parallel to the separating curve g
        "s1": CurveConfig("s1", (0, 0, 0), (0, 0, 0), (0, 0, 0), aut=aut_g),
        "s2": CurveConfig(
            "s2", (1, 0, -1), (0, 1, 0), (0, 1, -1),
            aut=FreeAutomorphism(3, _S2_IMAGES, _S2_INVERSE),
        ),
        "s3": CurveConfig(
            "s3", (1, 0, 1), (0, 1, 0), (0, 1, 1),
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


def _class_key(genus: int, rank: int, curves: Sequence[CurveConfig]):
    """Class key of the word of positive twists about ``curves``; raises
    for a curve without an exact automorphism."""
    key = identity_key(rank)
    for cfg in curves:
        if cfg.aut is None:
            raise ValueError(f"missing automorphism for curve {cfg.name!r}")
        key = right_compose(key, twist_step(cfg, genus))
    return key


def pair_relation(genus: int, u: CurveConfig, v: CurveConfig) -> str | None:
    """"commute" when u v and v u have one class key, "braid" when
    |q_u . h_v| = 1 and u v u and v u v have one key, else None.

    Twists commute when their curves are disjoint and braid when they
    meet once (Farb-Margalit, A Primer on Mapping Class Groups, 3.5); the
    pairing keeps curves of one class, for which u v u = v u v trivially,
    out of the braids.  A curve without an exact automorphism relates to
    nothing.  Cached once per unordered pair.
    """
    if v.name < u.name:
        u, v = v, u
    return _pair_relation(genus, u, v)


@lru_cache(maxsize=4096)
def _pair_relation(genus: int, u: CurveConfig, v: CurveConfig) -> str | None:
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
        return _class_key(1, m, [_boundary_curve(spec, i) for i in side])

    for name, cfg in catalog.items():
        if any(cfg.h[:2]):
            weights[name] = (1,) * r
            continue
        if cfg.boundary_parallel_to is not None:
            sides = [(cfg.boundary_parallel_to,)]
        elif cfg.aut is not None and set(cfg.h[2:]) - {0} in (set(), {1}, {-1}):
            t = tuple(i for i in range(2, r + 1) if cfg.h[i])
            both = (t, tuple(j for j in range(1, r + 1) if j not in t))
            own = _class_key(1, m, [cfg])
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
        if cfg.name != key:
            failures.append(f"catalog key {key!r} holds curve named {cfg.name!r}")
            continue
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
            if not cokernel(abelian).is_trivial():
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
                    _class_key(surface.genus, m, [catalog[n] for n in side])
                    for side in (lhs, rhs)
                )
                if rho_l != rho_r:
                    failures.append(f"{kind} relation fails on automorphisms")
                if d_l != d_r:
                    failures.append(f"{kind} relation fails on linear data")
        add(kind, failures)

    return ValidationReport(tuple(checks))


class StabResult(Value):
    """Everything produced by one stabilisation.

    ``renames`` maps old curve names to new ones (curves whose
    boundary-parallel status the new handle destroyed); ``stab_curve``
    names the boundary-parallel curve whose positive twist the
    stabilisation appends; the stabilised binding now sits at boundary
    index ``k_index``, parallel to d<k_index>.  ``catalog`` is a
    read-only ``CarriedCatalog``.
    """

    surface: SurfaceSpec
    catalog: Mapping[str, CurveConfig]
    renames: dict[str, str]
    stab_curve: str
    k_index: int

    def __init__(self, surface, catalog, renames, stab_curve, k_index) -> None:
        object.__setattr__(self, "surface", surface)
        object.__setattr__(self, "catalog", catalog)
        object.__setattr__(self, "renames", renames)
        object.__setattr__(self, "stab_curve", stab_curve)
        object.__setattr__(self, "k_index", k_index)


def _split_zk(words: Sequence[Letters], zk: int, t: int) -> list[Letters]:
    """z_K -> z_K t on reduced words without t; the results are reduced."""
    split = {zk: (zk, t), -zk: (-t, -zk)}
    return [tuple(y for x in w for y in split.get(x, (x,))) for w in words]


def _transport_tables(root: FreeAutomorphism, steps):
    """The tables of ``root`` carried through ``steps`` (t, z_K or None):
    S o (aut * fix t) o S^-1 takes x to S(aut(x)), z_K to S(aut(z_K)) t^-1
    (only this seam can cancel) and t to t."""
    tables = root.images, root.inverse_images
    for t, zk in steps:
        if zk is not None:
            tables = [_split_zk(table, zk, t) for table in tables]
            for table in tables:
                table[zk - 1] = concat(table[zk - 1], (-t,))
        fixed = (t,)
        tables = tuple((*table, fixed) for table in tables)
    return tables


def _transported_aut(aut: FreeAutomorphism, steps) -> FreeAutomorphism:
    """``aut`` carried through ``steps`` (t, z_K or None), each
    S o (aut * fix t) o S^-1 for S: z_K -> z_K t, t the new last
    generator, or the identity (zk None); built trusted, on first read, as
    a conjugate of an automorphism is one.  Unread tables gain the steps."""
    build, args = aut.__dict__.get("_build", (None, None))
    root, done = args if build is _transport_tables else (aut, ())
    return FreeAutomorphism._deferred(steps[-1][0], _transport_tables, root, done + steps)


def _carry(name: str, cfg: CurveConfig, steps) -> CurveConfig:
    """``cfg`` carried in one pass through the stabilisations ``steps``,
    each given by its z_K (None for K = 1) and adding the generator t one
    past the rank: h and p gain the z_K / A_K weight (0 for K = 1), q
    gains 0, and the twist is transported, zero-extended for a
    boundary-parallel curve, until an interior curve meets z_K, which
    drops it (see ``stabilize``)."""
    h, p = list(cfg.h), list(cfg.p)
    bpt, aut = cfg.boundary_parallel_to, cfg.aut
    moves = []
    for t, zk in enumerate(steps, cfg.rank + 1):
        hz, pz = (0, 0) if zk is None else (h[zk - 1], p[zk - 1])
        h.append(hz)
        p.append(pz)
        if bpt is not None:
            zk = None
        elif hz or pz:
            aut = None
        moves.append((t, zk))
    if aut is not None:
        aut = _transported_aut(aut, tuple(moves))
    return CurveConfig._trusted(name, tuple(h), cfg.q + (0,) * len(steps), tuple(p), bpt, aut)


class CarriedCatalog(Mapping):
    """The read-only catalog of a stabilised page, whose curves are built
    when first read.

    It holds one record per name, in catalog order, and the
    stabilisations since the last plain catalog: that page's rank, then
    z_K or None per step.  A record is a curve as last built: of rank r,
    it lives on the page r - rank steps along.  Its boundary index is
    current, as ``stabilize`` rebuilds every curve whose index changes.
    Reading it carries it through the later steps once (``_carry``) and
    stores the result as the record, so each curve is built once per
    page.  ``dict(catalog)`` gives a mutable copy.
    """

    __slots__ = ("_records", "_rank", "_steps")

    def __init__(self, records, rank, steps=()) -> None:
        self._records, self._rank, self._steps = records, rank, steps

    @classmethod
    def of(cls, catalog: Mapping[str, CurveConfig], rank: int) -> "CarriedCatalog":
        """``catalog`` itself if carried, else a copy of its curves, which
        must have rank ``rank``, with no steps yet."""
        if isinstance(catalog, cls):
            return catalog
        for name, cfg in catalog.items():
            if cfg.rank != rank:
                raise ValueError(f"curve {name}: vectors have length {cfg.rank}, want {rank}")
        return cls(dict(catalog), rank)

    def parallel_to(self, i: int) -> list[str]:
        """The names of the curves parallel to boundary component i,
        read from the records without building any curve."""
        return _parallel_to(self._records, i)

    def stabilised(self, zk, renames, rebuilt, added) -> "CarriedCatalog":
        """The catalog one stabilisation (z_K or None) on: names renamed
        in place by ``renames``, the records of the curves ``rebuilt``
        replaced, and the curves ``added`` appended, all of these already
        on the new page.  Raises on a name collision."""
        names = list(self._records)
        for old, new in renames.items():
            names[names.index(old)] = new
        records = dict(zip(names, self._records.values()))
        if len(records) < len(names):
            raise _collision(next(iter(renames.values())))
        for cfg in rebuilt:
            records[cfg.name] = cfg
        for cfg in added:
            if cfg.name in records:
                raise _collision(cfg.name)
            records[cfg.name] = cfg
        return CarriedCatalog(records, self._rank, self._steps + (zk,))

    def __getitem__(self, name: str) -> CurveConfig:
        cfg = self._records[name]
        todo = self._steps[cfg.rank - self._rank:]
        if todo:
            cfg = self._records[name] = _carry(name, cfg, todo)
        return cfg

    def __contains__(self, name) -> bool:
        return name in self._records

    def __iter__(self):
        return iter(self._records)

    def __len__(self) -> int:
        return len(self._records)


def _parallel_to(curves: Mapping[str, CurveConfig], i: int) -> list[str]:
    """The names of the curves parallel to boundary component i."""
    return [name for name, cfg in curves.items() if cfg.boundary_parallel_to == i]


def _collision(name: str) -> ValueError:
    return ValueError(f"curve name collision during stabilisation: {name!r}")


def stabilize(
    surface: SurfaceSpec, catalog: Mapping[str, CurveConfig], K: int
) -> StabResult:
    """Add a 1-handle across boundary component K (genus unchanged,
    one more boundary component) and return the new configuration.

    One rule covers every K.  Boundary K splits into a continuation hole
    and a fresh hole t, the new last generator, and old b_K = new b_K t.
    The basis change S is the identity for K = 1 and z_K -> z_K t for
    K >= 2.  For K = 1 the basepoint stays on boundary 1 and the binding
    moves to the fresh hole; for K >= 2 the binding keeps index K and
    the fresh hole carries the stabilisation curve.  Each old curve,
    in catalog order:

    * parallel to K: it now bounds both new holes and is renamed g<n+1>
      (g on the two-boundary page); its twist conjugates the generators
      on its far side from the basepoint by its word: all old ones by
      old b_1 for K = 1, z_K and t by z_K t for K >= 2;
    * parallel to 1 (K >= 2): the twist is inner(new b_1);
    * parallel to another component: the twist is zero-extended;
    * interior: the twist is transported by S, unless the curve's class
      or relative pairing meets boundary K.  Such a curve runs through
      the handle and keeps only its linear data.

    h and p are zero-extended with the z_K/A_K weight copied into the
    fresh slot (no copy for K = 1), q is zero-extended, and the curves
    d<K> and d<n+1> parallel to the two new holes come last.  Every
    derived automorphism is built trusted, on first read, not re-checked:
    a conjugate or zero-extension of an automorphism is one, and so are
    the conjugations and inner maps (see ``FreeAutomorphism.conjugation``),
    whose words are reduced and in range by construction.  So are the new
    boundary words: the new ``SurfaceSpec`` re-checks only the exponent
    sum of t (``SurfaceSpec._with_hole``).

    The new catalog is a read-only ``CarriedCatalog``: only the curves
    parallel to K and to 1 and the two new boundary curves are built
    here; every other curve is carried through the stabilisations since
    its last build when it is first read.  ``dict(result.catalog)`` gives
    a mutable copy.  The curves of a plain input catalog must have the
    page's rank.
    """
    g, n, m = surface.genus, surface.boundary, surface.rank
    if not 1 <= K <= n:
        raise ValueError(f"invalid boundary index {K} for {surface.name}")
    # the rule takes the builtin one-holed torus at K = 1 to the builtin
    # two-holed page; hand back its full nine-curve catalog
    if K == 1 and (surface, catalog) == _sigma11():
        return StabResult(*load_builtin("sigma12"), {"d": "g"}, "d1", 2)
    new_n, t = n + 1, m + 1
    b1 = surface.boundary_words[0]
    if K == 1:
        zk = None
        far_word, far_side = b1, range(1, t)
        new_b1 = concat(b1, (-t,))
        k_index, stab_index = new_n, 1
    else:
        zk = 2 * g + K - 1  # the generator z_K
        far_word = far_side = (zk, t)
        new_b1 = _split_zk([b1], zk, t)[0]
        k_index, stab_index = K, new_n
    new_surface = surface._with_hole(new_b1)
    catalog = CarriedCatalog.of(catalog, m)

    def extend(v: Vector) -> Vector:
        return (*v, 0 if zk is None else v[zk - 1])

    def rebuilt(name: str, new_name: str, bpt: int | None, aut: FreeAutomorphism) -> CurveConfig:
        """An old curve on the new page, with its twist replaced."""
        cfg = catalog[name]
        return CurveConfig._trusted(
            new_name, extend(cfg.h), cfg.q + (0,), extend(cfg.p), bpt,
            None if cfg.aut is None else aut,
        )

    rename_target = "g" if new_n == 2 else f"g{new_n}"
    renames = dict.fromkeys(catalog.parallel_to(K), rename_target)
    rebuilt_curves = [
        rebuilt(name, rename_target, None, FreeAutomorphism._conjugation(t, far_word, far_side))
        for name in renames
    ]
    if K > 1:
        rebuilt_curves += [
            rebuilt(name, name, 1, FreeAutomorphism._conjugation(t, new_b1, range(1, t + 1)))
            for name in catalog.parallel_to(1)
        ]
    ident = FreeAutomorphism.identity(t)
    added = [_boundary_curve(new_surface, i, ident) for i in (K, new_n)]
    return StabResult(
        surface=new_surface,
        catalog=catalog.stabilised(zk, renames, rebuilt_curves, added),
        renames=renames,
        stab_curve=f"d{stab_index}",
        k_index=k_index,
    )


def boundary_parallel_curve(
    catalog: Mapping[str, CurveConfig], position: int
) -> str:
    """The unique catalog curve parallel to boundary component
    ``position``; raises if there is none or more than one.  A
    ``CarriedCatalog`` answers from its records, building no curve."""
    if isinstance(catalog, CarriedCatalog):
        names = catalog.parallel_to(position)
    else:
        names = _parallel_to(catalog, position)
    if len(names) != 1:
        raise ValueError(
            f"need exactly one boundary-parallel curve for component {position}"
        )
    return names[0]


def catalog_to_json(surface: SurfaceSpec, catalog: Mapping[str, CurveConfig]) -> str:
    """Serialize a surface and catalog to the documented JSON schema."""
    curves = []
    for cfg in catalog.values():
        entry: dict = {
            "name": cfg.name,
            "h": list(cfg.h),
            "q": list(cfg.q),
            "p": list(cfg.p),
        }
        if cfg.boundary_parallel_to is not None:
            entry["boundary_parallel_to"] = cfg.boundary_parallel_to
        if cfg.aut is not None:
            entry["aut"] = {
                "images": [list(w) for w in cfg.aut.images],
                "inverse_images": [list(w) for w in cfg.aut.inverse_images],
            }
        curves.append(entry)
    obj = {
        "genus": surface.genus,
        "boundary": surface.boundary,
        "boundary_words": [list(w) for w in surface.boundary_words],
        "curves": curves,
    }
    import json

    return json.dumps(obj, indent=2)


# Letters a JSON curve's images and inverse images may hold together.
# Checking that the two maps invert each other costs about the product of
# their lengths, 1-2.5e-8 s per letter squared on a shared 2-vCPU host:
# at most about 0.6 s at this limit, against 10-18 s at 33k letters.  A
# builtin curve holds at most 62 letters.
MAX_AUT_LETTERS = 5000


def _ints(value, message: str, depth: int = 1):
    """A JSON list of integers (of such lists, for depth 2) as tuples.
    Only JSON integers count: ``int(x)`` would also take 1.9, true and "0"."""
    if not isinstance(value, list):
        raise ValueError(message)
    if depth > 1:
        return tuple(_ints(v, message, depth - 1) for v in value)
    if any(type(x) is not int for x in value):
        raise ValueError(message)
    return tuple(value)


def catalog_from_json(text: str) -> tuple[SurfaceSpec, Catalog]:
    """Parse the JSON schema back into a surface and catalog.

    ``boundary_words`` may be omitted, in which case the canonical
    words of the signature are used.  Every number must be a JSON
    integer, and a curve's images and inverse images may hold at most
    ``MAX_AUT_LETTERS`` letters together, checked before the two maps
    are checked against each other.
    """
    import json

    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise ValueError(
            f"parse error at line {e.lineno}, column {e.colno}: {e.msg}"
        ) from None
    if not isinstance(obj, dict) or any(
        type(obj.get(k)) is not int for k in ("genus", "boundary")
    ):
        raise ValueError("config needs integer genus and boundary")
    genus, boundary = obj["genus"], obj["boundary"]
    surface = SurfaceSpec.standard(genus, boundary)
    if "boundary_words" in obj:
        words = _ints(obj["boundary_words"], "boundary_words must be lists of integers", 2)
        surface = SurfaceSpec(genus, boundary, words)
    catalog: Catalog = {}
    entries = obj.get("curves", [])
    if not isinstance(entries, list):
        raise ValueError("curves must be a list of curve entries")
    for entry in entries:
        try:
            name = entry["name"]
            vectors = [entry[k] for k in ("h", "q", "p")]
        except (KeyError, TypeError) as e:
            raise ValueError(f"malformed curve entry: {e}") from None
        if not isinstance(name, str):
            raise ValueError(f"curve name must be a string, got {name!r}")
        h, q, p = (
            _ints(v, f"curve {name!r}: {k} must be a list of integers")
            for k, v in zip("hqp", vectors)
        )
        aut = None
        if "aut" in entry:
            spec = entry["aut"]
            try:
                images, inverse_images = (
                    _ints(spec[k], f"{k} must be lists of integers", 2)
                    for k in ("images", "inverse_images")
                )
                letters = sum(map(len, images + inverse_images))
                if letters > MAX_AUT_LETTERS:
                    raise ValueError(
                        f"images and inverse_images hold {letters} letters; "
                        f"the limit is {MAX_AUT_LETTERS}"
                    )
                aut = FreeAutomorphism(surface.rank, images, inverse_images)
            except (KeyError, TypeError, ValueError) as e:
                raise ValueError(f"curve {name!r}: bad automorphism: {e}") from None
        if name in catalog:
            raise ValueError(f"duplicate curve name {name!r}")
        bpt = entry.get("boundary_parallel_to")
        if bpt is not None and type(bpt) is not int:
            raise ValueError(f"curve {name!r}: boundary_parallel_to must be an integer")
        catalog[name] = CurveConfig(name, h, q, p, bpt, aut)
    return surface, catalog
