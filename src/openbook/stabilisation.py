"""Stabilisation: a 1-handle added across a boundary component of a page.

``stabilize`` is one rule for every boundary index: each curve's twist
is carried to the new page by the basis change, zero-extended, or
replaced by a conjugation.  These are built trusted, on first read:
each is an automorphism whenever the input twist is, and a carried
twist keeps only its first page's automorphism and the steps (t, z_K)
since; automorphisms are checked where they enter (the public
constructor, JSON).  Whole curves are carried the same way: a
stabilised page's catalog is a read-only ``CarriedCatalog``, in which a
stabilisation writes only the curves it changes and every other curve
is carried through the steps since its last build when it is first
read; ``dict(catalog)`` gives a mutable copy.  Only ``surgery`` needs
this module, so the other commands do not load it.

Pages remember their stabilisations: ``stabilize`` keeps its results in
one least-recently-used memo of at most ``MEMO_PAGES`` pages, so
repeated surgeries on one book share their stabilised pages, and each
page builds a carried curve once for all of them.  A carried catalog is
keyed by identity (the entry holds it, so its id is not reused), a plain
one by value: the surface, K and its (name, curve) items in order, so a
dict changed after a call gives the changed page's result.  A result is
read-only, as every caller on its page shares it.  The sigma11 ->
sigma12 shortcut is not kept: each call gets a fresh builtin catalog.
An entry keeps its page's surface and records and the curves built on
it, and the deepest page of a chain also keeps every curve created
along it: after ``tools/surgery_depth.py``, whose deepest surgery
stabilises 479 times, the memo held 8.7 MiB (CPython 3.11).
"""

from __future__ import annotations

from functools import lru_cache
from types import MappingProxyType
from typing import Mapping, Sequence

from . import surface as _surface
from ._value import Value
from .freegroup import FreeAutomorphism, Letters, concat
from .surface import (
    CurveConfig,
    SurfaceSpec,
    Vector,
    _boundary_curve,
    _sigma11,
    boundary_indices,
    load_builtin,
)

# Pages the memo of ``stabilize`` keeps, the least recently used leaving
# first (see the module docstring): on the trefoil book, every page of a
# surgery up to r = -66, so a deeper chain goes through it unserved
MEMO_PAGES = 64


class StabResult(Value):
    """Everything produced by one stabilisation.

    ``renames`` maps old curve names to new ones (curves whose
    boundary-parallel status the new handle destroyed); ``stab_curve``
    names the boundary-parallel curve whose positive twist the
    stabilisation appends; the stabilised binding now sits at boundary
    index ``k_index``, parallel to d<k_index>.  ``catalog`` is a
    read-only ``CarriedCatalog`` and ``renames`` a read-only mapping,
    as ``stabilize`` hands one result to every caller on its page.
    """

    surface: SurfaceSpec
    catalog: Mapping[str, CurveConfig]
    renames: Mapping[str, str]
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


def _carry(cfg: CurveConfig, steps) -> CurveConfig:
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
    return CurveConfig._trusted(tuple(h), cfg.q + (0,) * len(steps), tuple(p), bpt, aut)


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
    page, as are the names parallel to each boundary component asked
    for (``parallel_to``).  ``dict(catalog)`` gives a mutable copy.
    """

    __slots__ = ("_records", "_rank", "_steps", "_parallel")

    def __init__(self, records, rank, steps=()) -> None:
        self._records, self._rank, self._steps = records, rank, steps
        self._parallel: dict[int, tuple[str, ...]] = {}

    @classmethod
    def of(cls, items, rank: int) -> "CarriedCatalog":
        """A plain catalog's (name, curve) ``items``, whose curves must
        have rank ``rank``, with no steps yet."""
        for name, cfg in items:
            if cfg.rank != rank:
                raise ValueError(f"curve {name}: vectors have length {cfg.rank}, want {rank}")
        return cls(dict(items), rank)

    def stabilised(self, zk, renames, rebuilt, added) -> "CarriedCatalog":
        """The catalog one stabilisation (z_K or None) on: names renamed
        in place by ``renames``, the (name, curve) pairs ``rebuilt``
        replacing their records and ``added`` appended, all on the new
        page.  Raises on a name collision."""
        names = list(self._records)
        for old, new in renames.items():
            names[names.index(old)] = new
        records = dict(zip(names, self._records.values()))
        if len(records) < len(names):
            raise _collision(next(iter(renames.values())))
        records.update(rebuilt)
        for name, cfg in added:
            if name in records:
                raise _collision(name)
            records[name] = cfg
        return CarriedCatalog(records, self._rank, self._steps + (zk,))

    def parallel_to(self, position: int) -> tuple[str, ...]:
        """The names of the curves parallel to boundary ``position``, in
        catalog order.  A record keeps its boundary index when carried,
        so each position's scan of the records is made once per page."""
        names = self._parallel.get(position)
        if names is None:
            names = self._parallel[position] = tuple(
                name for name, cfg in self._records.items()
                if cfg.boundary_parallel_to == position
            )
        return names

    def __getitem__(self, name: str) -> CurveConfig:
        cfg = self._records[name]
        todo = self._steps[cfg.rank - self._rank:]
        if todo:
            cfg = self._records[name] = _carry(cfg, todo)
        return cfg

    def __contains__(self, name) -> bool:
        return name in self._records

    def __iter__(self):
        return iter(self._records)

    def __len__(self) -> int:
        return len(self._records)


# boundary_indices reads a carried catalog's records by this exact type
_surface._carried_catalog = CarriedCatalog


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
    page's rank.  A page stabilised before at K is served from the memo
    (see the module docstring), the same result to every caller.
    """
    if not 1 <= K <= surface.boundary:
        raise ValueError(f"invalid boundary index {K} for {surface.name}")
    # the rule takes the builtin one-holed torus at K = 1 to the builtin
    # two-holed page; hand back its full nine-curve catalog, a fresh copy
    if K == 1 and (surface, catalog) == _sigma11():
        return StabResult(*load_builtin("sigma12"), MappingProxyType({"d": "g"}), "d1", 2)
    key = _Same(catalog) if type(catalog) is CarriedCatalog else tuple(catalog.items())
    return _stabilised(surface, key, K)


class _Same:
    """A carried catalog as a memo key, compared by identity: the key
    holds it, so its id is not reused while the entry lives."""

    __slots__ = ("catalog",)

    def __init__(self, catalog: CarriedCatalog) -> None:
        self.catalog = catalog

    def __hash__(self) -> int:
        return id(self.catalog)

    def __eq__(self, other) -> bool:
        return type(other) is _Same and other.catalog is self.catalog


@lru_cache(maxsize=MEMO_PAGES)
def _stabilised(surface: SurfaceSpec, key, K: int) -> StabResult:
    """``stabilize`` on a page given by ``key``: a ``_Same`` or a plain
    catalog's (name, curve) items."""
    g, n, m = surface.genus, surface.boundary, surface.rank
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
    catalog = key.catalog if type(key) is _Same else CarriedCatalog.of(key, m)

    def extend(v: Vector) -> Vector:
        return (*v, 0 if zk is None else v[zk - 1])

    def rebuilt(name: str, bpt: int | None, aut: FreeAutomorphism) -> CurveConfig:
        """An old curve on the new page, with its twist replaced."""
        cfg = catalog[name]
        return CurveConfig._trusted(
            extend(cfg.h), cfg.q + (0,), extend(cfg.p), bpt,
            None if cfg.aut is None else aut,
        )

    rename_target = "g" if new_n == 2 else f"g{new_n}"
    renames = dict.fromkeys(catalog.parallel_to(K), rename_target)
    rebuilt_curves = [
        (rename_target, rebuilt(name, None, FreeAutomorphism._conjugation(t, far_word, far_side)))
        for name in renames
    ] + [
        (name, rebuilt(name, 1, FreeAutomorphism._conjugation(t, new_b1, range(1, t + 1))))
        for name in (catalog.parallel_to(1) if K > 1 else ())
    ]
    # the identity as conjugation by the empty word, so that its O(t)
    # tables are built on first read, which surgery and H1 never make
    ident = FreeAutomorphism._conjugation(t, (), ())
    added = [(f"d{i}", _boundary_curve(new_surface, i, ident)) for i in (K, new_n)]
    return StabResult(
        surface=new_surface,
        catalog=catalog.stabilised(zk, renames, rebuilt_curves, added),
        renames=MappingProxyType(renames),
        stab_curve=f"d{stab_index}",
        k_index=k_index,
    )


def boundary_parallel_curve(
    catalog: Mapping[str, CurveConfig], position: int
) -> str:
    """The unique catalog curve parallel to boundary component
    ``position`` (``boundary_indices``); raises if there is none or more
    than one."""
    if type(catalog) is CarriedCatalog:
        names = catalog.parallel_to(position)
    else:
        names = [name for name, i in boundary_indices(catalog).items() if i == position]
    if len(names) != 1:
        raise ValueError(
            f"need exactly one boundary-parallel curve for component {position}"
        )
    return names[0]

