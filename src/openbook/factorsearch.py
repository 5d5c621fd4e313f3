"""Bounded exhaustive search for positive factorisations.

Words are searched in iterative-deepening order: all lengths from 0 up
to the bound, and within one length depth-first in alphabet order, so
the first hit is the lexicographically least shortest factorisation.
Once the tree for a length would exceed a size threshold the search
switches to a meet-in-the-middle strategy - enumerate canonical
suffixes into a table, then scan canonical prefixes for the one that
completes them - which visits the same solution set and selects the
same word.  Every word found is checked once with
``verify_factorisation`` before it is returned.

Class keys.  A mapping class is the pair (automorphism phi of pi_1, D);
the search keys it by (rho o phi, D), where rho is Sanov's faithful
representation x_k -> A^k B A^-k of the free group in SL(2, Z)
(``freegroup.sanov_basis``), kept as the tuple of matrices
rho(phi(x_k)).  rho is injective, so two keys are equal exactly when
the classes are, and every memo hit, table hit and tie-break is the one
exact class equality would give.  Appending a twist c to a word is right
composition, phi o tau_c, so the new key reads the images of tau_c
through the old matrices, and D <- D R_c + D_c: both fold in constant
data of c, and no free-group word is built.

Meet in the middle.  A prefix P completes a suffix S when P o S = T,
that is P = T o S^-1.  The suffix table is filled in the depth-first
order of the suffixes, keyed by T o S^-1 - the target's key with the
inverse twists of S folded in from the right, last letter first - and
keeps the first suffix per key, the least in alphabet order.  A prefix
looks up its own key.  T o S^-1 determines the class of S, so the table
holds the same suffixes, and a prefix meets the same ones, as a table
keyed by the class of S.  The match returned is the least in alphabet
order, the word the depth-first walk would have found first.

Pruning never changes the outcome:

* mandatory counts - a positive word equal to the target contains at
  least max(b_i, 0) twists parallel to boundary i, where b_i is the
  boundary-exponent delta of the target against component 1; branches
  whose remaining budget cannot cover the deficit are cut.  No actual
  solution path ever trips this, so cuts only remove dead wood.
* homology - a product of k positive transvections I + h q^T differs
  from the identity by a matrix of rank at most k, so a branch dies
  when rank(M_prefix^-1 M_target - I) exceeds the remaining length.
  M = I + D J and M_prefix is invertible, so that rank is the rank of
  (D_target - D_prefix) J, the first 2g columns of the difference of
  the D already in the two keys.
  If some abelianized direction is fixed by every alphabet curve but
  moved by the target, no length works and the search exits at once.
* memoization - failed subtrees are keyed by (class, remaining budget,
  last letter).  Class equality transports completions: a solution
  through a repeat of the key would complete the first visit too, so
  a recorded failure cannot hide one.  The last letter is part of the
  key because of the next rule.
* canonical order - if two adjacent letters commute (per the surface's
  verified relation tables), only the ordering that respects alphabet
  order is explored.  Every word is rewritable to this canonical form
  by class-preserving swaps, and the lexicographically least solution
  is already canonical, so neither exhaustiveness nor the tie-break is
  affected.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

from .freegroup import sanov_basis, sanov_substitute
from .homology import append_twist, matrix_rank, twist_data, zero_matrix
from .mcg import (
    MappingClass,
    TwistWord,
    boundary_exponent_delta,
    equal_classes,
    evaluate,
)
from .surface import (
    CurveConfig,
    SurfaceSpec,
    boundary_parallel_curve,
    has_relation_tables,
    relation_tables,
)

# above this many words in a single level, meet-in-the-middle replaces
# the depth-first walk
MITM_THRESHOLD = 200_000

_PRUNE_NAMES = ("mandatory", "homology", "memo", "canonical", "infeasible")


@dataclass(frozen=True)
class SearchProblem:
    """A target class, a positive alphabet, and a length bound."""

    surface: SurfaceSpec
    catalog: Mapping[str, CurveConfig]
    target: MappingClass
    alphabet: tuple[str, ...]
    max_length: int
    mandatory: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.max_length < 0:
            raise ValueError("max_length must be nonnegative")
        if self.target.linear_only:
            raise ValueError("search target needs an exact automorphism")
        if self.target.surface != self.surface:
            raise ValueError("target lives on a different surface")
        if len(set(self.alphabet)) != len(self.alphabet):
            raise ValueError("alphabet curves must be distinct")
        for name in self.alphabet:
            cfg = self.catalog.get(name)
            if cfg is None:
                raise ValueError(f"alphabet curve {name!r} is not in the catalog")
            if cfg.aut is None:
                raise ValueError(
                    f"alphabet curve {name!r} has no exact automorphism"
                )
        for name, count in self.mandatory.items():
            if name not in self.catalog or count < 0:
                raise ValueError(f"bad mandatory count {name!r}: {count}")


@dataclass(frozen=True)
class Certificate:
    """Reproducible record of an exhausted search."""

    alphabet: tuple[str, ...]
    max_length: int
    nodes: int
    prunes: tuple[tuple[str, int], ...]
    mode: str

    def lines(self) -> tuple[str, ...]:
        out = [
            f"exhausted: no positive factorisation up to length {self.max_length}",
            "alphabet: " + " ".join(self.alphabet),
            f"nodes: {self.nodes}",
        ]
        out.extend(f"pruned {name}: {count}" for name, count in self.prunes)
        out.append(f"mode: {self.mode}")
        return tuple(out)

    def __str__(self) -> str:
        return "\n".join(self.lines())


@dataclass(frozen=True)
class SearchOutcome:
    """Exactly one of ``word`` (a verified positive factorisation) and
    ``certificate`` (exhaustion evidence) is set."""

    word: TwistWord | None
    certificate: Certificate | None

    @property
    def found(self) -> bool:
        return self.word is not None


def peel_boundary(word: TwistWord) -> tuple[TwistWord, dict[str, int]]:
    """Split off the boundary twists any positive factorisation of the
    word's class must contain.

    For each boundary component i >= 2 the delta b_i of the class
    against component 1 forces at least max(b_i, 0) twists parallel to
    boundary i and at least max(-b_i, 0) parallel to boundary 1.
    Boundary twists are central, so appending their inverses yields a
    well-defined residual target.
    """
    surface = word.surface
    mandatory: dict[str, int] = {}
    entries = word.entries
    worst = 0
    for i in range(2, surface.boundary + 1):
        name = boundary_parallel_curve(word.catalog, i)
        b = boundary_exponent_delta(word, i, 1)
        worst = max(worst, -b)
        if b > 0:
            mandatory[name] = b
            entries = entries + ((name, -b),)
    if worst > 0:
        name = boundary_parallel_curve(word.catalog, 1)
        mandatory[name] = worst
        entries = entries + ((name, -worst),)
    return TwistWord(surface, word.catalog, entries), mandatory


def verify_factorisation(word: TwistWord, target: MappingClass) -> bool:
    """True iff the word is positive and evaluates to the target."""
    return word.is_positive() and equal_classes(evaluate(word), target)


class _Curve:
    """Per-letter data, precomputed once: the steps of the twist and of
    its inverse for ``_right_compose``, and q for the infeasibility
    check."""

    __slots__ = ("name", "q", "step", "inverse_step")

    def __init__(self, name: str, cfg: CurveConfig, genus: int) -> None:
        # raises unless p.Jh = 0, which makes the relative transvection of
        # the inverse twist I - Jh p^T
        twist_data(cfg.h, cfg.p, genus)
        jh = tuple(x if i < 2 * genus else 0 for i, x in enumerate(cfg.h))
        self.name = name
        self.q = cfg.q
        self.step = (cfg.aut.images, jh, cfg.h, cfg.p)
        self.inverse_step = (
            cfg.aut.inverse_images, jh, cfg.h, tuple(-x for x in cfg.p)
        )


def _right_compose(key, step):
    """Class key (rho o phi o psi, D) from the key of phi and the step
    (generator images, Jh, h, +-p) of a twist psi = tau_c^+-1.

    D folds by the rank-one update D + (D Jh + h)(+-p)^T.
    """
    rho, d = key
    images, jh, h, p = step
    return sanov_substitute(rho, images), append_twist(d, jh, h, p)


def _q_nullspace(qs: list[tuple[int, ...]], rank: int) -> list[list[Fraction]]:
    """Basis of { v : q.v = 0 for all q }, by rational elimination."""
    m = [[Fraction(q[j]) for j in range(rank)] for q in qs]
    pivots: list[int] = []
    r = 0
    for col in range(rank):
        pivot = next((i for i in range(r, len(m)) if m[i][col]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        m[r] = [v / m[r][col] for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col]:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(col)
        r += 1
    basis = []
    for j in (j for j in range(rank) if j not in pivots):
        v = [Fraction(0)] * rank
        v[j] = Fraction(1)
        for row, col in enumerate(pivots):
            v[col] = -m[row][j]
        basis.append(v)
    return basis


def _common_fixed_violated(problem: SearchProblem, curves: list[_Curve]) -> bool:
    """True when the target moves an abelianized vector that every
    alphabet transvection fixes, making every length infeasible."""
    rank = problem.surface.rank
    qs = [c.q for c in curves]
    target_m = problem.target.M
    for v in _q_nullspace(qs, rank):
        moved = any(
            sum(target_m[i][k] * v[k] for k in range(rank)) != v[i]
            for i in range(rank)
        )
        if moved:
            return True
    return False


def _rank_bound_ok(d_prefix, target_genus_cols, remaining: int) -> bool:
    """rank((D_target - D_prefix) J) <= remaining, from the first 2g
    columns of each D."""
    delta = tuple(
        tuple(t - x for t, x in zip(t_row, row))
        for t_row, row in zip(target_genus_cols, d_prefix)
    )
    return matrix_rank(delta) <= remaining


def search_positive(problem: SearchProblem, prune: bool = True) -> SearchOutcome:
    """Iterative-deepening exhaustive search; see the module docstring
    for the strategy and the soundness of each prune."""
    surface = problem.surface
    rank = surface.rank
    curves = [_Curve(n, problem.catalog[n], surface.genus) for n in problem.alphabet]
    commute_idx: dict[tuple[int, int], bool] = {}
    if prune and has_relation_tables(surface.name):
        tables = relation_tables(surface.name)
        for i, ci in enumerate(curves):
            for j, cj in enumerate(curves):
                commute_idx[(i, j)] = ci.name != cj.name and tables.commutes(
                    ci.name, cj.name
                )
    target = problem.target
    target_key = (sanov_substitute(sanov_basis(rank), target.exact.images), target.D)
    target_genus_cols = tuple(row[:2 * surface.genus] for row in target.D)
    index_of = {c.name: i for i, c in enumerate(curves)}
    required = {
        index_of[name]: count
        for name, count in sorted(problem.mandatory.items())
        if count > 0 and name in index_of
    }
    unreachable_mandatory = any(
        count > 0 and name not in index_of
        for name, count in problem.mandatory.items()
    )
    prune_counts = dict.fromkeys(_PRUNE_NAMES, 0)
    nodes = 0
    mode = "iddfs"
    if prune and curves and len(curves) ** problem.max_length > MITM_THRESHOLD:
        mode = "mitm"

    def certificate() -> SearchOutcome:
        return SearchOutcome(
            None,
            Certificate(
                problem.alphabet,
                problem.max_length,
                nodes,
                tuple((n, prune_counts[n]) for n in _PRUNE_NAMES),
                mode,
            ),
        )

    if unreachable_mandatory or (
        prune and curves and _common_fixed_violated(problem, curves)
    ):
        prune_counts["infeasible"] = 1
        return certificate()

    identity_key = (sanov_basis(rank), zero_matrix(rank))
    deficit0 = sum(required.values())

    def make_word(names: tuple[str, ...]) -> TwistWord:
        return TwistWord(surface, problem.catalog, tuple((n, 1) for n in names))

    # -- depth-first walk at one exact length ---------------------------
    def dfs(length: int) -> TwistWord | None:
        nonlocal nodes
        memo: set = set()
        counts = dict.fromkeys(required, 0)

        def walk(depth, key, deficit, last):
            nonlocal nodes
            nodes += 1
            remaining = length - depth
            if remaining == 0:
                return () if key == target_key else None
            if prune:
                if deficit > remaining:
                    prune_counts["mandatory"] += 1
                    return None
                if not _rank_bound_ok(key[1], target_genus_cols, remaining):
                    prune_counts["homology"] += 1
                    return None
                memo_key = (key, remaining, last)
                if memo_key in memo:
                    prune_counts["memo"] += 1
                    return None
            for i, c in enumerate(curves):
                if prune and last >= 0 and i < last and commute_idx.get((last, i)):
                    prune_counts["canonical"] += 1
                    continue
                new_deficit = deficit
                if i in counts:
                    counts[i] += 1
                    if counts[i] <= required[i]:
                        new_deficit -= 1
                hit = walk(depth + 1, _right_compose(key, c.step), new_deficit, i)
                if i in counts:
                    counts[i] -= 1
                if hit is not None:
                    return (c.name,) + hit
            if prune:
                memo.add(memo_key)
            return None

        hit = walk(0, identity_key, deficit0, -1)
        return make_word(hit) if hit is not None else None

    # -- meet-in-the-middle at one exact length -------------------------
    def mitm(length: int) -> TwistWord | None:
        nonlocal nodes
        half = (length + 1) // 2
        suffix_len = length - half

        # canonical suffixes S of exact length, keyed by T o S^-1;
        # depth-first order makes the stored representative the
        # lexicographically least word of its class
        table: dict = {}
        seen: set = set()
        # T o S'^-1 for the proper tails S' of suffixes: suffixes that end
        # alike share the folds of their common tail
        tail_keys: dict = {(): target_key}

        def needed(path):
            """T o S^-1: fold S's inverse twists, last letter first."""
            tail = path[1:]
            key = tail_keys.get(tail)
            if key is None:
                key = tail_keys[tail] = needed(tail)
            return _right_compose(key, path[0].inverse_step)

        def enum_suffix(depth, path, key, last):
            nonlocal nodes
            nodes += 1
            if depth == suffix_len:
                table.setdefault(needed(path), path)
                return
            memo_key = (key, suffix_len - depth, last)
            if memo_key in seen:
                prune_counts["memo"] += 1
                return
            seen.add(memo_key)
            for i, c in enumerate(curves):
                if last >= 0 and i < last and commute_idx.get((last, i)):
                    prune_counts["canonical"] += 1
                    continue
                enum_suffix(
                    depth + 1,
                    path + (c,),
                    _right_compose(key, c.step),
                    i,
                )

        enum_suffix(0, (), identity_key, -1)

        matches: list[tuple[_Curve, ...]] = []
        counts = dict.fromkeys(required, 0)
        prefix_memo: set = set()

        def enum_prefix(depth, path, key, deficit, last):
            nonlocal nodes
            nodes += 1
            if depth == half:
                got = table.get(key)
                if got is not None:
                    matches.append(path + got)
                return
            remaining = length - depth
            if deficit > remaining:
                prune_counts["mandatory"] += 1
                return
            if not _rank_bound_ok(key[1], target_genus_cols, remaining):
                prune_counts["homology"] += 1
                return
            memo_key = (key, depth, last)
            if memo_key in prefix_memo:
                prune_counts["memo"] += 1
                return
            for i, c in enumerate(curves):
                if last >= 0 and i < last and commute_idx.get((last, i)):
                    prune_counts["canonical"] += 1
                    continue
                new_deficit = deficit
                if i in counts:
                    counts[i] += 1
                    if counts[i] <= required[i]:
                        new_deficit -= 1
                enum_prefix(
                    depth + 1, path + (c,), _right_compose(key, c.step), new_deficit, i
                )
                if i in counts:
                    counts[i] -= 1
            prefix_memo.add(memo_key)

        enum_prefix(0, (), identity_key, deficit0, -1)
        if matches:
            best = min(matches, key=lambda w: [index_of[c.name] for c in w])
            return make_word(tuple(c.name for c in best))
        return None

    for length in range(problem.max_length + 1):
        if mode == "mitm" and length >= 2:
            hit = mitm(length)
        else:
            hit = dfs(length)
        if hit is not None:
            if not verify_factorisation(hit, target):
                raise RuntimeError(f"search found {hit}, which is not the target class")
            return SearchOutcome(hit, None)
    return certificate()
