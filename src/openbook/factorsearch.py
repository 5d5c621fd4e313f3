"""Bounded exhaustive search for positive factorisations.

Words are searched in iterative-deepening order: all lengths from 0 up
to the bound, and within one length in alphabet order, so the first hit
is the lexicographically least shortest factorisation.  Every word
found is checked once with ``verify_factorisation`` before it is
returned.

One routine, ``expand(stop, length, leaf, bounded)``, walks the
canonical words of ``stop`` letters depth-first in alphabet order,
carrying the path, its class key and the mandatory deficit, and returns
the first non-None ``leaf(path, key)``.  Memo and canonical order apply
whenever the search prunes; with ``bounded`` it also cuts branches that
cannot reach the target within ``length`` letters.  The two search
modes differ only in their leaves:

* depth-first - one bounded walk of all L letters, whose leaf returns
  the path when its key is the target's;
* meet in the middle - used from length 2 on once len(alphabet) **
  max_length exceeds ``MITM_THRESHOLD``: an unbounded walk of L // 2
  letters stores each suffix in a table, then a bounded walk of the
  other letters returns the first prefix whose key the table holds,
  joined to its suffix.

Class keys.  A mapping class is the pair (automorphism phi of pi_1, D);
the search keys it by (rho o phi, D), where rho is Sanov's faithful
representation x_k -> A^k B A^-k of the free group in SL(2, Z)
(``freegroup.sanov_basis``), kept as the tuple of matrices
rho(phi(x_k)).  rho is injective, so two keys are equal exactly when
the classes are, and every memo hit, table hit and tie-break is the one
exact class equality would give.  Appending a twist c to a word is right
composition, phi o tau_c (``surface.right_compose``), so the new key
reads the images of tau_c through the old matrices, and
D <- D R_c + D_c: both fold in constant data of c, and no free-group
word is built.

Meet in the middle.  A prefix P completes a suffix S when P o S = T,
that is P = T o S^-1.  The suffix table is filled in the depth-first
order of the suffixes, keyed by T o S^-1 - the target's key with the
inverse twists of S folded in from the right, last letter first - and
keeps the first suffix per key, the least of its class in alphabet
order.  A prefix looks up its own key, so it meets at most one suffix
class and gets that class's least suffix.  Prefixes come in alphabet
order, and memo skips only a repeat of an earlier prefix's (class,
depth, last letter), whose leaves have the same keys and so found no
match either.  The first prefix that matches therefore gives the least
match, the word the depth-first walk would have found first.

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
  If some abelianized vector is fixed by every alphabet transvection
  but moved by the target, no length works and the search exits at
  once.  The transvections fix the common kernel of their q, and
  M_target - I = D_target J kills it exactly when its rows lie in the
  span of the q, so the test is one rank comparison:
  rank(q's + rows of D_target J) > rank(q's).
* memoization - failed subtrees are keyed by (class, depth, last
  letter); within one walk the depth fixes the remaining budget.  Class
  equality transports completions: a solution through a repeat of the
  key would complete the first visit too, so a recorded failure cannot
  hide one.  The last letter is part of the key because of the next
  rule.
* canonical order - if two adjacent letters commute
  (``surface.pair_relation``, which compares the class keys of their two
  orders; the key is faithful, so this is exact on any page), only the
  ordering that respects alphabet order is explored.  Every word is
  rewritable to this canonical form by class-preserving swaps, and the
  lexicographically least solution is already canonical, so neither
  exhaustiveness nor the tie-break is affected.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from .freegroup import sanov_substitute
from .homology import matrix_rank, twist_data
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
    identity_key,
    pair_relation,
    right_compose,
    twist_step,
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
    """Per-letter data, precomputed once: the catalog entry, the steps of
    the twist and of its inverse for ``surface.right_compose``, and the
    genus coordinates of q for the infeasibility check."""

    __slots__ = ("name", "cfg", "q", "step", "inverse_step")

    def __init__(self, name: str, cfg: CurveConfig, genus: int) -> None:
        # raises unless p.Jh = 0, which makes the relative transvection of
        # the inverse twist I - Jh p^T
        twist_data(cfg.h, cfg.p, genus)
        self.name = name
        self.cfg = cfg
        self.q = cfg.q[:2 * genus]
        self.step = twist_step(cfg, genus)
        self.inverse_step = twist_step(cfg, genus, -1)


def _moves_common_fixed(qs, target_genus_cols) -> bool:
    """True when the target moves an abelianized vector that every
    alphabet transvection fixes: the rows of D_target J leave the span
    of the q.  Both vanish off the first 2g coordinates, which is all
    the caller passes."""
    return matrix_rank(qs + target_genus_cols) > matrix_rank(qs)


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
    genus = surface.genus
    curves = [_Curve(n, problem.catalog[n], genus) for n in problem.alphabet]
    start_key = identity_key(surface.rank)
    # (j, i) for i < j when the twists of the two letters commute
    commute = {
        (j, i) for j, cj in enumerate(curves) for i in range(j)
        if prune and pair_relation(genus, cj.cfg, curves[i].cfg) == "commute"
    }
    target = problem.target
    target_key = (sanov_substitute(start_key[0], target.exact.images), target.D)
    target_genus_cols = tuple(row[:2 * genus] for row in target.D)
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
    # n >= 2 letters give n**L > MITM_THRESHOLD once L reaches the
    # threshold's bit length, so capping the exponent there keeps the
    # decision without forming a huge power
    cap = min(problem.max_length, MITM_THRESHOLD.bit_length())
    if prune and curves and len(curves) ** cap > MITM_THRESHOLD:
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
        prune
        and curves
        and _moves_common_fixed(tuple(c.q for c in curves), target_genus_cols)
    ):
        prune_counts["infeasible"] = 1
        return certificate()

    deficit0 = sum(required.values())

    def expand(stop, length, leaf, bounded):
        """Walk the canonical words of ``stop`` letters depth-first in
        alphabet order and return the first non-None ``leaf(path, key)``.
        With ``bounded``, cut branches that cannot be completed to a
        target word of ``length`` letters."""
        memo: set = set()
        counts = dict.fromkeys(required, 0)

        def visit(path, key, deficit, last):
            nonlocal nodes
            nodes += 1
            depth = len(path)
            if depth == stop:
                return leaf(path, key)
            if prune:
                if bounded:
                    remaining = length - depth
                    if deficit > remaining:
                        prune_counts["mandatory"] += 1
                        return None
                    if not _rank_bound_ok(key[1], target_genus_cols, remaining):
                        prune_counts["homology"] += 1
                        return None
                memo_key = (key, depth, last)
                if memo_key in memo:
                    prune_counts["memo"] += 1
                    return None
            for i, c in enumerate(curves):
                if (last, i) in commute:
                    prune_counts["canonical"] += 1
                    continue
                new_deficit = deficit
                if i in counts:
                    counts[i] += 1
                    if counts[i] <= required[i]:
                        new_deficit -= 1
                hit = visit(path + (c,), right_compose(key, c.step), new_deficit, i)
                if i in counts:
                    counts[i] -= 1
                if hit is not None:
                    return hit
            if prune:
                memo.add(memo_key)
            return None

        return visit((), start_key, deficit0, -1)

    def meet_in_middle(length: int):
        # canonical suffixes S, keyed by T o S^-1; the first stored per key
        # is the least suffix of its class
        table: dict = {}
        # T o S'^-1 for the proper tails S' of suffixes: suffixes that end
        # alike share the folds of their common tail
        tail_keys: dict = {(): target_key}

        def needed(path):
            """T o S^-1: fold S's inverse twists, last letter first."""
            tail = path[1:]
            key = tail_keys.get(tail)
            if key is None:
                key = tail_keys[tail] = needed(tail)
            return right_compose(key, path[0].inverse_step)

        def store(path, key):
            table.setdefault(needed(path), path)

        def complete(path, key):
            suffix = table.get(key)
            return None if suffix is None else path + suffix

        expand(length // 2, length, store, False)
        return expand(length - length // 2, length, complete, True)

    def at_target(path, key):
        return path if key == target_key else None

    for length in range(problem.max_length + 1):
        if mode == "mitm" and length >= 2:
            path = meet_in_middle(length)
        else:
            path = expand(length, length, at_target, True)
        if path is not None:
            hit = TwistWord(surface, problem.catalog, tuple((c.name, 1) for c in path))
            if not verify_factorisation(hit, target):
                raise RuntimeError(f"search found {hit}, which is not the target class")
            return SearchOutcome(hit, None)
    return certificate()
