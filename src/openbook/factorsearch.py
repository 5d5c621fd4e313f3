"""Bounded exhaustive search for positive factorisations.

Words are searched in iterative-deepening order: all lengths from 0 up
to the bound, and within one length in alphabet order, so the first hit
is the lexicographically least shortest factorisation.  Every word
found is checked once with ``verify_factorisation`` before it is
returned; that check compares free-group images and D, built from the
two words for it alone, so it does not rest on the key fold below.

One routine, ``expand(stop, length, leaf, bounded)``, walks the
canonical words of ``stop`` letters depth-first in alphabet order,
carrying the path, its class key and the weight still to be placed, and
returns the first non-None ``leaf(path, key)``.  The weight cut, memo
and canonical order apply whenever the search prunes; with ``bounded``
it also cuts branches whose homology cannot reach the target within
``length`` letters.  The two search modes differ only in their leaves:

* depth-first - one bounded walk of all L letters, whose leaf returns
  the path when its key is the target's;
* meet in the middle - used from length 2 on once n ** max_length
  exceeds ``MITM_THRESHOLD``, n the number of letters walked (see
  duplicates below): an unbounded walk of L // 2
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
word is built.  The target's key is ``MappingClass.key`` of its word.

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

Duplicates.  When the search prunes, it walks each class of one twist
once: a letter whose one-letter key equals an earlier letter's is
dropped.  Swapping the earlier twin in keeps the class of a word and
makes it smaller in alphabet order, so the least word never uses the
dropped letter, and a word over the whole alphabet exists exactly when
one over the letters kept does.  The certificate still lists the given
alphabet.

Pruning never changes the outcome:

* weight - the capping weights (``surface.curve_weights``) are
  homomorphisms, nonnegative on positive twists, so a positive word
  equal to the target weighs what the target word does.  A length is
  walked only if that weight is a sum of as many letter weights (each
  skipped length counts once), and a letter is placed only if the
  weight left is a sum of as many as letters remain, the whole prefix
  included in the suffix walk.  When these sums (``_weight_levels``)
  rule out every length beyond ``max_length``, or the infeasibility
  check below fires, the certificate says no length works.  An
  undecided weight in the target or a letter walked turns the cut off.
* homology - a product of k positive transvections I + h q^T differs
  from the identity by a matrix of rank at most k, so a branch dies
  when rank(M_prefix^-1 M_target - I) exceeds the remaining length.
  M = I + D J and M_prefix is invertible, so that rank is the rank of
  (D_target - D_prefix) J, the first 2g columns of the difference of
  the D already in the two keys.  Having 2g columns, it has rank at most
  2g, so the check runs only while fewer than 2g letters remain.
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

from dataclasses import dataclass
from operator import add, le, sub

from .homology import dot, matrix_rank
from .mcg import MappingClass, TwistWord, evaluate
from .surface import (
    CurveConfig,
    curve_weights,
    identity_key,
    pair_relation,
    right_compose,
    twist_step,
)

# above this many words in a single level, meet-in-the-middle replaces
# the depth-first walk
MITM_THRESHOLD = 200_000

_PRUNE_NAMES = ("weight", "homology", "memo", "canonical", "infeasible")


@dataclass(frozen=True)
class SearchProblem:
    """A target word, a positive alphabet from its catalog, a length bound."""

    target: TwistWord
    alphabet: tuple[str, ...]
    max_length: int

    def __post_init__(self) -> None:
        if self.max_length < 0:
            raise ValueError("max_length must be nonnegative")
        catalog = self.target.catalog
        if any(catalog[name].aut is None for name, _ in self.target.entries):
            raise ValueError("search target needs an exact automorphism")
        if len(set(self.alphabet)) != len(self.alphabet):
            raise ValueError("alphabet curves must be distinct")
        for name in self.alphabet:
            cfg = catalog.get(name)
            if cfg is None:
                raise ValueError(f"alphabet curve {name!r} is not in the catalog")
            if cfg.aut is None:
                raise ValueError(f"alphabet curve {name!r} has no exact automorphism")


@dataclass(frozen=True)
class Certificate:
    """Reproducible record of an exhausted search; ``any_length`` when
    the search also rules out every longer word."""

    alphabet: tuple[str, ...]
    max_length: int
    nodes: int
    prunes: tuple[tuple[str, int], ...]
    mode: str
    any_length: bool = False

    def lines(self) -> tuple[str, ...]:
        out = [
            f"exhausted: no positive factorisation up to length {self.max_length}",
            "alphabet: " + " ".join(self.alphabet),
            f"nodes: {self.nodes}",
        ]
        out.extend(f"pruned {name}: {count}" for name, count in self.prunes)
        out.append(f"mode: {self.mode}")
        if self.any_length:
            out.append("no positive factorisation over this alphabet at any length")
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


def word_weights(word: TwistWord, weights=None) -> tuple[int, ...] | None:
    """The capping weights of the word's class, summed over its letters
    from the ``surface.curve_weights`` table of its catalog, typed here
    unless given; None when some letter's are undecided."""
    if weights is None:
        weights = curve_weights(word.surface, word.catalog)
    if weights is None or any(weights[name] is None for name, _ in word.entries):
        return None
    return tuple(
        sum(exp * weights[name][j] for name, exp in word.entries)
        for j in range(word.surface.boundary)
    )


def verify_factorisation(word: TwistWord, target: MappingClass) -> bool:
    """True iff the word is positive and evaluates to the target, judged
    on the free-group images and D of the two words."""
    found = evaluate(word)
    return word.is_positive() and (found.exact, found.D) == (target.exact, target.D)


class _Curve:
    """Per-letter data, precomputed once: the catalog entry, the steps of
    the twist and of its inverse for ``surface.right_compose``, and the
    genus coordinates of q for the infeasibility check."""

    __slots__ = ("name", "cfg", "q", "step", "inverse_step")

    def __init__(self, name: str, cfg: CurveConfig, genus: int) -> None:
        # p.Jh = 0 makes the relative transvection of the inverse twist
        # I - Jh p^T
        if dot(cfg.p, cfg.h[:2 * genus]):
            raise ValueError("p . Jh must vanish for a twist transvection")
        self.name = name
        self.cfg = cfg
        self.q = cfg.q[:2 * genus]
        self.step = twist_step(cfg, genus)
        self.inverse_step = twist_step(cfg, genus, -1)


def _weight_levels(target, letters, count: int) -> list[set]:
    """Level k < ``count``: the sums of k letter weights within ``target``.
    Each level follows from the one before, so the list ends early at an
    empty or repeated level, which then stands for every longer length;
    bounded sums reach one, as they grow with every letter or, with a
    weightless letter, each level contains the one before."""
    levels = [{(0,) * len(target)} if min(target, default=0) >= 0 else set()]
    while levels[-1] and len(levels) < count:
        sums = {tuple(map(add, v, w)) for v in levels[-1] for w in letters}
        level = {v for v in sums if all(map(le, v, target))}
        if level == levels[-1]:
            break
        levels.append(level)
    return levels


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
    word = problem.target
    surface, catalog = word.surface, word.catalog
    genus = surface.genus
    two_g = 2 * genus
    curves = [_Curve(n, catalog[n], genus) for n in problem.alphabet]
    start_key = identity_key(surface.rank)
    if prune:
        # the first letter of each one-twist class (see Duplicates)
        classes: dict = {}
        for c in curves:
            classes.setdefault(right_compose(start_key, c.step), c)
        curves = list(classes.values())
    # (j, i) for i < j when the twists of the two letters commute
    commute = {
        (j, i) for j, cj in enumerate(curves) for i in range(j)
        if prune and pair_relation(genus, cj.cfg, curves[i].cfg) == "commute"
    }
    target = evaluate(word)
    target_key = target.key
    target_genus_cols = tuple(row[:two_g] for row in target.D)
    # levels up to max_length + 1 decide every length; without weights
    # every level holds the empty vector and nothing is cut.  One typing
    # of the catalog serves the target and the letters
    weights = curve_weights(surface, catalog) if prune else None
    target_w = None if weights is None else word_weights(word, weights)
    letter_w = [] if target_w is None else [weights[c.name] for c in curves]
    levels, count = [{()}], problem.max_length + 2
    if target_w is None or None in letter_w:
        target_w, letter_w = (), [()] * len(curves)
    else:
        levels = _weight_levels(target_w, letter_w, count)
    last = len(levels) - 1
    prune_counts = dict.fromkeys(_PRUNE_NAMES, 0)
    nodes = 0
    mode = "iddfs"
    # n >= 2 letters give n**L > MITM_THRESHOLD once L reaches the
    # threshold's bit length, so capping the exponent there keeps the
    # decision without forming a huge power
    cap = min(problem.max_length, MITM_THRESHOLD.bit_length())
    if prune and curves and len(curves) ** cap > MITM_THRESHOLD:
        mode = "mitm"

    def expand(stop, length, leaf, bounded):
        """Walk the canonical words of ``stop`` letters depth-first in
        alphabet order and return the first non-None ``leaf(path, key)``;
        cut by weight towards ``length`` letters, and with ``bounded`` by
        homology too."""
        memo: set = set()

        def visit(path, key, rest, last_letter):
            nonlocal nodes
            nodes += 1
            depth = len(path)
            if depth == stop:
                return leaf(path, key)
            if prune:
                # the rank is at most 2g, so only fewer letters left can cut
                if bounded and length - depth < two_g and not _rank_bound_ok(
                    key[1], target_genus_cols, length - depth
                ):
                    prune_counts["homology"] += 1
                    return None
                memo_key = (key, depth, last_letter)
                if memo_key in memo:
                    prune_counts["memo"] += 1
                    return None
            # what the other length - depth - 1 letters can carry
            after = levels[min(length - depth - 1, last)]
            for i, c in enumerate(curves):
                if (last_letter, i) in commute:
                    prune_counts["canonical"] += 1
                    continue
                left = tuple(map(sub, rest, letter_w[i]))
                if left not in after:
                    prune_counts["weight"] += 1
                    continue
                hit = visit(path + (c,), right_compose(key, c.step), left, i)
                if hit is not None:
                    return hit
            if prune:
                memo.add(memo_key)
            return None

        return visit((), start_key, target_w, -1)

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

    top = problem.max_length
    # infeasible when the rows of D_target J leave the span of the q (both
    # read on their first 2g coordinates, off which they vanish)
    qs = tuple(c.q for c in curves)
    if prune and curves and matrix_rank(qs + target_genus_cols) > matrix_rank(qs):
        prune_counts["infeasible"] = 1
        top = -1
    elif not levels[-1]:
        # the last level is empty, and so is every longer one
        top = min(top, last)
        prune_counts["weight"] += problem.max_length - top
    for length in range(top + 1):
        if target_w not in levels[min(length, last)]:
            prune_counts["weight"] += 1
            continue
        if mode == "mitm" and length >= 2:
            path = meet_in_middle(length)
        else:
            path = expand(length, length, at_target, True)
        if path is not None:
            hit = TwistWord(surface, catalog, tuple((c.name, 1) for c in path))
            if not verify_factorisation(hit, target):
                raise RuntimeError(f"search found {hit}, which is not the target class")
            return SearchOutcome(hit, None)
    closed = len(levels) < count or not levels[-1]  # see _weight_levels
    any_length = prune_counts["infeasible"] == 1 or (closed and target_w not in levels[-1])
    return SearchOutcome(None, Certificate(
        problem.alphabet, problem.max_length, nodes,
        tuple(prune_counts.items()), mode, any_length,
    ))
