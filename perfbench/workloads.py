"""The four workloads: seeded inputs, one round, and its checks.

Constructing a workload with a seed is its set-up: it imports openbook,
loads and validates the builtin pages the workload uses and builds its
seeded inputs.  ``round()`` runs one fixed batch through the program
and returns plain data; ``check(out)`` compares that data with the
reference computations in ``oracle`` and returns a list of failures;
``work(out)`` returns the round's work counts, which must not depend on
the seed.  A seed chooses letters, coefficients and link data, never the
amount of work: every random choice is made among inputs that give the
same counts.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import random
from fractions import Fraction
from math import gcd

import oracle

SIGMA12_ALPHABET = ("a", "b", "g", "d1", "d2", "e", "s1", "s2", "s3")


def _pages(names):
    from openbook.surface import load_builtin, validate_catalog

    pages = {}
    for name in names:
        spec, catalog = load_builtin(name)
        report = validate_catalog(spec, catalog)
        if not report.ok:
            raise RuntimeError(f"builtin page {name} fails validation:\n{report}")
        pages[name] = (spec, catalog)
    return pages


def _modules(*names):
    """openbook submodules by name (the package re-exports some functions
    under their module's name, so attribute access would not do)."""
    return [importlib.import_module(f"openbook.{name}") for name in names]


def _safe(fn, *args):
    """Run one operation; an exception makes it a failed one, recorded as
    ("error", exception type, message)."""
    try:
        return fn(*args)
    except Exception as exc:  # the program's fault becomes a failed operation
        return ("error", type(exc).__name__, str(exc))


def _failed(result):
    return isinstance(result, tuple) and len(result) == 3 and result[0] == "error"


# -- certify-phi -----------------------------------------------------------

class CertifyPhi:
    """The length-8 exhaustion certificate for phi = a b g^-1 d1 d2^(4+n)
    on sigma12 and the two found controls of the search."""

    MAX_LENGTH = 8

    def __init__(self, seed):
        from openbook import cli

        self.cli = cli
        self.pages = _pages(("sigma11", "sigma12"))
        self.nhat = random.Random(seed).randrange(11)
        self.phi = f"a b g^-1 d1 d2^{4 + self.nhat}"
        # evaluating the target composes d2 with itself 4 + n times (d2 acts
        # as the identity on pi_1); no other count depends on n
        self.seeded_calls = 4 + self.nhat
        self.searches = (
            ("phi", "sigma12", self.phi, SIGMA12_ALPHABET, self.MAX_LENGTH),
            ("lantern", "sigma12", "d1 d2 e^2", ("s1", "s2", "s3"), 3),
            ("chain", "sigma11", "d", ("a", "b"), 12),
        )

    def ops(self):
        return len(self.searches)

    def _search(self, surface, target, alphabet, max_length):
        argv = ["search", "--surface", surface, "--target", target,
                "--alphabet", ",".join(alphabet), "--max-length", str(max_length)]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.cli.main(argv)
        return code, buf.getvalue()

    def round(self):
        return [_safe(self._search, *s[1:]) for s in self.searches]

    def check(self, out):
        failures = []
        spec, catalog = self.pages["sigma12"]
        page = oracle.Page(spec, catalog)
        entries = (("a", 1), ("b", 1), ("g", -1), ("d1", 1), ("d2", 4 + self.nhat))
        free, torsion = oracle.cokernel(page.deviation(entries))
        det = abs(oracle.determinant(page.deviation(entries)))
        if (free, torsion) != (0, (5 + self.nhat,)) or det != 5 + self.nhat:
            failures.append(f"H1 of {self.phi} is not Z/{5 + self.nhat}")
        for (label, surface, target, alphabet, max_length), result in zip(self.searches, out):
            if _failed(result):
                continue
            code, text = result
            lines = text.splitlines()
            if label == "phi":
                want_head = [
                    f"exhausted: no positive factorisation up to length {max_length}",
                    "alphabet: " + " ".join(alphabet),
                ]
                if code != 2 or lines[:2] != want_head or not lines[2:3] or not lines[2].startswith("nodes: "):
                    failures.append(f"phi search did not end exhausted: {code} {text!r}")
                continue
            if code != 0 or len(lines) != 1 or not lines[0].startswith("found: "):
                failures.append(f"control {label}: no factorisation found: {code} {text!r}")
                continue
            words = lines[0][len("found: "):].split()
            found = []
            for token in words:
                name, _, exp = token.partition("^")
                found.append((name, int(exp) if exp else 1))
            page = oracle.Page(*self.pages[surface])
            target_entries = []
            for token in target.split():
                name, _, exp = token.partition("^")
                target_entries.append((name, int(exp) if exp else 1))
            if any(e <= 0 or n not in alphabet for n, e in found):
                failures.append(f"control {label}: {lines[0]} is not positive in the alphabet")
            elif sum(e for _, e in found) != max_length:
                failures.append(f"control {label}: length is not {max_length}")
            elif page.mapping_class(found) != page.mapping_class(target_entries):
                failures.append(f"control {label}: {lines[0]} does not equal {target}")
        return failures

    def work(self, out):
        counts = {}
        code, text = out[0] if not _failed(out[0]) else (None, "")
        for line in text.splitlines():
            if line.startswith("nodes: "):
                counts["nodes"] = int(line.split()[1])
            elif line.startswith("pruned "):
                key, value = line[len("pruned "):].split(": ")
                counts[f"pruned_{key}"] = int(value)
        counts["searches"] = len(out)
        return counts


# -- relation-moves --------------------------------------------------------

# letters of similar cost (length of their generator images); a seeded word
# takes each letter from the class of the reference word's letter there
_COST_CLASS = {"a": 0, "b": 0, "e": 0, "g": 1, "s1": 2, "d1": 5, "s2": 3, "s3": 3, "d2": 4}
_PLANTS = (
    (("a", 1), ("b", 1)) * 6,                       # chain, forward
    (("d1", 1), ("d2", 1), ("e", 2)),               # lantern, forward
    (("s1", 1), ("s2", 1), ("s3", 1)),              # lantern, backward
)


class RelationMoves:
    """Every applicable relation move on seeded sigma12 words, each side
    evaluated and compared, plus non-relations that must compare unequal."""

    WORDS = 96
    REFERENCE_SEED = 20210325

    def __init__(self, seed):
        from openbook import mcg

        self.mcg = mcg
        self.pages = _pages(("sigma12",))
        self.spec, self.catalog = self.pages["sigma12"]
        from openbook.surface import relation_tables

        tables = relation_tables("sigma12")
        names = SIGMA12_ALPHABET

        def kind(u, v):
            return "C" if tables.commutes(u, v) else "B" if tables.braids(u, v) else "N"

        self.kind = kind
        reference = self._reference_words(random.Random(self.REFERENCE_SEED))
        rng = random.Random(seed)
        self.words = []
        for ref in reference:
            self.words.append(self._seeded_like(ref, rng, names))
        self.nonrelations = []
        for u, v in tables.braid_pairs + (("s2", "s3"), ("g", "s2"), ("s1", "s3")):
            self.nonrelations.append((((u, 1), (v, 1)), ((v, 1), (u, 1))))
        for word in self.words:
            entries = word.entries
            for i in range(len(entries) - 1):
                if kind(entries[i][0], entries[i + 1][0]) != "C":
                    swapped = entries[:i] + (entries[i + 1], entries[i]) + entries[i + 2:]
                    self.nonrelations.append((entries, swapped))
                    break
        self.nonrelations = [
            (self._word(a), self._word(b)) for a, b in self.nonrelations
        ]

    def _word(self, entries):
        return self.mcg.TwistWord(self.spec, self.catalog, tuple(entries))

    def _reference_words(self, rng):
        """Short words (one to three twists) with exponents -1, 1 or 2;
        every fourth word is a relation pattern with one twist beside it."""

        def entry(prev):
            while True:
                name = rng.choice(SIGMA12_ALPHABET)
                if name != prev:
                    return name, rng.choice((-1, 1, 1, 2))

        words = []
        for i in range(self.WORDS):
            if i % 4 == 3:
                entries = list(_PLANTS[(i // 4) % len(_PLANTS)])
                if rng.random() < 0.5:
                    entries.append(entry(entries[-1][0]))
                else:
                    entries.insert(0, entry(entries[0][0]))
            else:
                entries = []
                for _ in range(1 + i % 4):
                    entries.append(entry(entries[-1][0] if entries else None))
            words.append(self._word(entries))
        return words

    def _profile(self, word):
        """The work a word costs: each applicable move with the exponents
        of the word it rewrites to (neighbouring twists may merge)."""
        mcg = self.mcg
        return tuple(
            (move, direction,
             tuple(e for _, e in mcg.apply_relation(word, move, position, direction).entries))
            for move, position, direction in mcg.applicable_moves(word)
        )

    def _seeded_like(self, ref, rng, names):
        """A word with the reference's length, exponents, relation kinds
        between neighbours, repeats at distance two, letter cost classes
        and move profile; only the letters are drawn from ``rng``."""
        ref_names = [n for n, _ in ref.entries]
        exps = [e for _, e in ref.entries]
        want = self._profile(ref)
        for _ in range(2000):
            chosen = []
            for i, rn in enumerate(ref_names):
                options = [
                    n for n in names
                    if _COST_CLASS[n] == _COST_CLASS[rn]
                    and (i == 0 or (n != chosen[-1] and self.kind(chosen[-1], n)
                                    == self.kind(ref_names[i - 1], rn)))
                    and (i < 2 or (n == chosen[-2]) == (rn == ref_names[i - 2]))
                ]
                if not options:
                    break
                chosen.append(rng.choice(options))
            else:
                word = self._word(zip(chosen, exps))
                if word.entries == tuple(zip(chosen, exps)) and self._profile(word) == want:
                    return word
        raise RuntimeError(f"no seeded word matches the make-up of {ref.render()}")

    def ops(self):
        return len(self.words) + len(self.nonrelations)

    def _moves(self, word):
        mcg = self.mcg
        base = mcg.evaluate(word)
        delta = mcg.boundary_exponent_delta(word, 2, 1)
        rows = []
        for move, position, direction in mcg.applicable_moves(word):
            other = mcg.apply_relation(word, move, position, direction)
            rows.append((
                move, direction, other.entries,
                mcg.equal_classes(base, mcg.evaluate(other)),
                mcg.boundary_exponent_delta(other, 2, 1),
            ))
        return delta, rows

    def _compare(self, a, b):
        mcg = self.mcg
        return mcg.equal_classes(mcg.evaluate(a), mcg.evaluate(b))

    def round(self):
        moved = [_safe(self._moves, w) for w in self.words]
        verdicts = [_safe(self._compare, a, b) for a, b in self.nonrelations]
        return moved, verdicts

    def check(self, out):
        failures = []
        page = oracle.Page(self.spec, self.catalog)
        moved, verdicts = out
        for word, result in zip(self.words, moved):
            if _failed(result):
                continue
            delta, rows = result
            base = page.mapping_class(word.entries)
            if delta != page.parallel_delta(word.entries, 2, 1):
                failures.append(f"{word.render()}: boundary delta {delta} is wrong")
            for move, direction, entries, equal, other_delta in rows:
                if page.mapping_class(entries) != base:
                    failures.append(f"{word.render()}: {move} {direction} changed the class")
                if equal is not True:
                    failures.append(f"{word.render()}: {move} {direction} judged unequal")
                if other_delta != page.parallel_delta(entries, 2, 1):
                    failures.append(f"{word.render()}: {move} {direction} boundary delta wrong")
        unequal = 0
        for (a, b), verdict in zip(self.nonrelations, verdicts):
            if _failed(verdict):
                continue
            want = page.mapping_class(a.entries) == page.mapping_class(b.entries)
            unequal += not want
            if verdict is not want:
                failures.append(f"{a.render()} vs {b.render()}: equal_classes says {verdict}")
        if unequal < len(self.nonrelations) // 2:
            failures.append("too few non-relations: the unequal case goes untested")
        return failures

    def work(self, out):
        counts = {"words": len(self.words), "nonrelations": len(self.nonrelations)}
        for result in out[0]:
            if _failed(result):
                continue
            for move, direction, *_ in result[1]:
                key = f"{move}_{direction}"
                counts[key] = counts.get(key, 0) + 1
        return counts


# -- surgery-h1 ------------------------------------------------------------

def _coefficient_buckets(max_p=40, max_q=8, max_stabilisations=8):
    """Coefficients r = p/q grouped by (kind, stabilisations, blocks):
    every member of a group costs the construction the same number of
    stabilisations, twist blocks and automorphism constructions.  r > 0
    with p | q is left out: no twist count n makes it admissible."""
    buckets = {}
    for p in range(1, max_p + 1):
        for q in range(1, max_q + 1):
            if gcd(p, q) != 1:
                continue
            for r in (Fraction(-p, q), Fraction(p, q)):
                if -1 <= r <= 0 or (r > 0 and q % p == 0):
                    continue
                s = oracle.stabilisations(r)
                if s > max_stabilisations:
                    continue
                residual = r if r < 0 else Fraction(p, q % p - p)
                key = ("admissible" if r < 0 else "inadmissible", s, len(oracle.neg_cf(residual)))
                buckets.setdefault(key, []).append(r)
    return buckets


class SurgeryH1:
    """Transverse surgery on the binding of the trefoil book (sigma11,
    a b), then H1 of the result and of its Kirby presentation."""

    MIN_BUCKET = 2
    PASSES = 3

    def __init__(self, seed):
        from openbook.mcg import TwistWord

        self.surgery, self.homology, self.kirby = _modules("surgery", "homology", "kirby")
        self.pages = _pages(("sigma11",))
        spec, catalog = self.pages["sigma11"]
        self.book = self.surgery.OpenBook.standard(spec, TwistWord.parse(spec, catalog, "a b"))
        rng = random.Random(seed)
        buckets = _coefficient_buckets()
        self.slots = [key for key in sorted(buckets) if len(buckets[key]) >= self.MIN_BUCKET]
        self.coefficients = [
            rng.choice(buckets[key]) for _ in range(self.PASSES) for key in self.slots
        ]

    def ops(self):
        return len(self.coefficients)

    def _one(self, r):
        ob = self.surgery.surgery(self.book, "1", r)
        group = self.homology.h1_of_open_book(ob)
        link = self.kirby.FramedLinkPresentation(("K",), (r,))
        return ob, str(group), str(self.kirby.h1_of_link(link))

    def round(self):
        return [_safe(self._one, r) for r in self.coefficients]

    def check(self, out):
        failures = []
        for r, result in zip(self.coefficients, out):
            if _failed(result):
                continue
            ob, group, kirby_group = result
            want = oracle.group_text(0, (abs(r.numerator),) if abs(r.numerator) > 1 else ())
            if group != want:
                failures.append(f"r={r}: H1 {group}, want {want}")
            if kirby_group != group:
                failures.append(f"r={r}: Kirby presentation gives {kirby_group}, open book {group}")
            s = oracle.stabilisations(r)
            if ob.surface.boundary != 1 + s:
                failures.append(f"r={r}: page has {ob.surface.boundary} boundary components, want {1 + s}")
            page = oracle.Page(ob.surface, ob.word.catalog)
            own = oracle.group_text(*oracle.cokernel(page.deviation(ob.word.entries)))
            if own != want:
                failures.append(f"r={r}: the monodromy's D has cokernel {own}, want {want}")
        return failures

    def work(self, out):
        stabs = sum(oracle.stabilisations(r) for r in self.coefficients)
        return {"coefficients": len(self.coefficients), "stabilisations": stabs}


# -- h1-kirby --------------------------------------------------------------

class H1Kirby:
    """H1 of open books on the builtin pages, of framed links before and
    after a blow-down, and of Seifert presentations; no free-group work."""

    WORDS = 300           # per builtin page
    WORD_LENGTH = 14
    LINK_SIZES = (3, 4, 5, 6) * 150
    SEIFERTS = 600
    REFERENCE_SEED = 19470325

    def __init__(self, seed):
        from openbook.mcg import TwistWord

        surgery, self.homology, self.kirby = _modules("surgery", "homology", "kirby")
        kirby = self.kirby
        self.pages = _pages(("sigma11", "sigma12"))
        rng = random.Random(seed)
        ref_rng = random.Random(self.REFERENCE_SEED)
        self.books = []
        for name in ("sigma11", "sigma12"):
            spec, catalog = self.pages[name]
            by_class = {}
            for curve, cfg in catalog.items():
                by_class.setdefault(any(cfg.q), []).append(curve)
            for _ in range(self.WORDS):
                entries = self._seeded_word(sorted(catalog), by_class, catalog, rng, ref_rng)
                word = TwistWord(spec, catalog, tuple(entries))
                self.books.append(surgery.OpenBook.standard(spec, word))
        self.links = []
        for k in self.LINK_SIZES:
            labels = tuple(f"c{i}" for i in range(k))
            coefficients = [Fraction(rng.randint(-6, 6)) for _ in range(k)]
            victim = rng.randrange(k)
            coefficients[victim] = Fraction(rng.choice((-1, 1)))
            linking = {}
            for i in range(k):
                for j in range(i + 1, k):
                    linking[(labels[i], labels[j])] = rng.choice((-3, -2, -1, 1, 2, 3))
            link = kirby.FramedLinkPresentation(labels, tuple(coefficients), linking)
            self.links.append((link, labels[victim]))
        self.seiferts = []
        for _ in range(self.SEIFERTS):
            rs = []
            for _ in range(3):
                p = rng.randint(2, 12)
                q = rng.choice([q for q in range(1, p) if gcd(p, q) == 1])
                rs.append(Fraction(q, p))
            self.seiferts.append(kirby.SeifertData(rng.randint(-3, 3), tuple(rs)))

    def _seeded_word(self, names, by_class, catalog, rng, ref_rng):
        """WORD_LENGTH twists with exponents and twisting/non-twisting
        pattern (q != 0 or q = 0) from the reference stream, letters from
        the seed; no two neighbours equal."""
        pattern = []
        while len(pattern) < self.WORD_LENGTH:
            name = ref_rng.choice(names)
            if not pattern or name != pattern[-1][0]:
                pattern.append((name, ref_rng.choice((-2, -1, 1, 2))))
        while True:
            entries = []
            for ref_name, exp in pattern:
                options = [n for n in by_class[any(catalog[ref_name].q)]
                           if not entries or n != entries[-1][0]]
                if not options:
                    break
                entries.append((rng.choice(options), exp))
            else:
                return entries

    def ops(self):
        return len(self.books) + len(self.links) + len(self.seiferts)

    def _link(self, link, victim):
        kirby = self.kirby
        down = kirby.blow_down(link, victim)
        return kirby.h1_of_link(link), down, kirby.h1_of_link(down)

    def round(self):
        h1_book = self.homology.h1_of_open_book
        groups = [_safe(h1_book, ob) for ob in self.books]
        links = [_safe(self._link, link, victim) for link, victim in self.links]
        seiferts = [
            _safe(lambda d: self.kirby.h1_of_link(self.kirby.seifert_presentation(d)), d)
            for d in self.seiferts
        ]
        return groups, links, seiferts

    @staticmethod
    def _own_link_group(link):
        coefficients = dict(zip(link.labels, link.coefficients))
        linking = {frozenset(pair): lk for pair, lk in link.linking.items()}
        matrix = oracle.link_matrix(link.labels, coefficients, linking)
        return matrix, oracle.cokernel(matrix)

    def check(self, out):
        failures = []
        groups, links, seiferts = out
        for ob, group in zip(self.books, groups):
            if _failed(group):
                continue
            d = oracle.Page(ob.surface, ob.word.catalog).deviation(ob.word.entries)
            free, torsion = oracle.cokernel(d)
            det = oracle.determinant(d)
            if det and (group.free_rank, group.order) != (0, abs(det)):
                failures.append(f"{ob.word.render()}: {group}, |det D| = {abs(det)}")
            if oracle.group_of(group) != (free, torsion):
                failures.append(f"{ob.word.render()}: {group}, want "
                                f"{oracle.group_text(free, torsion)}")
        for (link, victim), result in zip(self.links, links):
            if _failed(result):
                continue
            before, down, after = result
            matrix, own = self._own_link_group(link)
            det = oracle.determinant(matrix)
            if oracle.group_of(before) != own or (det and before.order != abs(det)):
                failures.append(f"link {link.coefficients}: {before}, want {oracle.group_text(*own)}")
            if len(down.labels) != len(link.labels) - 1 or victim in down.labels:
                failures.append(f"blow-down of {victim} kept the wrong components")
            if oracle.group_of(after) != own or self._own_link_group(down)[1] != own:
                failures.append(f"blow-down of {victim} changed H1: {before} -> {after}")
        for data, group in zip(self.seiferts, seiferts):
            if _failed(group):
                continue
            order = oracle.seifert_order(data.e0, data.rs)
            if (order and group.order != order) or (not order and group.free_rank != 1):
                failures.append(f"Seifert {data}: {group}, order should be {order}")
        return failures

    def work(self, out):
        return {
            "books": len(self.books),
            "twists": sum(len(ob.word.entries) for ob in self.books),
            "link_components": sum(len(link.labels) for link, _ in self.links),
            "seiferts": len(self.seiferts),
        }


WORKLOADS = {
    "certify-phi": CertifyPhi,
    "relation-moves": RelationMoves,
    "surgery-h1": SurgeryH1,
    "h1-kirby": H1Kirby,
}
