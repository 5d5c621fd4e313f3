"""Command-line front end.

Subcommands:

    cf        negative continued fraction of a rational < -1
    surgery   transverse surgery on a binding of an open book
    h1        first homology of the closed manifold of an open book
    eval      exact automorphism and linear data of a twist word
    equal     exact equality of two monodromy words
    search    bounded search for a positive factorisation; --peel prints the
              target's capping weights first, one per boundary component
    seifert   Seifert presentation and its H1
    kirby     framed-link presentation: blow-downs and H1
    validate  run the catalog checks for a builtin or config file

Exit codes: 0 success, 1 invalid input, 2 search exhausted without a
factorisation.  All flags take a value except --json, --peel and
--no-prune; no flag may be given twice except --link and --blow-down.
--e0, --max-length and --n take integers.  --word, --word1 and --word2
default to the empty word (the identity), --max-length to 0.  Output is
plain text; --json switches to a machine-readable rendering of the same
data.
"""

from __future__ import annotations

import sys


class UsageError(ValueError):
    pass


# Largest rank 2 genus + boundary - 1 of a --config page that words are
# evaluated on.  A word's deviation on a rank-r page is an r x r matrix:
# on a shared 2-vCPU host, h1 of the empty word took 0.05 s and 30 MiB
# at rank 1000 and 0.15 s and 76 MiB at rank 2000, and each dense curve
# in the word adds about r^2 steps (20 of them: 0.7 s at rank 1000).
# The trefoil surgery page at r = -480 (tools/surgery_depth.py) has rank
# 481.  validate reads no word, so it takes a page of any rank.
MAX_RANK = 1000

_VALUELESS = {"--json", "--peel", "--no-prune"}
_REPEATABLE = {"--link", "--blow-down"}
_INTEGER = {"--e0", "--max-length", "--n"}


def _parse_args(command: str, tokens: list[str]):
    """Split tokens into flag values and positionals by the command's row
    of ``_COMMANDS``.  Unknown flags, arity mistakes, repeats, missing
    required flags and malformed integers are usage errors."""
    _, allowed, required, positionals = _COMMANDS[command]
    flags: dict[str, object] = {}
    rest: list[str] = []
    i = 0
    while i < len(tokens):
        tok = tokens[i]
        i += 1
        if not tok.startswith("--"):
            rest.append(tok)
            continue
        if tok != "--json" and tok not in allowed:
            raise UsageError(f"unknown flag {tok}")
        if tok in _VALUELESS:
            value = True
        elif i < len(tokens):
            value = tokens[i]
            i += 1
        else:
            raise UsageError(f"flag {tok} needs a value")
        if tok in _REPEATABLE:
            flags.setdefault(tok, []).append(value)
        elif tok in flags:
            raise UsageError(f"flag {tok} given twice")
        else:
            flags[tok] = value
    if len(rest) != positionals:
        raise UsageError(
            f"expected {positionals} positional argument(s), got {len(rest)}"
        )
    if any(flag not in flags for flag in required):
        raise UsageError(f"{command} needs {' and '.join(required)}")
    for flag in _INTEGER.intersection(flags):
        try:
            flags[flag] = int(flags[flag])
        except ValueError:
            raise UsageError(f"bad integer {flags[flag]!r}") from None
    return flags, rest


def _load(flags, *word_flags, validate: bool = True):
    """The page named by --surface or read from --config, then the twist
    words of ``word_flags`` on it, each the identity when absent.  A
    config page must pass its catalog checks unless ``validate`` is
    false, and have rank at most ``MAX_RANK`` if words are read on it."""
    from .surface import load_builtin, validate_catalog

    name, path = flags.get("--surface"), flags.get("--config")
    if (name is None) == (path is None):
        raise UsageError("need exactly one of --surface and --config")
    if path is None:
        spec, catalog = load_builtin(name)
    else:
        from .catalog_json import catalog_from_json

        try:
            with open(path, encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise UsageError(f"cannot read config {path}: {exc}") from None
        spec, catalog = catalog_from_json(text)
        if word_flags and spec.rank > MAX_RANK:
            raise UsageError(f"config page has rank {spec.rank}; the limit is {MAX_RANK}")
        if validate:
            report = validate_catalog(spec, catalog)
            if not report.ok:
                failing = ", ".join(c.name for c in report.failing())
                raise UsageError(f"config validation failed: {failing}")
    if not word_flags:
        return spec, catalog
    from .mcg import TwistWord

    words = [TwistWord.parse(spec, catalog, flags.get(f, "")) for f in word_flags]
    return (spec, catalog, *words)


def _cmd_cf(flags, text):
    from .kirby import neg_continued_fraction, parse_rational

    cf = neg_continued_fraction(parse_rational(text))
    return [cf.display()], {"entries": list(cf.entries), "display": cf.display()}


def _cmd_surgery(flags):
    from .surgery import OpenBook, parse_rational, surgery

    spec, _, word = _load(flags, "--word")
    book = OpenBook.standard(spec, word)
    out = surgery(book, flags["--K"], parse_rational(flags["--r"]), flags.get("--n"))
    return (
        [f"surface: {out.surface.name}", f"word: {out.word.render()}"],
        {
            "surface": out.surface.name,
            "word": out.word.render(),
            "bindings": list(out.bindings),
        },
    )


def _cmd_h1(flags):
    from .homology import cokernel
    from .mcg import evaluate

    _, _, word = _load(flags, "--word")
    group = cokernel(evaluate(word).D)
    return [f"H1: {group}"], {"h1": str(group)}


def _cmd_eval(flags):
    from .mcg import evaluate

    spec, _, word = _load(flags, "--word")
    cls = evaluate(word)
    lines = []
    if cls.linear_only:
        lines.append("aut: unavailable (some curve has no exact automorphism)")
    else:
        labels = spec.gen_labels
        for label, image in zip(labels, cls.exact.images):
            spelled = (labels[x - 1] if x > 0 else labels[-x - 1] + "^-1" for x in image)
            lines.append(f"{label} -> {' '.join(spelled)}")
    lines.append("D:")
    lines.extend(" ".join(str(v) for v in row) for row in cls.D)
    payload = {
        "linear_only": cls.linear_only,
        "images": None if cls.linear_only else [list(w) for w in cls.exact.images],
        "M": [list(r) for r in cls.M],
        "D": [list(r) for r in cls.D],
    }
    return lines, payload


def _cmd_equal(flags):
    from .mcg import equal_classes, evaluate

    _, _, a, b = _load(flags, "--word1", "--word2")
    verdict = equal_classes(evaluate(a), evaluate(b))
    return [f"equal: {'true' if verdict else 'false'}"], {"equal": verdict}


def _cmd_search(flags):
    from .factorsearch import SearchProblem, search_positive, word_weights

    _, _, word = _load(flags, "--target")
    alphabet = tuple(t.strip() for t in flags["--alphabet"].split(",") if t.strip())
    lines, peeled = [], {}
    if "--peel" in flags:
        weights = word_weights(word)
        peeled["weights"] = None if weights is None else list(weights)
        shown = "undecided" if weights is None else " ".join(map(str, weights))
        lines = [f"weights: {shown}"]
    problem = SearchProblem(word, alphabet, flags.get("--max-length", 0))
    outcome = search_positive(problem, prune="--no-prune" not in flags)
    if outcome.found:
        found = outcome.word.render()
        return lines + [f"found: {found or '(empty word)'}"], {**peeled, "found": found}
    cert = outcome.certificate
    payload = {
        **peeled,
        "exhausted": True,
        "alphabet": list(cert.alphabet),
        "max_length": cert.max_length,
        "nodes": cert.nodes,
        "prunes": dict(cert.prunes),
        "mode": cert.mode,
        "any_length": cert.any_length,
    }
    return lines + list(cert.lines()), payload, 2


def _present(link, sort_key):
    """The text lines and JSON payload of a framed link and its H1; the
    lines are read off the payload."""
    from .kirby import h1_of_link

    order = sorted(link.labels, key=sort_key)
    coeff = dict(zip(link.labels, link.coefficients))
    pairs = sorted(link.linking.items(), key=lambda kv: (sort_key(kv[0][0]), sort_key(kv[0][1])))
    payload = {
        "components": order,
        "coefficients": [str(coeff[l]) for l in order],
        "linking": {f"{a}-{b}": v for (a, b), v in pairs},
        "h1": str(h1_of_link(link)),
    }
    lines = [
        "components: " + " ".join(order),
        "coefficients: " + " ".join(payload["coefficients"]),
    ]
    if pairs:
        lines.append("linking: " + " ".join(f"{k}:{v}" for k, v in payload["linking"].items()))
    lines.append(f"H1: {payload['h1']}")
    return lines, payload


def _cmd_seifert(flags):
    from .kirby import SeifertData, parse_rational, seifert_presentation

    rs = tuple(parse_rational(t) for t in flags["--rs"].split(","))
    if len(rs) != 3:
        raise UsageError("--rs takes three comma-separated rationals")
    return _present(seifert_presentation(SeifertData(flags["--e0"], rs)), str)


def _cmd_kirby(flags):
    from .kirby import FramedLinkPresentation, blow_down, parse_rational

    coeffs = tuple(
        parse_rational(t) for t in flags["--coefficients"].split(",") if t.strip()
    )
    labels = tuple(str(i) for i in range(1, len(coeffs) + 1))
    linking: dict[tuple[str, str], int] = {}
    for item in flags.get("--link", []):
        try:
            pair, value = item.split(":")
            a, b = pair.split("-")
            lk = int(value)
        except ValueError:
            raise UsageError(f"bad --link {item!r}; expected i-j:lk") from None
        key = (a, b) if a < b else (b, a)
        if key in linking:
            raise UsageError(f"linking of {key[0]}-{key[1]} given twice")
        linking[key] = lk
    link = FramedLinkPresentation(labels, coeffs, linking)

    def sort_key(label: str):
        return int(label) if label.isdigit() else label

    for target in flags.get("--blow-down", []):
        link = blow_down(link, target)
    return _present(link, sort_key)


def _cmd_validate(flags):
    from .surface import validate_catalog

    report = validate_catalog(*_load(flags, validate=False))
    payload = {
        "ok": report.ok,
        "checks": [
            {"name": c.name, "passed": c.passed, "detail": c.detail}
            for c in report.checks
        ],
    }
    return str(report).splitlines(), payload, 0 if report.ok else 1


_PAGE = ("--surface", "--config")

# subcommand: (handler, flags besides --json, required flags, positionals).
# A handler takes the parsed flags and the positionals and returns its
# text lines, its --json payload and optionally its exit code (else 0).
_COMMANDS = {
    "cf": (_cmd_cf, (), (), 1),
    "surgery": (_cmd_surgery, (*_PAGE, "--word", "--K", "--r", "--n"), ("--K", "--r"), 0),
    "h1": (_cmd_h1, (*_PAGE, "--word"), (), 0),
    "eval": (_cmd_eval, (*_PAGE, "--word"), (), 0),
    "equal": (_cmd_equal, (*_PAGE, "--word1", "--word2"), (), 0),
    "search": (
        _cmd_search,
        (*_PAGE, "--target", "--alphabet", "--max-length", "--peel", "--no-prune"),
        ("--target", "--alphabet"),
        0,
    ),
    "seifert": (_cmd_seifert, ("--e0", "--rs"), ("--e0", "--rs"), 0),
    "kirby": (_cmd_kirby, ("--coefficients", "--link", "--blow-down"), ("--coefficients",), 0),
    "validate": (_cmd_validate, _PAGE, (), 0),
}


def main(argv: list[str] | None = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    if not args or args[0] in ("-h", "--help"):
        print(__doc__.strip(), file=sys.stderr)
        return 0 if args else 1
    command = args[0]
    if command not in _COMMANDS:
        print(f"error: unknown subcommand {command!r}", file=sys.stderr)
        return 1
    try:
        flags, rest = _parse_args(command, args[1:])
        lines, payload, *code = _COMMANDS[command][0](flags, *rest)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if "--json" in flags:
        import json

        print(json.dumps(payload, indent=2))
    else:
        for line in lines:
            print(line)
    return code[0] if code else 0


if __name__ == "__main__":
    sys.exit(main())
