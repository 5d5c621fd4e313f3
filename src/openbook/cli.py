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
--no-prune; flags may be repeated only where noted.  Output is plain
text; --json switches to a machine-readable rendering of the same data.
"""

from __future__ import annotations

import json
import sys

from .factorsearch import SearchProblem, search_positive, word_weights
from .freegroup import FreeWord
from .homology import h1_of_open_book
from .kirby import (
    FramedLinkPresentation,
    SeifertData,
    blow_down,
    h1_of_link,
    seifert_presentation,
)
from .mcg import TwistWord, equal_classes, evaluate
from .surface import catalog_from_json, load_builtin, validate_catalog
from .surgery import OpenBook, neg_continued_fraction, parse_rational, surgery


class UsageError(ValueError):
    pass


_VALUELESS = {"--json", "--peel", "--no-prune"}
_REPEATABLE = {"--link", "--blow-down"}


def _parse_args(tokens: list[str], allowed: set[str], positionals: int = 0):
    """Split tokens into flag values and positionals; unknown flags and
    arity mistakes are usage errors."""
    flags: dict[str, object] = {}
    rest: list[str] = []
    i = 0
    while i < len(tokens):
        tok = tokens[i]
        if tok.startswith("--"):
            if tok not in allowed:
                raise UsageError(f"unknown flag {tok}")
            if tok in _VALUELESS:
                flags[tok] = True
                i += 1
                continue
            if i + 1 >= len(tokens):
                raise UsageError(f"flag {tok} needs a value")
            value = tokens[i + 1]
            if tok in _REPEATABLE:
                flags.setdefault(tok, []).append(value)
            elif tok in flags:
                raise UsageError(f"flag {tok} given twice")
            else:
                flags[tok] = value
            i += 2
        else:
            rest.append(tok)
            i += 1
    if len(rest) != positionals:
        raise UsageError(
            f"expected {positionals} positional argument(s), got {len(rest)}"
        )
    return flags, rest


def _read_config(path: str):
    """Read and parse a catalog config file, without validating it."""
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from None
    return catalog_from_json(text)


def load_config(path: str):
    """Load and validate a catalog config file."""
    spec, catalog = _read_config(path)
    report = validate_catalog(spec, catalog)
    if not report.ok:
        failing = ", ".join(c.name for c in report.failing())
        raise UsageError(f"config validation failed: {failing}")
    return spec, catalog


def _surface_flags(flags):
    name = flags.get("--surface")
    path = flags.get("--config")
    if (name is None) == (path is None):
        raise UsageError("need exactly one of --surface and --config")
    return name, path


def _load_surface(flags):
    name, path = _surface_flags(flags)
    return load_builtin(name) if path is None else load_config(path)


def _emit(json_mode: bool, text_lines, payload) -> None:
    if json_mode:
        print(json.dumps(payload, indent=2))
    else:
        for line in text_lines:
            print(line)


def _cmd_cf(tokens) -> int:
    flags, rest = _parse_args(tokens, {"--json"}, positionals=1)
    r = parse_rational(rest[0])
    cf = neg_continued_fraction(r)
    _emit(
        "--json" in flags,
        [cf.display()],
        {"entries": list(cf.entries), "display": cf.display()},
    )
    return 0


def _book_from_flags(flags) -> OpenBook:
    spec, catalog = _load_surface(flags)
    word = TwistWord.parse(spec, catalog, flags.get("--word", ""))
    return OpenBook.standard(spec, word)


def _cmd_surgery(tokens) -> int:
    flags, _ = _parse_args(
        tokens, {"--surface", "--config", "--word", "--K", "--r", "--n", "--json"}
    )
    if "--K" not in flags or "--r" not in flags:
        raise UsageError("surgery needs --K and --r")
    ob = _book_from_flags(flags)
    n = int(flags["--n"]) if "--n" in flags else None
    out = surgery(ob, flags["--K"], parse_rational(flags["--r"]), n)
    _emit(
        "--json" in flags,
        [f"surface: {out.surface.name}", f"word: {out.word.render()}"],
        {
            "surface": out.surface.name,
            "word": out.word.render(),
            "bindings": list(out.bindings),
        },
    )
    return 0


def _cmd_h1(tokens) -> int:
    flags, _ = _parse_args(tokens, {"--surface", "--config", "--word", "--json"})
    ob = _book_from_flags(flags)
    group = h1_of_open_book(ob)
    _emit("--json" in flags, [f"H1: {group}"], {"h1": str(group)})
    return 0


def _cmd_eval(tokens) -> int:
    flags, _ = _parse_args(tokens, {"--surface", "--config", "--word", "--json"})
    spec, catalog = _load_surface(flags)
    word = TwistWord.parse(spec, catalog, flags.get("--word", ""))
    cls = evaluate(word)
    lines = []
    if cls.linear_only:
        lines.append("aut: unavailable (some curve has no exact automorphism)")
    else:
        for label, image in zip(spec.gen_labels, cls.exact.images):
            lines.append(
                f"{label} -> {FreeWord.make(spec.rank, image).to_str(spec.gen_labels)}"
            )
    lines.append("D:")
    lines.extend(" ".join(str(v) for v in row) for row in cls.D)
    payload = {
        "linear_only": cls.linear_only,
        "images": None if cls.linear_only else [list(w) for w in cls.exact.images],
        "M": [list(r) for r in cls.M],
        "D": [list(r) for r in cls.D],
    }
    _emit("--json" in flags, lines, payload)
    return 0


def _cmd_equal(tokens) -> int:
    flags, _ = _parse_args(
        tokens, {"--surface", "--config", "--word1", "--word2", "--json"}
    )
    spec, catalog = _load_surface(flags)
    a = evaluate(TwistWord.parse(spec, catalog, flags.get("--word1", "")))
    b = evaluate(TwistWord.parse(spec, catalog, flags.get("--word2", "")))
    verdict = equal_classes(a, b)
    _emit(
        "--json" in flags,
        [f"equal: {'true' if verdict else 'false'}"],
        {"equal": verdict},
    )
    return 0


def _cmd_search(tokens) -> int:
    flags, _ = _parse_args(tokens, {
        "--surface", "--config", "--target", "--alphabet", "--max-length",
        "--peel", "--no-prune", "--json",
    })
    spec, catalog = _load_surface(flags)
    if "--target" not in flags or "--alphabet" not in flags:
        raise UsageError("search needs --target and --alphabet")
    word = TwistWord.parse(spec, catalog, flags["--target"])
    alphabet = tuple(t.strip() for t in flags["--alphabet"].split(",") if t.strip())
    max_length = int(flags.get("--max-length", "0"))
    pre_lines, peeled = [], {}
    if "--peel" in flags:
        weights = word_weights(word)
        peeled["weights"] = None if weights is None else list(weights)
        shown = "undecided" if weights is None else " ".join(map(str, weights))
        pre_lines = [f"weights: {shown}"]
    problem = SearchProblem(word, alphabet, max_length)
    outcome = search_positive(problem, prune="--no-prune" not in flags)
    json_mode = "--json" in flags
    if outcome.found:
        found = outcome.word.render()
        _emit(json_mode, pre_lines + [f"found: {found}"], {**peeled, "found": found})
        return 0
    cert = outcome.certificate
    _emit(
        json_mode,
        pre_lines + list(cert.lines()),
        {
            **peeled,
            "exhausted": True,
            "alphabet": list(cert.alphabet),
            "max_length": cert.max_length,
            "nodes": cert.nodes,
            "prunes": dict(cert.prunes),
            "mode": cert.mode,
            "any_length": cert.any_length,
        },
    )
    return 2


def _present(link: FramedLinkPresentation, sort_key):
    """The text lines and JSON payload of a framed link and its H1; the
    lines are read off the payload."""
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


def _cmd_seifert(tokens) -> int:
    flags, _ = _parse_args(tokens, {"--e0", "--rs", "--json"})
    if "--e0" not in flags or "--rs" not in flags:
        raise UsageError("seifert needs --e0 and --rs")
    try:
        e0 = int(flags["--e0"])
    except ValueError:
        raise UsageError(f"bad integer {flags['--e0']!r}") from None
    rs = tuple(parse_rational(t) for t in flags["--rs"].split(","))
    if len(rs) != 3:
        raise UsageError("--rs takes three comma-separated rationals")
    link = seifert_presentation(SeifertData(e0, rs))
    _emit("--json" in flags, *_present(link, str))
    return 0


def _cmd_kirby(tokens) -> int:
    flags, _ = _parse_args(
        tokens, {"--coefficients", "--link", "--blow-down", "--json"}
    )
    if "--coefficients" not in flags:
        raise UsageError("kirby needs --coefficients")
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
    _emit("--json" in flags, *_present(link, sort_key))
    return 0


def _cmd_validate(tokens) -> int:
    flags, _ = _parse_args(tokens, {"--surface", "--config", "--json"})
    name, path = _surface_flags(flags)
    spec, catalog = load_builtin(name) if path is None else _read_config(path)
    report = validate_catalog(spec, catalog)
    _emit(
        "--json" in flags,
        str(report).splitlines(),
        {
            "ok": report.ok,
            "checks": [
                {"name": c.name, "passed": c.passed, "detail": c.detail}
                for c in report.checks
            ],
        },
    )
    return 0 if report.ok else 1


_COMMANDS = {
    "cf": _cmd_cf,
    "surgery": _cmd_surgery,
    "h1": _cmd_h1,
    "eval": _cmd_eval,
    "equal": _cmd_equal,
    "search": _cmd_search,
    "seifert": _cmd_seifert,
    "kirby": _cmd_kirby,
    "validate": _cmd_validate,
}


def main(argv: list[str] | None = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    if not args or args[0] in ("-h", "--help"):
        print(__doc__.strip(), file=sys.stderr)
        return 0 if args else 1
    command = args[0]
    handler = _COMMANDS.get(command)
    if handler is None:
        print(f"error: unknown subcommand {command!r}", file=sys.stderr)
        return 1
    try:
        return handler(args[1:])
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
