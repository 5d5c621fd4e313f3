import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from openbook import cli
from openbook.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cf(capsys):
    code, out, err = run(capsys, "cf", "-5/4")
    assert (code, out, err) == (0, "[-3+1, -2, -2, -2]^-\n", "")
    code, out, _ = run(capsys, "cf", "-5/4", "--json")
    assert code == 0
    assert json.loads(out) == {
        "entries": [-2, -2, -2, -2],
        "display": "[-3+1, -2, -2, -2]^-",
    }
    code, _, err = run(capsys, "cf", "-1/2")
    assert code == 1 and err.startswith("error: ")
    code, _, err = run(capsys, "cf", "nope")
    assert code == 1 and "bad surgery coefficient" in err
    code, _, err = run(capsys, "cf")
    assert code == 1 and "positional" in err


def test_surgery(capsys):
    code, out, err = run(
        capsys,
        "surgery", "--surface", "sigma11", "--word", "a b",
        "--K", "1", "--r", "5", "--n", "1",
    )
    assert code == 0 and err == ""
    assert out == "surface: sigma12\nword: a b g^-1 d1 d2^4\n"

    code, out, _ = run(
        capsys,
        "surgery", "--surface", "sigma11", "--word", "a b",
        "--K", "1", "--r", "-7/2", "--json",
    )
    assert code == 0
    assert json.loads(out) == {
        "surface": "sigma14",
        "word": "a b d1 d3 d4 d2^2",
        "bindings": ["2", "1", "3", "4"],
    }

    code, _, err = run(capsys, "surgery", "--surface", "sigma11", "--word", "a b", "--r", "5")
    assert code == 1 and "surgery needs --K and --r" in err
    code, _, err = run(
        capsys,
        "surgery", "--surface", "sigma11", "--word", "a b", "--K", "1", "--r", "-1/2",
    )
    assert code == 1 and "is in [-1, 0]" in err


def test_surgery_twist_count_needs_positive_r(capsys):
    code, out, err = run(
        capsys,
        "surgery", "--surface", "sigma11", "--word", "a b",
        "--K", "1", "--r", "-7/2", "--n", "3",
    )
    assert (code, out) == (1, "")
    assert err == "error: twist count n=3 applies only to r > 0, got r=-7/2\n"


def test_h1(capsys):
    code, out, _ = run(capsys, "h1", "--surface", "sigma12", "--word", "a b g^-1 d1 d2^4")
    assert (code, out) == (0, "H1: Z/5\n")
    code, out, _ = run(capsys, "h1", "--surface", "sigma11", "--word", "a b")
    assert (code, out) == (0, "H1: 0\n")
    code, out, _ = run(capsys, "h1", "--surface", "sigma11", "--word", "", "--json")
    assert code == 0 and json.loads(out) == {"h1": "Z + Z"}


def test_eval(capsys):
    code, out, _ = run(capsys, "eval", "--surface", "sigma11", "--word", "a b")
    assert code == 0
    assert out == "x -> y^-1\ny -> y x\nD:\n-1 1\n-1 0\n"
    code, out, _ = run(capsys, "eval", "--surface", "sigma11", "--word", "a b", "--json")
    payload = json.loads(out)
    assert payload == {
        "linear_only": False,
        "images": [[-2], [2, 1]],
        "M": [[0, 1], [-1, 1]],
        "D": [[-1, 1], [-1, 0]],
    }
    # the boundary generator's label and inverse letters
    code, out, _ = run(capsys, "eval", "--surface", "sigma12", "--word", "s2")
    assert (code, out) == (
        0,
        "x -> z2 x z2^-1\n"
        "y -> z2 x^-1 z2^-1 x y x z2^-1\n"
        "z2 -> z2 x^-1 z2 x z2^-1\n"
        "D:\n0 1 -1\n0 0 0\n0 -1 1\n",
    )


def test_eval_linear_only(tmp_path, capsys):
    # stabilising sigma12 at boundary 2 leaves s2 and s3 without an exact
    # automorphism, so eval prints only the linear data
    from openbook.surface import catalog_to_json, load_builtin, stabilize

    page = stabilize(*load_builtin("sigma12"), 2)
    path = tmp_path / "page.json"
    path.write_text(catalog_to_json(page.surface, page.catalog))
    argv = ("eval", "--config", str(path), "--word", "s2 a")
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (
        0,
        "aut: unavailable (some curve has no exact automorphism)\n"
        "D:\n0 2 -1 -1\n0 0 0 0\n0 -1 1 1\n0 -1 1 1\n",
        "",
    )
    code, out, err = run(capsys, *argv, "--json")
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["linear_only"] is True and payload["images"] is None
    assert payload["D"] == [[0, 2, -1, -1], [0, 0, 0, 0], [0, -1, 1, 1], [0, -1, 1, 1]]


def test_equal(capsys):
    code, out, _ = run(
        capsys, "equal", "--surface", "sigma11", "--word1", "a b a", "--word2", "b a b"
    )
    assert (code, out) == (0, "equal: true\n")
    code, out, _ = run(
        capsys,
        "equal", "--surface", "sigma12",
        "--word1", "a b g^-1 d1 d2^4", "--word2", "a b g^-1 d1 d2^5",
    )
    assert (code, out) == (0, "equal: false\n")
    code, out, _ = run(
        capsys, "equal", "--surface", "sigma11", "--word1", "", "--word2", "", "--json"
    )
    assert code == 0 and json.loads(out) == {"equal": True}


def test_search_found(capsys):
    code, out, _ = run(
        capsys,
        "search", "--surface", "sigma12", "--target", "d1 d2 e^2",
        "--alphabet", "s1,s2,s3", "--max-length", "3",
    )
    assert (code, out) == (0, "found: s1 s2 s3\n")

    # both search modes return the least word in alphabet order, not in
    # name order: length 6 switches to meet-in-the-middle
    for max_length in ("5", "6"):
        code, out, _ = run(
            capsys,
            "search", "--surface", "sigma12", "--target", "g d1",
            "--alphabet", "a,b,g,d1,d2,e,s1,s2,s3", "--max-length", max_length,
        )
        assert (code, out) == (0, "found: g d1\n")

    # the mode is chosen without forming len(alphabet) ** max_length, so a
    # huge bound still finds a length-1 word at once
    code, out, _ = run(
        capsys,
        "search", "--surface", "sigma11", "--target", "a",
        "--alphabet", "a,b", "--max-length", "1000000000000",
    )
    assert (code, out) == (0, "found: a\n")

    # the identity's least factorisation is the empty word, named as such;
    # --json keeps the empty rendering
    for target in ("", "a a^-1"):
        args = ("search", "--surface", "sigma12", "--target", target, "--alphabet", "a")
        assert run(capsys, *args) == (0, "found: (empty word)\n", "")
        code, out, _ = run(capsys, *args, "--json")
        assert (code, json.loads(out)) == (0, {"found": ""})


def test_search_exhausted(capsys):
    # the weights force length 12 (twelve nonseparating twists make the
    # boundary twist), so every length up to 3 is skipped unwalked
    code, out, _ = run(
        capsys,
        "search", "--surface", "sigma11", "--target", "d",
        "--alphabet", "a,b", "--max-length", "3",
    )
    assert code == 2
    assert out.splitlines() == [
        "exhausted: no positive factorisation up to length 3",
        "alphabet: a b",
        "nodes: 0",
        "pruned weight: 4",
        "pruned homology: 0",
        "pruned memo: 0",
        "pruned canonical: 0",
        "pruned infeasible: 0",
        "mode: iddfs",
    ]
    code, out, _ = run(
        capsys,
        "search", "--surface", "sigma11", "--target", "d",
        "--alphabet", "a,b", "--max-length", "3", "--json",
    )
    assert code == 2
    payload = json.loads(out)
    assert payload["exhausted"] is True and payload["any_length"] is False
    assert payload["nodes"] == 0
    assert payload["prunes"]["weight"] == 4
    assert "weights" not in payload
    # switching the pruning off still exhausts, over strictly more nodes
    code, out, _ = run(
        capsys,
        "search", "--surface", "sigma11", "--target", "d",
        "--alphabet", "a,b", "--max-length", "3", "--json", "--no-prune",
    )
    assert code == 2
    assert json.loads(out)["nodes"] > payload["nodes"]


def test_search_peel(capsys):
    code, out, _ = run(
        capsys,
        "search", "--surface", "sigma12", "--target", "a b g^-1 d1 d2^4",
        "--alphabet", "s1,s2,s3", "--max-length", "2", "--peel",
    )
    assert code == 2
    lines = out.splitlines()
    assert lines[0] == "weights: 2 38"
    assert lines[1] == "exhausted: no positive factorisation up to length 2"
    assert "nodes: 0" in lines
    assert "pruned infeasible: 1" in lines
    assert lines[-1] == "no positive factorisation over this alphabet at any length"
    code, out, _ = run(
        capsys,
        "search", "--surface", "sigma12", "--target", "d1 d2 e^2",
        "--alphabet", "s1,s2,s3", "--max-length", "3", "--peel", "--json",
    )
    assert (code, json.loads(out)) == (0, {"weights": [14, 14], "found": "s1 s2 s3"})


_PHI_CERTIFICATE = (
    "exhausted: no positive factorisation up to length 8\n"
    "alphabet: a b g d1 d2 e s1 s2 s3\n"
    "nodes: 71\n"
    "pruned weight: 94\n"
    "pruned homology: 0\n"
    "pruned memo: 0\n"
    "pruned canonical: 62\n"
    "pruned infeasible: 0\n"
    "mode: mitm\n"
    "no positive factorisation over this alphabet at any length\n"
)


def test_search_phi_certificate(capsys):
    # the paper's obstruction: the weights (2, 38) of phi force length 5
    # exactly, so the length-8 search walks that length alone and proves
    # that no positive factorisation exists at any length
    argv = (
        "search", "--surface", "sigma12", "--target", "a b g^-1 d1 d2^4",
        "--alphabet", "a,b,g,d1,d2,e,s1,s2,s3", "--max-length", "8",
    )
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, _PHI_CERTIFICATE, "")
    code, out, err = run(capsys, *argv, "--peel")
    assert (code, out, err) == (2, "weights: 2 38\n" + _PHI_CERTIFICATE, "")


def test_search_phi_family_at_every_length(capsys):
    # phi_R = a b g^-1 d1 d2^(R-1) has weights (2, 12 R - 22): every
    # positive factorisation has length R, and a search to R rules out all
    for R in (2, 5, 13, 50):
        for peel in ((), ("--peel",)):
            code, out, err = run(
                capsys,
                "search", "--surface", "sigma12",
                "--target", f"a b g^-1 d1 d2^{R - 1}",
                "--alphabet", "a,b,g,d1,d2,e,s1,s2,s3",
                "--max-length", str(R), *peel,
            )
            lines = out.splitlines()
            assert (code, err) == (2, "")
            assert lines[-1] == (
                "no positive factorisation over this alphabet at any length"
            )
            if peel:
                assert lines[0] == f"weights: 2 {12 * R - 22}"
    # one length short of R, the any-length line is withheld
    code, out, _ = run(
        capsys,
        "search", "--surface", "sigma12", "--target", "a b g^-1 d1 d2^4",
        "--alphabet", "a,b,g,d1,d2,e,s1,s2,s3", "--max-length", "4",
    )
    assert code == 2 and out.splitlines()[-1] == "mode: iddfs"


def test_seifert(capsys):
    code, out, _ = run(capsys, "seifert", "--e0", "-1", "--rs", "1/2,1/3,1/4")
    assert code == 0
    assert out == (
        "components: c0 c1 c2 c3\n"
        "coefficients: -1 -2 -3 -4\n"
        "linking: c0-c1:1 c0-c2:1 c0-c3:1\n"
        "H1: Z/2\n"
    )
    code, _, err = run(capsys, "seifert", "--e0", "-1")
    assert code == 1 and "needs --e0 and --rs" in err


def test_kirby(capsys):
    code, out, _ = run(
        capsys, "kirby", "--coefficients", "2,-1", "--link", "1-2:3", "--blow-down", "2"
    )
    assert code == 0
    assert out == "components: 1\ncoefficients: 11\nH1: Z/11\n"
    code, out, _ = run(
        capsys, "kirby", "--coefficients", "2,-1", "--link", "1-2:3", "--json"
    )
    assert code == 0
    assert json.loads(out) == {
        "components": ["1", "2"],
        "coefficients": ["2", "-1"],
        "linking": {"1-2": 3},
        "h1": "Z/11",
    }
    code, _, err = run(capsys, "kirby", "--coefficients", "2,x")
    assert code == 1 and "bad surgery coefficient" in err


def test_kirby_rejects_repeated_link(capsys):
    # the same pair twice, in either order, is an error, not a silent overwrite
    for second in ("1-2:4", "2-1:4", "2-1:3"):
        code, out, err = run(
            capsys, "kirby", "--coefficients", "1,-1", "--link", "1-2:3", "--link", second
        )
        assert (code, out) == (1, "")
        assert err == "error: linking of 1-2 given twice\n"
    code, out, _ = run(
        capsys, "kirby", "--coefficients", "1,-1,2", "--link", "1-2:3", "--link", "3-1:4"
    )
    assert code == 0 and "linking: 1-2:3 1-3:4" in out


def test_validate(capsys):
    code, out, _ = run(capsys, "validate", "--surface", "sigma12")
    assert code == 0
    assert all(line.endswith(": PASS") for line in out.splitlines())
    assert len(out.splitlines()) == 8


def test_rank_zero_page(tmp_path, capsys):
    # a disc page: its free group, abelianisation and D are all empty
    path = tmp_path / "disc.json"
    path.write_text(json.dumps({
        "genus": 0, "boundary": 1,
        "curves": [{"name": "c", "h": [], "q": [], "p": [],
                    "aut": {"images": [], "inverse_images": []}}],
    }))
    code, out, err = run(capsys, "validate", "--config", str(path))
    assert (code, err) == (0, "")
    assert len(out.splitlines()) == 8
    assert all(line.endswith(": PASS") for line in out.splitlines())
    assert run(capsys, "h1", "--config", str(path), "--word", "c") == (0, "H1: 0\n", "")
    assert run(capsys, "eval", "--config", str(path), "--word", "c") == (0, "D:\n", "")


def test_config_files(tmp_path, capsys):
    code, out, _ = run(capsys, "validate", "--surface", "sigma11", "--json")
    # regenerate the same catalog through a config file
    from openbook.surface import catalog_to_json, load_builtin

    spec, catalog = load_builtin("sigma11")
    path = tmp_path / "surface.json"
    path.write_text(catalog_to_json(spec, catalog))
    code, out, _ = run(capsys, "h1", "--config", str(path), "--word", "a b")
    assert (code, out) == (0, "H1: 0\n")

    path.write_text('{"genus": 1,,}')
    code, _, err = run(capsys, "h1", "--config", str(path), "--word", "a b")
    assert code == 1 and "line 1, column 13" in err

    code, _, err = run(capsys, "h1", "--word", "a b")
    assert code == 1 and "exactly one of --surface and --config" in err
    code, _, err = run(
        capsys, "h1", "--surface", "sigma11", "--config", str(path), "--word", "a"
    )
    assert code == 1 and "exactly one of --surface and --config" in err


def test_malformed_config_files(tmp_path, capsys):
    from openbook.surface import catalog_to_json, load_builtin

    spec, catalog = load_builtin("sigma11")
    path = tmp_path / "surface.json"

    def write(edit):
        obj = json.loads(catalog_to_json(spec, catalog))
        edit({c["name"]: c for c in obj["curves"]}, obj)
        path.write_text(json.dumps(obj))

    # a sigma11 catalog without a and d fails its chain check by name
    write(lambda curves, obj: obj.update(curves=[curves["b"]]))
    code, out, err = run(capsys, "validate", "--config", str(path))
    assert code == 1 and err == ""
    assert "chain: FAIL (curves not in catalog: a, d)" in out.splitlines()
    code, _, err = run(capsys, "h1", "--config", str(path), "--word", "b")
    assert code == 1
    assert err == "error: config validation failed: chain\n"

    write(lambda curves, obj: curves["a"].update(aut=5))
    code, _, err = run(capsys, "validate", "--config", str(path))
    assert code == 1 and err.startswith("error: curve 'a': bad automorphism")
    assert len(err.splitlines()) == 1

    write(lambda curves, obj: curves["d"].update(boundary_parallel_to="x"))
    code, _, err = run(capsys, "validate", "--config", str(path))
    assert (code, err) == (
        1, "error: curve 'd': boundary_parallel_to must be an integer\n"
    )

    # wrongly typed containers and names: one line, never a traceback
    for edit, message in (
        (lambda curves, obj: obj.update(boundary_words=5), "boundary_words must be lists"),
        (lambda curves, obj: obj.update(curves=5), "curves must be a list"),
        (lambda curves, obj: curves["a"].update(name=["a"]), "curve name must be a string"),
        (lambda curves, obj: obj.update(genus=1.9), "config needs integer genus"),
        (lambda curves, obj: curves["a"].update(q=["0", 1]), "curve 'a': q must be a list"),
    ):
        write(edit)
        code, out, err = run(capsys, "validate", "--config", str(path))
        assert (code, out) == (1, "")
        assert err.startswith("error: " + message) and len(err.splitlines()) == 1

    # absolute pairings that are not J p: every other check would pass,
    # and M derived from D would disagree with q
    path.write_text(json.dumps({
        "genus": 1, "boundary": 3,
        "curves": [{"name": "a", "h": [1, 0, 0, 0], "p": [0, 1, 0, 0],
                    "q": [0, 1, 0, 1]}],
    }))
    code, out, err = run(capsys, "validate", "--config", str(path))
    assert (code, out, err) == (1, "structure: FAIL (curve a: q != J p)\n", "")
    code, out, err = run(capsys, "eval", "--config", str(path), "--word", "a", "--json")
    assert (code, out, err) == (1, "", "error: config validation failed: structure\n")


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-10, 10) | st.integers()
    | st.floats(allow_nan=False) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)
_SIZES = st.integers(-2, 4) | st.sampled_from([10**3, 10**4])


def _mutate(obj, data):
    """One random edit of a catalog object: a signature, a top-level or
    curve field, or one letter, word or entry of its lists."""
    kind = data.draw(st.sampled_from(["size", "top", "curve", "letter", "drop", "copy"]))
    curves = obj.get("curves") if isinstance(obj.get("curves"), list) else []
    if kind == "size":
        obj[data.draw(st.sampled_from(["genus", "boundary"]))] = data.draw(_SIZES)
    elif kind == "top":
        key = data.draw(st.sampled_from(["genus", "boundary", "boundary_words", "curves"]))
        if data.draw(st.booleans()):
            obj.pop(key, None)
        else:
            obj[key] = data.draw(_JSON_VALUES)
    elif kind in ("curve", "drop", "copy") and curves:
        i = data.draw(st.integers(0, len(curves) - 1))
        if kind == "drop":
            del curves[i]
        elif kind == "copy":
            curves.append(json.loads(json.dumps(curves[i])))
        elif isinstance(curves[i], dict):
            key = data.draw(st.sampled_from(["name", "h", "q", "p", "boundary_parallel_to", "aut"]))
            curves[i][key] = data.draw(_JSON_VALUES | st.sampled_from(["a", "d1", 1, 2, 9]))
    elif kind == "letter":
        # a letter of a boundary word or of an automorphism image
        # an earlier edit may have replaced boundary_words by a non-list
        bwords = obj.get("boundary_words")
        words = [w for w in bwords if isinstance(w, list)] if isinstance(bwords, list) else []
        for curve in curves:
            aut = curve.get("aut") if isinstance(curve, dict) else None
            if isinstance(aut, dict):
                words += [w for k in ("images", "inverse_images") for w in aut.get(k, []) if isinstance(w, list)]
        if words:
            word = data.draw(st.sampled_from(words))
            letter = data.draw(st.integers(-5, 5) | st.sampled_from([10**6, -(10**9)]))
            if word and data.draw(st.booleans()):
                word[data.draw(st.integers(0, len(word) - 1))] = letter
            else:
                word.append(letter)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["sigma11", "sigma12"]), st.data())
def test_fuzzed_configs_exit_cleanly(name, data):
    # mutated builtin catalogs: the parser raises ValueError or returns,
    # and every command exits 0, 1 or 2 with no traceback
    from openbook.surface import catalog_from_json, catalog_to_json, load_builtin

    obj = json.loads(catalog_to_json(*load_builtin(name)))
    if data.draw(st.booleans()):
        del obj["boundary_words"]
    for _ in range(data.draw(st.integers(0, 3))):
        _mutate(obj, data)
    text = json.dumps(obj)
    try:
        catalog_from_json(text)
    except ValueError:
        pass
    word = data.draw(st.sampled_from(["a b", "d", "a^-2 d1 g"]))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "page.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        for argv in (
            ["validate", "--config", path],
            ["h1", "--config", path, "--word", word],
            ["eval", "--config", path, "--word", word, "--json"],
        ):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            assert code in (0, 1, 2), argv
            assert "Traceback" not in err.getvalue() and len(err.getvalue().splitlines()) <= 1


def test_huge_signature_configs(tmp_path, capsys):
    # 10^5 boundary components parse in linear time (the abelianisation
    # check once summed every boundary word into its own length-m vector)
    path = tmp_path / "huge.json"
    a = {"name": "a", "h": [1, 0], "q": [0, 1], "p": [0, 1]}
    path.write_text(json.dumps({"genus": 1, "boundary": 10**5, "curves": [a]}))
    code, out, err = run(capsys, "validate", "--config", str(path))
    assert (code, err) == (1, "")
    assert out.startswith("structure: FAIL (curve a: vectors have length 2, want 100001)\n")


def test_help_and_unknown(capsys):
    code, _, err = run(capsys)
    assert code == 1 and "Subcommands:" in err
    code, _, err = run(capsys, "-h")
    assert code == 0 and "Exit codes:" in err
    code, _, err = run(capsys, "bogus")
    assert code == 1 and err == "error: unknown subcommand 'bogus'\n"
    code, _, err = run(capsys, "cf", "-5/4", "--frobnicate")
    assert code == 1 and "unknown flag" in err


# the message of each subcommand given no arguments at all
_BARE = {
    "cf": "expected 1 positional argument(s), got 0",
    "surgery": "surgery needs --K and --r",
    "h1": "need exactly one of --surface and --config",
    "eval": "need exactly one of --surface and --config",
    "equal": "need exactly one of --surface and --config",
    "search": "search needs --target and --alphabet",
    "seifert": "seifert needs --e0 and --rs",
    "kirby": "kirby needs --coefficients",
    "validate": "need exactly one of --surface and --config",
}
# one malformed use of each integer flag, the other arguments valid
_BAD_INTEGER = {
    "--e0": "seifert --e0 x --rs 1/2,1/3,1/4",
    "--max-length": "search --surface sigma11 --target a --alphabet a --max-length x",
    "--n": "surgery --surface sigma11 --word a --K 1 --r 5 --n x",
}


def _error_cases():
    """(argv, message) for malformed input: the usage errors of every
    command-table row, then the integer, rational, link and config ones."""
    cases = []
    for command, (_, flags, _, _) in cli._COMMANDS.items():
        cases.append(([command], _BARE[command]))
        cases.append(([command, "--bogus"], "unknown flag --bogus"))
        for flag in ("--json", *cli._VALUELESS.intersection(flags)):
            cases.append(([command, flag, flag], f"flag {flag} given twice"))
        valued = [f for f in flags if f not in cli._VALUELESS]
        if valued:
            cases.append(([command, valued[0]], f"flag {valued[0]} needs a value"))
    cases += [(argv.split(), "bad integer 'x'") for argv in _BAD_INTEGER.values()]
    cases += [
        # a missing flag is reported before the page is read
        ("search --surface bogus --alphabet a".split(), "search needs --target and --alphabet"),
        ("search --surface sigma11 --target a --alphabet a --max-length 1 --max-length 2".split(),
         "flag --max-length given twice"),
        ("seifert --e0 -1 --rs 1/2,1/3".split(), "--rs takes three comma-separated rationals"),
        ("kirby --coefficients 1,2 --link 1-2".split(), "bad --link '1-2'; expected i-j:lk"),
        ("h1 --config MISSING".split(), "cannot read config MISSING: "),
        ("validate --config MISSING".split(), "cannot read config MISSING: "),
    ]
    return cases


_ERROR_CASES = _error_cases()


@pytest.mark.parametrize(
    "argv, message", _ERROR_CASES, ids=[" ".join(a) for a, _ in _ERROR_CASES]
)
def test_error_contract(argv, message, tmp_path, capsys):
    # every malformed command line exits 1 with nothing on stdout and one
    # line on stderr
    missing = str(tmp_path / "missing.json")
    argv = [missing if a == "MISSING" else a for a in argv]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: " + message.replace("MISSING", missing))
    assert len(err.splitlines()) == 1 and err.endswith("\n")


def test_help_matches_the_command_table():
    # the -h text lists the table's subcommands in order and names the
    # valueless, repeatable and integer flags exactly
    doc = cli.__doc__
    assert re.findall(r"^    (\S+)  ", doc, re.M) == list(cli._COMMANDS)
    for sentence, group in (
        (r"All flags take a value except (.*?);", cli._VALUELESS),
        (r"no flag may be given twice except (.*?)\.", cli._REPEATABLE),
        (r"([^.]*) take integers", cli._INTEGER),
    ):
        named = re.search(sentence, doc, re.S).group(1)
        assert set(re.findall(r"--[\w-]+", named)) == group
    used = {"--json"}.union(*(row[1] for row in cli._COMMANDS.values()))
    assert cli._VALUELESS | cli._REPEATABLE | cli._INTEGER <= used
    assert set(_BAD_INTEGER) == cli._INTEGER


def test_installed_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "openbook.cli", "cf", "-5/4"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "[-3+1, -2, -2, -2]^-\n"
