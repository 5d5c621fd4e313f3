import os
import subprocess
import sys
from pathlib import Path

import pytest

import openbook

SRC = Path(__file__).resolve().parents[1] / "src"


def test_public_names_resolve():
    # every exported name is a real attribute, listed once
    names = openbook.__all__
    assert len(set(names)) == len(names)
    assert [name for name in names if not hasattr(openbook, name)] == []


def test_exports_are_listed_and_kept_once_read():
    assert set(openbook.__all__) <= set(dir(openbook))
    assert openbook.evaluate is vars(openbook)["evaluate"]
    with pytest.raises(AttributeError):
        openbook.no_such_name


def fresh(code: str) -> list[str]:
    """Run ``code`` in a fresh interpreter (this one has loaded every
    module already); its last output line, split on spaces."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1].split()


# standard modules that no layer needs at import: the value classes are
# built without dataclasses (which loads inspect), and json and fractions
# are imported where they are used
STDLIB = ("dataclasses", "inspect", "json", "fractions")
LOADED = (
    "import sys; print(*sorted(m[9:] for m in sys.modules if m.startswith('openbook.')), "
    f"*[m for m in {STDLIB!r} if m in sys.modules])"
)


def test_import_loads_only_the_layers_read():
    assert fresh("import openbook; " + LOADED) == []
    loaded = fresh("import openbook; from openbook import mcg; " + LOADED)
    assert "mcg" in loaded
    assert not {"factorsearch", "kirby", "surgery", "cli"} & set(loaded)


def test_no_layer_loads_dataclasses():
    layers = sorted(p.stem for p in (SRC / "openbook").glob("[!_]*.py"))
    loaded = fresh("".join(f"import openbook.{layer}; " for layer in layers) + LOADED)
    assert set(layers) <= set(loaded)
    assert not {"dataclasses", "inspect"} & set(loaded)


# the modules the page-reading commands load only when they run them
MOVED = {"stabilisation", "catalog_json"}


@pytest.mark.parametrize(
    "argv, present, absent",
    [
        (["search", "--surface", "sigma12", "--target", "d1 d2 e^2",
          "--alphabet", "s1,s2,s3", "--max-length", "3"],
         {"surface", "mcg", "factorsearch"}, {"kirby", "surgery", "json", "fractions", *MOVED}),
        (["h1", "--surface", "sigma12", "--word", "a b g^-1 d1 d2^4"],
         {"surface", "mcg"}, {"kirby", "surgery", "factorsearch", "json", "fractions", *MOVED}),
        (["eval", "--surface", "sigma12", "--word", "a b"],
         {"surface", "mcg"}, {"kirby", "surgery", "factorsearch", "json", "fractions", *MOVED}),
        (["equal", "--surface", "sigma11", "--word1", "a b a", "--word2", "b a b"],
         {"surface", "mcg"}, {"kirby", "surgery", "factorsearch", "json", "fractions", *MOVED}),
        (["validate", "--surface", "sigma12"],
         {"surface"}, {"mcg", "kirby", "surgery", "factorsearch", "json", "fractions", *MOVED}),
        (["validate", "--config", "{config}"],
         {"surface", "catalog_json", "json"},
         {"mcg", "kirby", "surgery", "factorsearch", "stabilisation", "fractions"}),
        (["surgery", "--surface", "sigma11", "--word", "a b", "--K", "1", "--r", "-3"],
         {"surface", "mcg", "stabilisation", "surgery", "kirby"},
         {"factorsearch", "catalog_json", "json"}),
        (["cf", "-5/4"], {"kirby"}, {"mcg", "surface", "surgery", "factorsearch", *MOVED}),
        (["seifert", "--e0", "-1", "--rs", "1/2,1/3,1/4"],
         {"kirby"}, {"mcg", "surface", "surgery", "factorsearch", *MOVED}),
        (["kirby", "--coefficients", "2,-1", "--link", "1-2:3"],
         {"kirby"}, {"mcg", "surface", "surgery", "factorsearch", *MOVED}),
    ],
    ids=["search", "h1", "eval", "equal", "validate", "validate-config", "surgery",
         "cf", "seifert", "kirby"],
)
def test_cli_commands_load_only_their_layers(argv, present, absent, tmp_path):
    from openbook.surface import catalog_to_json, load_builtin

    config = tmp_path / "sigma12.json"
    config.write_text(catalog_to_json(*load_builtin("sigma12")), encoding="utf-8")
    argv = [str(config) if arg == "{config}" else arg for arg in argv]
    loaded = fresh(f"from openbook import cli; cli.main({argv!r}); " + LOADED)
    assert present | {"cli"} <= set(loaded)
    assert not (absent | {"dataclasses", "inspect"}) & set(loaded)


def test_surface_forwards_the_names_that_moved_out():
    # openbook.surface still reads stabilize and the JSON format, as the
    # same objects as in their new modules, and nothing else it lacks
    from openbook import catalog_json, stabilisation, surface

    assert surface.stabilize is stabilisation.stabilize is openbook.stabilize
    assert surface.catalog_to_json is catalog_json.catalog_to_json
    assert surface.catalog_from_json is catalog_json.catalog_from_json
    assert set(surface._MOVED) == {"stabilize", "catalog_to_json", "catalog_from_json"}
    message = "^module 'openbook.surface' has no attribute 'CarriedCatalog'$"
    with pytest.raises(AttributeError, match=message):
        surface.CarriedCatalog


@pytest.mark.parametrize(
    "first",
    [
        "import openbook.surgery",
        "import openbook.kirby",
        "from openbook import OpenBook, surgery",
        "import openbook; openbook.surgery; import openbook.surgery",
    ],
)
def test_surgery_is_the_function_in_every_import_order(first):
    # openbook.surgery is a submodule and an exported function; importing
    # the submodule must not rebind the package's name to the module
    code = (
        f"{first}; import sys, openbook; "
        "print(type(openbook.surgery).__name__, "
        "type(sys.modules['openbook.surgery']).__name__)"
    )
    assert fresh(code) == ["function", "module"]
