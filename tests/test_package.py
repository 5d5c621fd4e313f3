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


LOADED = "import sys; print(*sorted(m[9:] for m in sys.modules if m.startswith('openbook.')))"


def test_import_loads_only_the_layers_read():
    assert fresh("import openbook; " + LOADED) == []
    loaded = fresh("import openbook; from openbook import mcg; " + LOADED)
    assert "mcg" in loaded
    assert not {"factorsearch", "kirby", "surgery", "cli"} & set(loaded)


@pytest.mark.parametrize(
    "argv, absent",
    [
        (["search", "--surface", "sigma12", "--target", "d1 d2 e^2",
          "--alphabet", "s1,s2,s3", "--max-length", "3"], {"kirby", "surgery"}),
        (["h1", "--surface", "sigma12", "--word", "a b g^-1 d1 d2^4"],
         {"kirby", "surgery", "factorsearch"}),
        (["cf", "-5/4"], {"mcg", "surface", "surgery", "factorsearch"}),
        (["seifert", "--e0", "-1", "--rs", "1/2,1/3,1/4"],
         {"mcg", "surface", "surgery", "factorsearch"}),
        (["kirby", "--coefficients", "2,-1", "--link", "1-2:3"],
         {"mcg", "surface", "surgery", "factorsearch"}),
    ],
    ids=["search", "h1", "cf", "seifert", "kirby"],
)
def test_cli_commands_load_only_their_layers(argv, absent):
    loaded = fresh(f"from openbook import cli; cli.main({argv!r}); " + LOADED)
    assert "cli" in loaded
    assert not absent & set(loaded)


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
