"""The demos, the lantern derivation tool, the search cost tool, the
surgery depth tool, the start-up cost tool and the line coverage tool
run end to end."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from openbook import surface
from openbook.factorsearch import search_positive

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_script(path: Path) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(path)], cwd=ROOT, env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    run_script(demo)


def test_demo_03_relation_moves():
    # every move on the lantern word, in applicable_moves order
    out = run_script(ROOT / "demos" / "03_exact_classes_and_relations.py")
    assert out.splitlines()[-3:] == [
        "commute  at 0: d1 d2 e^2 -> d2 d1 e^2; class preserved: True",
        "commute  at 1: d1 d2 e^2 -> d1 e d2 e; class preserved: True",
        "lantern  at 0: d1 d2 e^2 -> s1 s2 s3; class preserved: True",
    ]


def test_derive_lantern_twists_matches_frozen_tables():
    out = run_script(ROOT / "tools" / "derive_lantern_twists.py")
    frozen = out.split("frozen solution")[1]
    # s2 is the tool's u and s3 its w in this relation order
    assert "relation order s1 s2 s3 = ('g', 'u', 'w')" in frozen
    lines = [line.strip() for line in frozen.splitlines() if "images:" in line][:4]
    assert lines == [
        f"images:         {surface._S2_IMAGES}",
        f"inverse images: {surface._S2_INVERSE}",
        f"images:         {surface._S3_IMAGES}",
        f"inverse images: {surface._S3_INVERSE}",
    ]


def test_search_cost_exhausts_every_target():
    # one search per target, without the tool's warm-up and timing
    spec = importlib.util.spec_from_file_location(
        "search_cost", ROOT / "tools" / "search_cost.py"
    )
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    lengths = {"a^14 b^-1": 13, "s2^7 s3^-1 a^7": 13, "a b g^-1 d1 g3^2 d3 d2": 6}
    problems = tool.problems()
    assert sorted(problems) == sorted(lengths)
    for name, length in lengths.items():
        outcome = search_positive(problems[name])
        assert tool.verdict(outcome) == (
            f"exhausted: no positive factorisation up to length {length}; "
            "no positive factorisation over this alphabet at any length"
        )
        assert outcome.certificate.nodes > 0


def test_surgery_depth_times_every_coefficient():
    out = run_script(ROOT / "tools" / "surgery_depth.py")
    seconds = json.loads(out)
    assert list(seconds) == ["-60", "-120", "-240", "-480"]
    assert all(isinstance(s, float) and s >= 0 for s in seconds.values())


def test_startup_cost_covers_every_readme_example():
    # one timed run per example; the keys are the README command lines
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "startup_cost.py"), "--reps", "1"],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert {command.split()[0] for command in result} == {
        "cf", "surgery", "h1", "eval", "equal", "search", "seifert", "kirby", "validate"
    }
    for entry in result.values():
        assert entry["median_s"] > 0
        assert entry["modules"][0] == "openbook"
        assert set(entry["import_ms"]) == {"openbook", "other"}
        assert entry["import_ms"]["openbook"] > 0 and entry["import_ms"]["other"] > 0
        assert isinstance(entry["no_cached_bytecode"], bool)
    assert result["cf -5/4"]["modules"] == [
        "openbook", "openbook._value", "openbook.homology", "openbook.kirby"
    ]
    package = ROOT / "src" / "openbook"
    assert result["cf -5/4"]["openbook_lines"] == sum(
        len((package / f"{stem}.py").read_text(encoding="utf-8").splitlines())
        for stem in ("__init__", "_value", "homology", "kirby", "cli")
    )
    if os.environ.get("PYTHONDONTWRITEBYTECODE") and not (package / "__pycache__").exists():
        assert all(entry["no_cached_bytecode"] for entry in result.values())


def test_line_coverage_reports_lines_never_run():
    # the README examples under the tracer: cli.main runs, and the check
    # of --rs, which no example trips, never does
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "line_coverage.py"),
         "-q", "-p", "no:cacheprovider", str(ROOT / "tests" / "test_readme.py")],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    missing = json.loads(proc.stdout.splitlines()[-1])
    package = ROOT / "src" / "openbook"
    assert set(missing) == {"openbook", "openbook._value"} | {
        f"openbook.{p.stem}" for p in package.glob("[!_]*.py")
    }
    source = (package / "cli.py").read_text(encoding="utf-8").splitlines()
    line = {text: next(i for i, s in enumerate(source, 1) if text in s)
            for text in ("command = args[0]", "--rs takes three")}
    assert line["command = args[0]"] not in missing["openbook.cli"]
    assert line["--rs takes three"] in missing["openbook.cli"]
