"""The demos and the lantern derivation tool run end to end."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from openbook import surface

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
