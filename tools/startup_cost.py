"""Time each README CLI example as a fresh process and list what it loads.

Every ``$ openbook ...`` example in README.md is run as
``python -m openbook.cli ...`` from the repository root, ``--reps``
times (default 5), and once more under ``-X importtime`` to read which
``openbook`` modules the process imports (``openbook.cli`` itself runs
as ``__main__`` and is not among them) and the import self-times of
those modules and of every other module, summed in milliseconds.  Wall
times include interpreter start-up and, without cached bytecode,
compiling every module loaded.

Run from the repository root:

    python3 tools/startup_cost.py [--reps N]

It prints one JSON line mapping each example's command line (without
the leading ``openbook``) to its median wall time in seconds
(``median_s``), its loaded modules (``modules``) and its import
self-time in ms (``import_ms``: ``openbook`` and ``other``).
"""

import argparse
import json
import os
import shlex
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def readme_commands() -> list[str]:
    """The README's CLI examples, continuation lines joined."""
    commands = []
    lines = iter((ROOT / "README.md").read_text(encoding="utf-8").splitlines())
    for line in lines:
        if line.startswith("$ openbook "):
            command = line[len("$ openbook "):]
            while command.endswith("\\"):
                command = command[:-1] + next(lines).strip()
            commands.append(command)
    return commands


def import_profile(argv: list[str], env: dict) -> tuple[list[str], dict]:
    """The ``openbook`` modules a run imports, and the import self-times
    in ms of those and of the rest, read from ``-X importtime``."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "openbook.cli", *argv],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    modules, self_us = [], {"openbook": 0, "other": 0}
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        us, _, name = line[len("import time:"):].split("|")
        if not us.strip().isdigit():  # the column header
            continue
        name = name.strip()
        ours = name.split(".")[0] == "openbook"
        if ours:
            modules.append(name)
        self_us["openbook" if ours else "other"] += int(us)
    return sorted(modules), {k: round(v / 1000, 2) for k, v in self_us.items()}


def wall_time(argv: list[str], env: dict) -> float:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "openbook.cli", *argv],
        cwd=ROOT, env=env, capture_output=True,
    )
    elapsed = time.perf_counter() - start
    if proc.returncode not in (0, 2):
        raise SystemExit(f"error: openbook {shlex.join(argv)} exited {proc.returncode}")
    return elapsed


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--reps", type=int, default=5)
    reps = parser.parse_args().reps
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = {}
    for command in readme_commands():
        argv = shlex.split(command)
        times = [wall_time(argv, env) for _ in range(reps)]
        modules, import_ms = import_profile(argv, env)
        result[command] = {
            "median_s": round(statistics.median(times), 4),
            "modules": modules,
            "import_ms": import_ms,
        }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
