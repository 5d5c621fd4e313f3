"""Lines of the openbook package that a pytest run never executes.

Runs pytest in this process under ``sys.settrace``, tracing only frames
whose code lives in ``src/openbook``, and prints one JSON line, last on
stdout, mapping each module (``openbook.cli``, ...) to the sorted line
numbers that hold code but never ran.  The executable lines of a module
are read from ``co_lines`` of every code object compiled from its
source, nested functions and classes included; the coverage package is
not needed.

Tests that run code in a subprocess (the demos, the tools, the CLI
start-up probes) are not traced, so lines reached only there are
reported as never executed.  The whole tier-1 suite under the tracer
took about 30 s on a shared 2-vCPU host, against about 8 s untraced.

Run from the repository root as the suite is run, so that the tests'
subprocesses find the package, with pytest's arguments (default ``-q``):

    PYTHONPATH=src python3 tools/line_coverage.py [PYTEST_ARGS...]

The exit code is pytest's.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "openbook"


def executable_lines(path: Path) -> set[int]:
    """The line numbers that hold instructions of the module's code."""
    lines, todo = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def main(argv: list[str]) -> int:
    import pytest

    prefix = str(PACKAGE) + "/"
    executed: dict[str, set[int]] = {}

    def local(frame, event, _arg):
        if event == "line":
            executed[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def global_(frame, _event, _arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        executed.setdefault(filename, set())
        return local

    sys.path.insert(0, str(ROOT / "src"))
    sys.settrace(global_)
    try:
        code = pytest.main(argv or ["-q"])
    finally:
        sys.settrace(None)
    missing = {
        "openbook" + ("" if path.stem == "__init__" else f".{path.stem}"):
            sorted(executable_lines(path) - executed.get(str(path), set()))
        for path in sorted(PACKAGE.glob("*.py"))
    }
    print(json.dumps(missing))
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
