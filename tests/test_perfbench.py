import ast
import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_traced_functions_resolve():
    # perfbench/run.py --trace 1 wraps these by name and fails on a missing
    # one; read the table from the source so that nothing under perfbench/
    # is imported or written
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    traced = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(getattr(t, "id", None) == "TRACED" for t in node.targets)
    )
    assert traced
    for module, name in traced:
        mod = importlib.import_module(f"openbook.{module}")
        assert callable(getattr(mod, name, None)), f"openbook.{module}.{name}"


def test_benchmark_imports_resolve():
    # every `from openbook... import name` in the workloads and their
    # oracle must resolve, or every run of the workload fails; read the
    # source so that nothing under perfbench/ is imported or written
    checked = 0
    for path in (TRACING.with_name("workloads.py"), TRACING.with_name("oracle.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if not (
                isinstance(node, ast.ImportFrom)
                and (node.module or "").split(".")[0] == "openbook"
            ):
                continue
            mod = importlib.import_module(node.module)
            for alias in node.names:
                # `from package import submodule` imports the submodule
                found = hasattr(mod, alias.name) or (
                    hasattr(mod, "__path__")
                    and importlib.util.find_spec(f"{node.module}.{alias.name}")
                )
                assert found, f"{path.name}: from {node.module} import {alias.name}"
                checked += 1
    assert checked
