import ast
import importlib
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
