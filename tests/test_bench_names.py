"""The benchmark reports per-function spans by name (bench/run.py,
REPORTED_FUNCTIONS). A renamed or removed function would leave its span
silently empty, so every reported name must still be a function that the
tracer wraps: defined, without a leading underscore, in nullspan.<module>."""

import ast
import importlib
import inspect
from pathlib import Path

RUN_PY = Path(__file__).resolve().parent.parent / "bench" / "run.py"


def reported_functions() -> list[str]:
    # Read the literal without importing the benchmark script.
    for node in ast.parse(RUN_PY.read_text(encoding="utf-8")).body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "REPORTED_FUNCTIONS" for t in node.targets)):
            return [name for name, _ in ast.literal_eval(node.value)]
    raise AssertionError(f"no REPORTED_FUNCTIONS in {RUN_PY}")


def test_reported_functions_are_public_functions():
    names = reported_functions()
    missing = []
    for name in names:
        layer, attr = name.split(".")
        module = importlib.import_module(f"nullspan.{layer}")
        fn = getattr(module, attr, None)
        if (attr.startswith("_") or not inspect.isfunction(fn)
                or fn.__module__ != module.__name__):
            missing.append(name)
    assert names and not missing, missing
