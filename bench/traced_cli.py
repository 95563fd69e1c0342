"""Run the nullspan CLI with a timing span around every public layer function.

Usage:
    python3 bench/traced_cli.py SPANS_JSON -- CLI_ARGS...

Every function defined without a leading underscore in the traced modules
is wrapped, and the wrapper replaces the function under every name that
holds it in every loaded nullspan module: the package binds names with
``from .linalg import singular_values`` and similar, so patching only the
defining module would miss those callers. Spans stay in memory as
per-function aggregates (calls, self time) and are written to SPANS_JSON
when the command returns. Self time is a span's duration minus the time
covered by the spans it caused, so the self times of all functions add up
to the time covered by the outermost spans.

The wrappers also record counts that only the return values show:
dense bytes entering each factorization and the privacy optimizer's
iteration counts taken from ``objective_history``.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from functools import wraps

import numpy as np

from run import LAYERS

FACTORIZATIONS = ("linalg.singular_values", "linalg.svd", "linalg.smallest_eigenpair_gram")


def _count_dense_bytes(counters, args, result):
    rows, cols = args[0].shape
    counters["linalg.dense_bytes"] += rows * cols * 8


def _count_iterations(counters, args, result):
    history = result.objective_history
    counters["privacy.iterations"] += len(history)
    if len(history):
        counters["privacy.useful_iterations"] += 1 + int(np.argmax(history))


OBSERVERS = {name: _count_dense_bytes for name in FACTORIZATIONS}
OBSERVERS["privacy.maximize_dissimilarity"] = _count_iterations


class Tracer:
    """Per-function call counts and self time for the wrapped functions."""

    def __init__(self):
        self.functions: dict[str, list] = {}
        self.counters = {"linalg.dense_bytes": 0, "privacy.iterations": 0,
                         "privacy.useful_iterations": 0}
        self._open: list[float] = []

    def wrap(self, name, fn):
        stats = self.functions.setdefault(name, [0, 0.0])
        observe = OBSERVERS.get(name)
        open_spans = self._open
        counters = self.counters
        clock = time.perf_counter

        @wraps(fn)
        def span(*args, **kwargs):
            open_spans.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                covered = open_spans.pop()
                stats[0] += 1
                stats[1] += elapsed - covered
                if open_spans:
                    open_spans[-1] += elapsed
            if observe is not None:
                observe(counters, args, result)
            return result

        return span

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"nullspan.{layer}")
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not attr.startswith("_")):
                    wrappers[obj] = self.wrap(f"{layer}.{attr}", obj)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "nullspan" and not mod_name.startswith("nullspan."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(module, attr, wrappers[obj])

    def to_json(self) -> dict:
        return {
            "functions": {name: {"calls": calls, "self_s": self_s}
                          for name, (calls, self_s) in sorted(self.functions.items())},
            "counters": self.counters,
        }


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    spans_path, cli_args = argv[0], argv[2:]
    import nullspan.cli

    tracer = Tracer()
    tracer.install()
    code = nullspan.cli.main(cli_args)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.to_json(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
