"""Every function the benchmark's tracer wraps exists in the package.

``perfbench/tracing.py`` looks each (module, name) pair of its ``TRACED``
table up by name when a traced run starts, so removing or renaming one of
those functions makes every traced benchmark run fail.  The table is read
from the source with ``ast``, without importing the benchmark.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def traced_names():
    tree = ast.parse(TRACING.read_text(), filename=str(TRACING))
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "TRACED"
                        for t in node.targets)):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED table in {TRACING}")


def test_table_is_not_empty():
    assert len(traced_names()) > 0


@pytest.mark.parametrize("module,name", traced_names())
def test_traced_function_exists(module, name):
    mod = importlib.import_module(f"mellin_pricer.{module}")
    assert callable(getattr(mod, name, None)), (
        f"mellin_pricer.{module}.{name} is traced by the benchmark but missing")
