"""What importing the package loads, scipy.optimize kept out of it, and
which of its modules import which."""

import ast
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def test_package_and_cli_import_no_scipy_optimize():
    # scipy.optimize costs every process about 0.25 s and 24 MB to import;
    # the boundary solve has its own Chandrupatla loop, so nothing needs it
    code = ("import sys, mellin_pricer, mellin_pricer.cli\n"
            "print('\\n'.join(sorted(m for m in sys.modules\n"
            "                        if m.startswith('scipy.optimize'))))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120,
                          check=True)
    assert done.stdout.split() == []


def _imports(name):
    """(module imported, inside a function) for each import in ``name``."""
    tree = ast.parse((SRC / "mellin_pricer" / f"{name}.py").read_text())
    nested = {id(node) for fn in ast.walk(tree)
              if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
              for node in ast.walk(fn)}
    return [(node.module if isinstance(node, ast.ImportFrom)
             else node.names[0].name, id(node) in nested)
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))]


def test_boundary_and_oracles_import_at_module_level_without_a_cycle():
    # mellin_core <- boundary <- fft_pricer <- oracles: the boundary reads
    # no pricer, and nothing needs an import deferred to call time
    assert not {"oracles", "fft_pricer"} & {
        module for module, _ in _imports("boundary")}
    for name in ("boundary", "oracles"):
        assert not [module for module, nested in _imports(name) if nested]
