"""What importing the package loads: scipy.optimize stays out of it."""

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
