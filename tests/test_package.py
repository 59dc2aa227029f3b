import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.mark.parametrize("name", ["concentration", "continuous", "lyapunov", "optimizers",
                                  "problems", "seeding", "stats"])
def test_every_name_in_all_exists(name):
    """Each public name is imported from its module; nothing else checks
    that the module defines what its ``__all__`` lists."""
    module = importlib.import_module(f"sgdmlab.{name}")
    assert len(set(module.__all__)) == len(module.__all__)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_importing_the_package_loads_no_module():
    code = ("import sys, sgdmlab; "
            "print(sorted(m for m in sys.modules if m == 'numpy' or m.startswith('sgdmlab.')))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env, timeout=120).stdout
    assert out == "[]\n"
