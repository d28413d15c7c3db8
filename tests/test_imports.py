"""Every module of the package imports on its own, with no other module loaded first."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import ttabench

_IMPORT_EACH_ALONE = """
import importlib
import pkgutil
import sys

import ttabench

names = [m.name for m in pkgutil.walk_packages(ttabench.__path__, "ttabench.")]
for name in names:
    for loaded in [k for k in sys.modules if k == "ttabench" or k.startswith("ttabench.")]:
        del sys.modules[loaded]
    importlib.import_module(name)
print(len(names))
"""


def test_each_module_imports_alone():
    src = str(Path(ttabench.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_EACH_ALONE],
        capture_output=True, text=True, env=env, check=False,
    )
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) == len(list(Path(src, "ttabench").rglob("*.py"))) - 1
