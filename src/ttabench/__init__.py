"""Test-time adaptation toolkit and benchmark harness for CTC speech models.

Import names from the module that defines them, e.g.
``from ttabench.engine.runner import run_experiment``.
"""

__version__ = "0.1.0"
