"""Every module of the package imports on its own, with no other module loaded first,
every name the benchmark's tracer wraps still exists at its module path, and every
error class earns its place."""

from __future__ import annotations

import ast
import builtins
import importlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import ttabench
from ttabench.corpus.audio import Waveform

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


def test_benchmark_tracer_installs_and_uninstalls(tmp_path, monkeypatch):
    # perfbench/layers.py wraps functions by module path and name, so a rename
    # in the package fails here with AttributeError
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]))
    layers = importlib.import_module("perfbench.layers")
    tracer = importlib.import_module("perfbench.tracer").Tracer(tmp_path / "spans")
    from ttabench import analysis, cli, evaluation
    from ttabench.model.reference import ReferenceModel, build_reference_model
    from ttabench.objectives import make_loss_functional

    originals = [cli.cmd_analyze, cli.cmd_report, evaluation.build_delta_table, analysis.project_2d]
    methods = [ReferenceModel.forward, ReferenceModel.gradient]
    model = build_reference_model(seed=0)
    wave = Waveform(samples=np.zeros(400), sample_rate_hz=16000)
    try:
        layers.install(tracer)
        wrapped = [cli.cmd_analyze, cli.cmd_report, evaluation.build_delta_table, cli.project_2d]
        assert all(w is not o for w, o in zip(wrapped, originals))
        # one traced call through each wrapped model method, with the arguments
        # the benchmark's counters read
        tracer.active = True
        model.forward(wave)
        model.gradient(wave, make_loss_functional("suta"))
    finally:
        tracer.active = False
        tracer.uninstall()
    spans = {s["name"]: s for s in tracer.collect()}
    assert {"model.forward", "model.gradient"} <= set(spans)
    assert spans["model.gradient"]["frames"] == model.output_length(400)
    assert [ReferenceModel.forward, ReferenceModel.gradient] == methods
    restored = [cli.cmd_analyze, cli.cmd_report, evaluation.build_delta_table, cli.project_2d]
    assert all(r is o for r, o in zip(restored, originals))


def test_cli_import_leaves_scipy_signal_unloaded():
    # scipy.signal is most of the CLI's cold start and only resampling needs it
    src = str(Path(ttabench.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-c", "import sys, ttabench.cli; print('scipy.signal' in sys.modules)"],
        capture_output=True, text=True, env=env, check=False,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_traced_gradient_is_one_span_whatever_its_helper_thread_runs(tmp_path, monkeypatch):
    # the helper thread runs only private functions: a wrapped one called there
    # would add a span to the stack the tracer shares between threads
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]))
    layers = importlib.import_module("perfbench.layers")
    tracer = importlib.import_module("perfbench.tracer").Tracer(tmp_path / "spans")
    from ttabench.model.reference import build_reference_model
    from ttabench.objectives import make_loss_functional

    model = build_reference_model(seed=0)
    wave = Waveform(samples=np.random.default_rng(0).normal(0.0, 0.1, 4000), sample_rate_hz=16000)
    loss_fn = make_loss_functional("sgem")
    try:
        layers.install(tracer)
        tracer.active = True
        model.gradient(wave, loss_fn)
    finally:
        tracer.active = False
        tracer.uninstall()
    spans = tracer.collect()
    gradient = [s for s in spans if s["name"] == "model.gradient"]
    assert len(gradient) == 1
    assert gradient[0]["parent"] is None
    assert [s["name"] for s in spans if s["parent"] == gradient[0]["id"]] == [
        "objectives.sgem_loss_and_grad"
    ]
    assert len(spans) == 2


def _class_bases(path: Path) -> dict[str, list[str]]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {
        node.name: [ast.unparse(b) for b in node.bases]
        for node in tree.body
        if isinstance(node, ast.ClassDef)
    }


def _names_in_except_clauses(root: Path) -> set[str]:
    names: set[str] = set()
    for path in root.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                names.update(
                    n.id if isinstance(n, ast.Name) else n.attr
                    for n in ast.walk(node.type)
                    if isinstance(n, (ast.Name, ast.Attribute))
                )
    return names


def test_every_error_class_is_a_family_or_caught_by_name():
    # a subclass that no except clause tells apart from its base only renames it
    src = Path(ttabench.__file__).resolve().parent
    caught = _names_in_except_clauses(src)
    builtin_errors = {
        name for name, obj in vars(builtins).items()
        if isinstance(obj, type) and issubclass(obj, BaseException)
    }
    loose = [
        name for name, bases in _class_bases(src / "errors.py").items()
        if "TtaBenchError" not in bases
        and name not in caught
        and not builtin_errors & set(bases)
    ]
    assert loose == []


def _private_definitions(tree: ast.AST) -> list[str]:
    return [
        node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not (node.name.startswith("__") and node.name.endswith("__"))
    ]


def test_every_private_helper_has_a_caller():
    # a private function, method or class that nothing in the package names is
    # dead: a leftover of the code that once called it
    src = Path(ttabench.__file__).resolve().parent
    defined: list[str] = []
    referenced: set[str] = set()
    for path in src.rglob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined.extend(_private_definitions(tree))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    assert len(defined) > 50
    assert sorted(set(defined) - referenced) == []
