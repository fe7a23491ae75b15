"""Import hygiene: no package module imports a name it never uses, no
process loads scipy until it solves a kernel-ridge system, and the network's
forward pass and a cell's fit-and-score each have one home."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ngdbench.linear import load_estimator

REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "ngdbench"


def unused_imports(source):
    """(line, name) of every imported name the module never reads.

    A name counts as read when it appears as an identifier anywhere in the
    module (annotations included) or is listed in __all__.  __future__
    imports are exempt.
    """
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_checker_flags_unused_and_accepts_used():
    source = ("from __future__ import annotations\n"
              "import os\n"
              "import scipy.linalg\n"
              "from math import pi, tau\n"
              "from json import dumps\n"
              "__all__ = ['dumps']\n"
              "x: tau = scipy.linalg.norm([pi])\n")
    assert unused_imports(source) == [(2, "os")]


# __init__.py re-exports the public API, so its imports are exempt
@pytest.mark.parametrize(
    "path", sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"),
    ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


# unused_imports counts every __all__ entry as read, so a name deleted from a
# module but left in its __all__ would pass it unnoticed
@pytest.mark.parametrize(
    "path", sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"),
    ids=lambda p: p.name)
def test_all_names_are_defined(path):
    module = importlib.import_module(f"ngdbench.{path.stem}")
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


# the functions that may use the in-place logistic kernel: the elementwise
# logistic, the hidden layer that eval_network and the feature kernels share,
# and the chain's fused gradient loop
LOGISTIC_USERS = {"model.sigmoid", "model.hidden_layer", "ngd._GradKernel"}


def forward_pass_copies(module, source):
    """(line, top-level definition) of each use of `_neg_logistic` outside
    LOGISTIC_USERS and each call of a `.activation(` method, in the source
    of package module `module`."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            inner = where
            if where == module and isinstance(
                    child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{module}.{child.name}"
            name = getattr(child, "id", getattr(child, "attr", None))
            if (name == "_neg_logistic"
                    and isinstance(child, (ast.Name, ast.Attribute))
                    and inner not in LOGISTIC_USERS):
                found.append((child.lineno, inner))
            if (isinstance(child, ast.Call)
                    and isinstance(child.func, ast.Attribute)
                    and child.func.attr == "activation"):
                found.append((child.lineno, inner))
            visit(child, inner)

    visit(ast.parse(source), module)
    return found


def test_forward_pass_checker_flags_copies():
    source = ("from .model import _neg_logistic\n"
              "def hidden_layer(X1, VT):\n"
              "    return _neg_logistic(X1 @ VT)\n"
              "class Predictor:\n"
              "    def __call__(self, v):\n"
              "        return model._neg_logistic(v)\n"
              "def features(cfg, m, z):\n"
              "    fn = _neg_logistic\n"
              "    return cfg.activation(m, z)\n")
    assert forward_pass_copies("model", source) == [
        (6, "model.Predictor"), (8, "model.features"), (9, "model.features")]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_one_forward_pass(path):
    assert forward_pass_copies(path.stem, path.read_text()) == []


# the calls that fit and score a cell, by the module that defines each: only
# sweep.fit_cell makes them, so the sweep and the train/fit commands report
# one figure per cell.  A defining module may call its own name (linear's
# load_estimator refits a saved local estimator with fit_estimator).
CELL_CALLS = {"run_chain": "ngd", "tune": "linear", "fit_estimator": "linear",
              "excess_risk_mc": "risk"}
CELL_FITTER = "sweep.fit_cell"


def cell_fit_copies(module, source):
    """(line, top-level definition) of each call of a CELL_CALLS name outside
    CELL_FITTER and the name's own module, in the source of package module
    `module`."""
    found = []
    for top in ast.parse(source).body:
        where = module
        if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            where = f"{module}.{top.name}"
        for node in ast.walk(top):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if CELL_CALLS.get(name, module) != module and where != CELL_FITTER:
                found.append((node.lineno, where))
    return sorted(found)


def test_cell_fit_checker_flags_every_other_caller():
    # the call sites of the CLI and the sweep before fit_cell served both
    cli = ("from .ngd import run_chain\n"
           "from .risk import excess_risk_mc\n"
           "def _cmd_train(cfg, args):\n"
           "    result = run_chain(cfg.schedule, ngd, cell.data)\n"
           "    mc = excess_risk_mc(teacher, result.averaged_predictor())\n"
           "def _cmd_fit(cfg, args):\n"
           "    tuned, est = fit_baseline(cfg, cell, kind)\n"
           "    mc = excess_risk_mc(teacher, est, n_test=cfg.risk_n_test)\n")
    assert cell_fit_copies("cli", cli) == [
        (4, "cli._cmd_train"), (5, "cli._cmd_train"), (8, "cli._cmd_fit")]
    sweep = ("def fit_baseline(cfg, cell, kind):\n"
             "    tuned = tune(kind, cell.data, grid=grid)\n"
             "    return tuned, fit_estimator(kind, cell.data, tuned.params)\n"
             "def run_cell(cfg, teacher, estimator, n, replicate):\n"
             "    predictor = ngd.run_chain(cfg.schedule, cell.ngd, cell.data)\n"
             "    mc = excess_risk_mc(teacher, predictor)\n"
             "def fit_cell(cfg, cell, estimator):\n"
             "    fitted = run_chain(cfg.schedule, cell.ngd, cell.data)\n"
             "    return excess_risk_mc(cell.teacher, fitted)\n")
    assert cell_fit_copies("sweep", sweep) == [
        (2, "sweep.fit_baseline"), (3, "sweep.fit_baseline"),
        (5, "sweep.run_cell"), (6, "sweep.run_cell")]
    linear = ("def load_estimator(path):\n"
              "    return fit_estimator(kind, data, header)\n")
    assert cell_fit_copies("linear", linear) == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_one_cell_fit(path):
    assert cell_fit_copies(path.stem, path.read_text()) == []


def fresh_run(code):
    """stdout of `code` run by a fresh interpreter that imports the package
    from this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True, cwd=REPO).stdout


# prints the loaded scipy modules after `code` ran
LOADED_SCIPY = ("\nprint(' '.join(m for m in sys.modules"
                " if m.split('.')[0] == 'scipy'))")


def test_cli_import_skips_scipy_integrate_and_optimize():
    """Importing the CLI in a fresh interpreter loads no scipy module at all:
    scipy.linalg is imported by the kernel-ridge solve, on first use."""
    out = fresh_run("import sys, ngdbench.cli" + LOADED_SCIPY)
    assert out.split() == []


def test_cli_import_skips_the_process_pool():
    """Importing the CLI in a fresh interpreter loads neither the process
    pool nor multiprocessing: only a sweep on more than one worker does."""
    out = fresh_run("import sys, ngdbench.cli\n"
                    "print(' '.join(m for m in ('concurrent.futures.process',"
                    " 'multiprocessing') if m in sys.modules))")
    assert out.split() == []


# a small run: the ngd chain and a krr-rbf baseline
SMALL_CFG = ("schedule.d = 1\nschedule.alpha2 = 1\nnoise.bound = 0.1\n"
             "ngd.eta = 0.25\nngd.budget = 2\nbaselines = krr-rbf\n"
             "tune.folds = 4\nsweep.n_values = 16, 32\nrisk.n_test = 200\n")


@pytest.mark.parametrize("argv", [
    ["check", "configs/comparison.cfg"],
    ["report", "configs/comparison.cfg", "--records",
     "results/comparison/results.csv", "--out", "{tmp}"],
    ["lemma", "configs/comparison.cfg", "--out", "{tmp}/lemma.csv"],
    ["train", "{tmp}/run.cfg", "--out", "{tmp}/kept.txt", "--n", "8"]],
    ids=["check", "report", "lemma", "train"])
def test_commands_without_kernel_ridge_load_no_scipy(argv, tmp_path):
    (tmp_path / "run.cfg").write_text(SMALL_CFG)
    argv = [a.format(tmp=tmp_path) for a in argv]
    out = fresh_run("import sys\nfrom ngdbench.cli import main\n"
                    f"assert main({argv!r}) == 0" + LOADED_SCIPY)
    assert out.splitlines()[-1].split() == []


def test_kernel_ridge_fit_loads_scipy_linalg(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SMALL_CFG)
    est = tmp_path / "krr.txt"
    out = fresh_run("import sys\nfrom ngdbench.cli import main\n"
                    f"assert main(['fit', {str(cfg)!r}, '--estimator',"
                    f" 'krr-rbf', '--n', '16', '--out', {str(est)!r}]) == 0"
                    + LOADED_SCIPY)
    assert "scipy.linalg" in out.splitlines()[-1].split()
    assert load_estimator(est).dual_coef.shape == (16,)
