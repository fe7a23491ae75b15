"""Import hygiene: no package or test module imports a name it never uses,
every public name has a caller outside tests, no process loads scipy until
it solves a kernel-ridge system, and the network's forward pass, a cell's
fit-and-score, a tuning grid's completion, the record CSV, the
kernel-ridge solve and the RBF kernel's exp each have one home."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "ngdbench"


def public_names(source):
    """The names in a module source's __all__."""
    for node in ast.parse(source).body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
            return ast.literal_eval(node.value)
    return []


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
    used.update(public_names(source))
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
    "path",
    sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    + sorted((REPO / "tests").glob("*.py")),
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


def uncalled_public_names(package, callers):
    """`module.name` of each __all__ entry of the `package` sources (module
    name -> source) that no code reads: neither another part of the package
    (a read inside the name's own top-level def or class does not count)
    nor a `callers` source.  Reads are matched by identifier; imports and
    __all__ entries are not reads."""
    readers = {}  # name -> {(module, top-level definition or None)}
    for module, source in [*package.items(),
                           *((None, src) for src in callers)]:
        for top in ast.parse(source).body:
            where = (module, getattr(top, "name", None))
            for node in ast.walk(top):
                if isinstance(node, (ast.Name, ast.Attribute)):
                    name = getattr(node, "id", getattr(node, "attr", None))
                    readers.setdefault(name, set()).add(where)
    return sorted(f"{module}.{name}" for module, source in package.items()
                  for name in public_names(source)
                  if not readers.get(name, set()) - {(module, name)})


def test_public_name_checker_flags_names_only_tests_read():
    package = {"linear": ("__all__ = ['fit', 'load', 'walk']\n"
                          "def fit(data):\n    return data\n"
                          "def load(path):\n    return load(path)\n"
                          "def walk(tree):\n    return walk(tree)\n"),
               "sweep": ("from .linear import fit, load\n"
                         "__all__ = ['run']\n"
                         "def run(cell):\n    return fit(cell)\n")}
    demo = "from ngdbench import sweep, linear\nsweep.run(linear.walk)\n"
    assert uncalled_public_names(package, [demo]) == ["linear.load"]


# reference paths that only tests need belong in tests/oracles.py
def test_every_public_name_has_a_caller():
    package = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")
               if p.name != "__init__.py"}
    callers = [p.read_text() for folder in ("bench", "demos")
               for p in (REPO / folder).rglob("*.py")]
    assert uncalled_public_names(package, callers) == []


# the functions that may use the in-place logistic kernel: the elementwise
# logistic, the hidden layer that eval_network and the feature kernels share,
# and the one gradient closure of loss_grad, step and run_chain
LOGISTIC_USERS = {"model.sigmoid", "model.hidden_layer", "ngd._gradient"}


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
# tune, say, could refit its best combination with fit_estimator).
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
    linear = ("def tune(kind, data):\n"
              "    return fit_estimator(kind, data, best)\n")
    assert cell_fit_copies("linear", linear) == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_one_cell_fit(path):
    assert cell_fit_copies(path.stem, path.read_text()) == []


# the one caller that completes a grid from a dataset's defaults: tune lays
# the caller's grid over default_grid(kind, data), so no other code builds
# the grid tune scores
GRID_COMPLETER = "linear.tune"


def grid_completions(module, source):
    """(line, top-level definition) of each default_grid call outside
    GRID_COMPLETER that passes a dataset (a second argument or data=), in
    the source of package module `module`."""
    found = []
    for top in ast.parse(source).body:
        where = module
        if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            where = f"{module}.{top.name}"
        for node in ast.walk(top):
            if not isinstance(node, ast.Call) or where == GRID_COMPLETER:
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            with_data = len(node.args) > 1 or any(kw.arg == "data"
                                                  for kw in node.keywords)
            if name == "default_grid" and with_data:
                found.append((node.lineno, where))
    return sorted(found)


def test_grid_completion_checker_flags_every_other_caller():
    # config's grid_for before tune completed its own grid, and a sweep
    # that completes the grid itself
    config = ("class ExperimentConfig:\n"
              "    def grid_for(self, kind, data=None):\n"
              "        grid = default_grid(kind, data)\n"
              "def _parser(key):\n"
              "    return key in default_grid(key)\n")
    assert grid_completions("config", config) == [
        (3, "config.ExperimentConfig")]
    sweep = ("GRID = linear.default_grid('knn', data=None)\n"
             "def fit_cell(cfg, cell, estimator):\n"
             "    return tune(estimator, cell.data, default_grid(estimator,"
             " cell.data))\n")
    assert grid_completions("sweep", sweep) == [(1, "sweep"),
                                                (3, "sweep.fit_cell")]
    linear = ("def tune(kind, data, grid=None):\n"
              "    grid = {**default_grid(kind, data), **(grid or {})}\n"
              "def check_grid(kind, grid):\n"
              "    return default_grid(kind)\n")
    assert grid_completions("linear", linear) == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_one_grid_completion(path):
    assert grid_completions(path.stem, path.read_text()) == []


# the record CSV of cell files and results.csv has one home: only sweep
# spells its header or its failure line, so one writer and one reader serve
# both kinds of file
RECORD_FORMAT_HOME = "sweep"
RECORD_FORMAT_MARKS = ("estimator,n,seed", "# failed: ")


def record_format_copies(module, source):
    """(line, mark) of each RECORD_FORMAT_MARKS string in the source of
    package module `module`, unless it is RECORD_FORMAT_HOME."""
    if module == RECORD_FORMAT_HOME:
        return []
    return [(lineno, mark)
            for lineno, line in enumerate(source.splitlines(), start=1)
            for mark in RECORD_FORMAT_MARKS if mark in line]


def test_record_format_checker_flags_copies():
    # risk's CSV functions and a second failed-cell reader
    risk = ('CSV_HEADER = "estimator,n,seed,excess_risk,stderr,wall_ms"\n'
            "def load_records(path):\n"
            "    return path\n")
    assert record_format_copies("risk", risk) == [(1, "estimator,n,seed")]
    cli = ("def failed_cells(path):\n"
           "    return path.read_text().startswith('# failed: ')\n")
    assert record_format_copies("cli", cli) == [(2, "# failed: ")]
    assert record_format_copies("sweep", risk + cli) == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_one_record_format(path):
    assert record_format_copies(path.stem, path.read_text()) == []


# the kernel-ridge solve has one caller: _krr_fit, the fit that
# fit_estimator and tune's per-fold refit share, so no CV path solves a
# training fold of its own
SOLVE_CALLER = "linear._krr_fit"


def solve_copies(module, source):
    """(line, top-level definition) of each read of `_solve_regularized`
    (a call, or the name passed on) outside SOLVE_CALLER, in the source of
    package module `module`."""
    found = []
    for top in ast.parse(source).body:
        where = module
        if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            where = f"{module}.{top.name}"
        for node in ast.walk(top):
            name = getattr(node, "id", getattr(node, "attr", None))
            if (name == "_solve_regularized" and where != SOLVE_CALLER
                    and isinstance(node, (ast.Name, ast.Attribute))):
                found.append((node.lineno, where))
    return sorted(found)


def test_solve_checker_flags_every_other_caller():
    # the per-fold CV scorer before tune refit folds through _krr_fit, and
    # a solve handed on by name
    linear = ("def _solve_regularized(K, ridge, y):\n"
              "    return K\n"
              "def _krr_fit(kind, kernel, data, ridge):\n"
              "    coef = _solve_regularized(G, ridge, data.y)\n"
              "def _fold_sq_err(D, position, kern, ridge, data, masks):\n"
              "    for tr, va in masks:\n"
              "        coef = _solve_regularized(Ktr, ridge, data.y[tr],\n"
              "                                  np.empty_like(Ktr))\n"
              "SOLVE = linear._solve_regularized\n")
    assert solve_copies("linear", linear) == [(7, "linear._fold_sq_err"),
                                              (9, "linear")]
    sweep = ("def fit_cell(cfg, cell, estimator):\n"
             "    return partial(_solve_regularized, ridge=1e-3)\n")
    assert solve_copies("sweep", sweep) == [(2, "sweep.fit_cell")]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_one_solve_caller(path):
    assert solve_copies(path.stem, path.read_text()) == []


# the RBF kernel's exp of squared distances has three readers: the kernel's
# own gram, through which every fit and tune's CV form their grams, and
# the two predictors that exp one block of distances at a time
EXP_READERS = {"linear.RbfKernel.gram", "linear.KrrEstimator._blocks",
               "linear.nw_predict"}


def exp_copies(module, source):
    """(line, definition) of each read of `from_sq_dists` outside
    EXP_READERS, in the source of package module `module`.  A definition
    is a top-level function, a class's method (`Class.method`) or, for any
    other statement, the class or the module."""
    found = []
    for top in ast.parse(source).body:
        for member in top.body if isinstance(top, ast.ClassDef) else [top]:
            where = ".".join([module] + [
                n.name for n in ((top,) if member is top else (top, member))
                if hasattr(n, "name")])
            for node in ast.walk(member):
                name = getattr(node, "id", getattr(node, "attr", None))
                if (name == "from_sq_dists" and where not in EXP_READERS
                        and isinstance(node, (ast.Name, ast.Attribute))):
                    found.append((node.lineno, where))
    return sorted(found)


def test_exp_checker_flags_every_other_reader():
    # the CV's block writer before each gram was formed by the kernel's
    # gram, and an exp handed on by name
    linear = ("class RbfKernel:\n"
              "    def from_sq_dists(self, sq, out=None):\n"
              "        return sq\n"
              "    def gram(self, X, Z):\n"
              "        return self.from_sq_dists(_sq_dists(X, Z))\n"
              "def _gram_block(D, kern, ridge):\n"
              "    def block(r0, r1, c0, c1, out):\n"
              "        kern.from_sq_dists(D[c0:c1, r0:r1], out=out.T)\n"
              "    return block\n"
              "def nw_predict(data, bandwidth, x):\n"
              "    return kern.from_sq_dists(sq)\n"
              "EXP = RbfKernel.from_sq_dists\n")
    assert exp_copies("linear", linear) == [(8, "linear._gram_block"),
                                            (12, "linear")]
    risk = ("class Mc:\n"
            "    def __call__(self, kern, sq):\n"
            "        return kern.from_sq_dists(sq)\n")
    assert exp_copies("risk", risk) == [(3, "risk.Mc.__call__")]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_one_exp_home(path):
    assert exp_copies(path.stem, path.read_text()) == []


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
    rows = est.read_text().split("dual_coef:\n")[1].splitlines()
    assert len(rows) == 16
