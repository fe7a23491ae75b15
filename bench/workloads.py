"""The three benchmark workloads and the correctness gate they share.

Every input comes from ``configs/comparison.cfg``.  A workload seed only
picks which replicates (0-9) each cell uses, so every computed cell has a
committed reference row in ``results/comparison/results.csv``; the gate
compares ``excess_risk`` and ``stderr`` with it at relative tolerance 1e-9.

Workloads:
  sampler    one ngd cell at n = 1024 (chain kernel) and two at n = 64
             (per-step overhead and snapshot-average risk), via run_cell.
  baselines  krr-rbf and knn cells at n = 256, 1024, 2048: CV Cholesky
             solves and chunked gram/distance prediction, no chain.
  pipeline   in-process ``ngdbench`` CLI: sweep (fresh cells), sweep again
             (pure resume), report, lemma.  The only workload that runs
             config, cli and lowerbound.

An op is one cell, one sweep, resume or report step, or one lemma build; a
mismatch, a failed cell or an exception fails it.
"""

from __future__ import annotations

import hashlib
import io
import math
import shutil
import statistics
import time
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from spans import ancestor_names, ancestors, self_times, total

REPLICATES = 10
RTOL = 1e-9
# Criterion 9: relative sup error of the bump approximation
LEMMA_REL_BOUND = 1e-2

SAMPLER_N = {"large": 1024, "small": 64, "repeats": 2}
BASELINE_N = (256, 1024, 2048)
PIPELINE_N = (64, 128, 256)
# the auto teacher width of the committed config: 2 * ceil(2048 ** (1/8))
PIPELINE_OVERRIDES = {"teacher.width": "6",
                      "sweep.n_values": ", ".join(map(str, PIPELINE_N))}
# reduced sizes for the self-test; the gate and every metric stay the same
TINY = {"sampler": {"large": 64, "small": 64, "repeats": 1},
        "baselines": (64, 64, 128),
        "pipeline_fresh": (64,),
        "lemma": {"lemma.quad_a": "64", "lemma.quad_b": "128",
                  "lemma.grid": "128"}}


def derive_seed(base, n, replicate, tag):
    """The sweep's seed rule, restated so reference lookup is independent."""
    text = f"{base}|{n}|{replicate}|{tag}"
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


def cell_file(est, n, replicate):
    return f"{est}-n{n:06d}-r{replicate:04d}.csv"


def read_rows(path):
    """Rows of a results CSV keyed by (estimator, n, seed)."""
    rows = {}
    with open(path) as fh:
        header = fh.readline().strip()
        if header != "estimator,n,seed,excess_risk,stderr,wall_ms":
            raise ValueError(f"{path}: unexpected header {header!r}")
        for line in fh:
            if line.strip():
                est, n, seed, risk, err, _ = line.strip().split(",")
                rows[(est, int(n), int(seed))] = (float(risk), float(err))
    return rows


def rel_diff(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


@dataclass
class Outcome:
    name: str
    error: str | None


class Bench:
    """Shared state of one benchmark process: inputs, reference, outcomes."""

    def __init__(self, root, work, tracer_factory, base_seed=0):
        from ngdbench import cli, config, lowerbound, model, ngd, sweep
        self.root = Path(root)
        self.work = Path(work)
        self.cli, self.lowerbound = cli, lowerbound
        self.model, self.ngd, self.sweep = model, ngd, sweep
        self.committed = self.root / "results" / "comparison"
        self.config_path = self.root / "configs" / "comparison.cfg"
        self.ref = read_rows(self.committed / "results.csv")
        self.tracer_factory = tracer_factory
        self.tracer = tracer_factory(False)
        self.base_seed = base_seed
        self.outcomes = []
        self.lemmas = []
        # (schedule, NgdConfig, dataset, final weights) of the largest-n
        # chain run so far, for the microloops
        self.chain = None
        self._dirs = 0
        with self.tracer.span("config.load_config"):
            self.cfg = config.load_config(self.config_path)
        self.teacher = sweep.resolve_teacher(self.cfg)

    # -- tracing ------------------------------------------------------------

    def install(self, record):
        """Fresh tracer with wrappers on the layer boundaries the program
        crosses inside a cell, a sweep and the CLI."""
        self.tracer.close()
        t = self.tracer = self.tracer_factory(record)
        sw, cl = self.sweep, self.cli

        def chain(args, kwargs, res):
            sched, ngd_cfg, data = args[:3]
            if self.chain is None or data.n >= self.chain[2].n:
                self.chain = (sched, ngd_cfg, data, res.weights)
            return {"n": args[2].n, "steps": int(args[1].k_max),
                    "width": int(args[1].width), "kept": int(res.kept.shape[0])}

        def risk(args, kwargs, res):
            pred = args[1]
            est = getattr(pred, "kind", "ngd")
            attrs = {"est": est, "n_test": int(res.n_test)}
            if est == "ngd":
                attrs["evals"] = int(len(pred.stack)) * int(res.n_test)
            return attrs

        def tuned(args, kwargs, res):
            return {"est": args[0], "n": args[1].n,
                    "cv_solves": len(res.table) * res.folds}

        t.wrap(sw, "run_cell", "sweep.run_cell",
               lambda a, k, r: {"est": a[2], "n": a[3]})
        t.wrap(sw, "generate_dataset", "data.generate_dataset")
        t.wrap(sw, "run_chain", "ngd.run_chain", chain)
        # ngd calls these once per kept snapshot, in the chain and in the
        # snapshot average inside risk; sigmoid runs every step, so it is
        # timed by its microloop only
        t.wrap(self.ngd, "eval_network", "model.eval_network")
        t.wrap(self.ngd, "hgamma_norm", "model.hgamma_norm")
        t.wrap(sw, "excess_risk_mc", "risk.excess_risk_mc", risk)
        t.wrap(sw, "tune", "linear.tune", tuned)
        t.wrap(sw, "fit_estimator", "linear.fit_estimator",
               lambda a, k, r: {"est": a[0], "n": a[1].n})
        t.wrap(cl, "load_config", "config.load_config")
        t.wrap(cl, "run_sweep", "sweep.run_sweep",
               lambda a, k, r: {"records": len(r)})
        t.wrap(cl, "report", "sweep.report")
        t.wrap(cl, "save_report", "sweep.save_report")
        t.wrap(cl, "build_bump_approx", "lowerbound.build_bump_approx",
               lambda a, k, r: self.lemmas.append(r) or {"atoms": r.n_atoms})
        t.wrap(cl, "save_approx_csv", "lowerbound.save_approx_csv")
        return t

    def close(self):
        self.tracer.close()

    def fresh_dir(self, label):
        self._dirs += 1
        d = self.work / f"{self._dirs:02d}-{label}"
        d.mkdir(parents=True)
        return d

    # -- gate ---------------------------------------------------------------

    def expected(self, est, n, replicate):
        seed = derive_seed(self.base_seed, n, replicate, "data")
        return seed, self.ref.get((est, n, seed))

    def check_values(self, est, n, replicate, risk, err):
        """None when (risk, stderr) match the committed row, else why not."""
        _, want = self.expected(est, n, replicate)
        if want is None:
            return f"{est} n={n} r={replicate}: no committed reference"
        dr, de = rel_diff(risk, want[0]), rel_diff(err, want[1])
        if dr > RTOL or de > RTOL:
            return (f"{est} n={n} r={replicate}: excess_risk rel diff {dr:.2e},"
                    f" stderr rel diff {de:.2e} > {RTOL:g}")
        return None

    def op(self, name, fn):
        """Run fn() -> (seconds, error or None) as one op; record it."""
        try:
            seconds, error = fn()
        except Exception as exc:  # any exception fails the op, not the run
            seconds, error = None, f"{type(exc).__name__}: {exc}"
        self.outcomes.append(Outcome(name, error))
        return seconds

    # -- ops ----------------------------------------------------------------

    def cell(self, est, n, replicate):
        """One sweep cell through sweep.run_cell, gated; returns seconds."""
        def go():
            start = time.perf_counter()
            records, failed = self.sweep.run_cell(self.cfg, self.teacher, est,
                                                  n, replicate)
            seconds = time.perf_counter() - start
            if failed is not None:
                return seconds, failed
            mine = [r for r in records if r.estimator == est]
            if len(mine) != 1:
                return seconds, f"{est} n={n}: {len(mine)} records"
            rec = mine[0]
            seed, _ = self.expected(est, n, replicate)
            if rec.seed != seed:
                return seconds, f"{est} n={n}: seed {rec.seed} != {seed}"
            return seconds, self.check_values(est, n, replicate,
                                              rec.excess_risk, rec.stderr)
        return self.op(f"cell {est} n={n} r={replicate}", go)

    def run_cli(self, argv):
        """In-process ``ngdbench`` call; returns (exit code, stdout, seconds)."""
        buf = io.StringIO()
        with self.tracer.span("cli.main", command=argv[0]):
            start = time.perf_counter()
            with redirect_stdout(buf):
                code = self.cli.main([str(a) for a in argv])
            seconds = time.perf_counter() - start
        return code, buf.getvalue(), seconds

    def prepare_sweep_dir(self, d, fresh, extra=None):
        """Config file plus an output dir holding the committed cells of
        every (estimator, n, replicate) not in ``fresh``."""
        text = pipeline_config_text(self.config_path.read_text(),
                                    dict(PIPELINE_OVERRIDES, **(extra or {})))
        cfg_path = d / "pipeline.cfg"
        cfg_path.write_text(text)
        cells = d / "out" / "cells"
        cells.mkdir(parents=True)
        for est in self.estimators():
            for n in PIPELINE_N:
                for rep in range(REPLICATES):
                    if (est, n, rep) not in fresh:
                        shutil.copyfile(self.committed / "cells"
                                        / cell_file(est, n, rep),
                                        cells / cell_file(est, n, rep))
        return cfg_path, d / "out"

    def estimators(self):
        return ("ngd",) + tuple(self.cfg.baselines)

    def check_sweep_output(self, out, fresh):
        """Every row of the sweep's results.csv equals its committed row;
        returns per-fresh-cell errors and a list of other errors."""
        rows = read_rows(out / "results.csv")
        per_cell, other = {}, []
        want = {(e, n, derive_seed(self.base_seed, n, r, "data")): (e, n, r)
                for e in self.estimators() for n in PIPELINE_N
                for r in range(REPLICATES)}
        if set(rows) != set(want):
            other.append(f"results.csv holds {len(rows)} rows, "
                         f"expected {len(want)}")
        for key, (risk, err) in rows.items():
            e, n, r = want.get(key, (key[0], key[1], None))
            msg = (f"unexpected row {key}" if r is None
                   else self.check_values(e, n, r, risk, err))
            if (e, n, r) in fresh:
                per_cell[(e, n, r)] = msg
            elif msg:
                other.append(msg)
        for cell in fresh:
            per_cell.setdefault(cell, f"{cell}: no row in results.csv")
        return per_cell, other

    def check_report(self, out, n_values):
        """report's rate points equal log-median of the committed rows."""
        for est in self.estimators():
            pts = np.loadtxt(out / f"rate-{est}.dat", ndmin=2)
            meds = [statistics.median(
                self.ref[(est, n, derive_seed(self.base_seed, n, r, "data"))][0]
                for r in range(REPLICATES)) for n in n_values]
            if pts.shape != (len(n_values), 2):
                return f"rate-{est}.dat has shape {pts.shape}"
            for (ln, lm), n, med in zip(pts, n_values, meds):
                if abs(ln - math.log(n)) > 1e-12 or abs(lm - math.log(med)) > RTOL:
                    return f"rate-{est}.dat: point for n={n} off the reference"
            slope = ols_slope([math.log(n) for n in n_values],
                              [math.log(m) for m in meds])
            line = [ln for ln in (out / "report.txt").read_text().splitlines()
                    if ln.split()[:1] == [est]]
            if not line or abs(float(line[0].split()[1]) + slope) > 1e-4:
                return f"report.txt exponent for {est} differs from {-slope:.4f}"
        return None

    def check_lemma(self, approx, csv_path):
        """Atom constraints, criterion 9's bound on both error paths, and
        the CSV summary."""
        approx.check_atoms()
        rel = approx.reported_sup_error / approx.scale
        with self.tracer.span("lowerbound.sup_error"):
            generic = self.lowerbound.sup_error(approx) / approx.scale
        if not (rel <= LEMMA_REL_BOUND and generic <= LEMMA_REL_BOUND):
            return (f"relative sup error {rel:.3e} / {generic:.3e} "
                    f"> {LEMMA_REL_BOUND:g}")
        if abs(rel - generic) > 1e-9:
            return f"build and generic sup errors differ: {rel!r} {generic!r}"
        head = [ln for ln in csv_path.read_text().splitlines(keepends=False)
                if ln.startswith("# atoms = ")]
        if head != [f"# atoms = {approx.n_atoms}"]:
            return f"lemma CSV atom line {head!r}"
        return None


def pipeline_config_text(committed, overrides):
    """Committed config text with the given keys replaced or added."""
    keep = [ln for ln in committed.splitlines()
            if ln.split("=", 1)[0].strip() not in overrides]
    return "\n".join(keep + [f"{k} = {v}" for k, v in overrides.items()]) + "\n"


def ols_slope(x, y):
    xb, yb = sum(x) / len(x), sum(y) / len(y)
    return (sum((a - xb) * (b - yb) for a, b in zip(x, y))
            / sum((a - xb) ** 2 for a in x))


# -- rounds -------------------------------------------------------------------
# A round is one fixed list of ops.  Each returns its per-op timings by
# name; "wall_s", "large_op_s" and "small_op_s" are the gated ones.


def sampler_round(b, rng, tiny=False):
    sizes = TINY["sampler"] if tiny else SAMPLER_N
    # the small cell runs on both sides of the large one and its median is
    # reported: one 2-second sample swings with the host's load
    small = [b.cell("ngd", sizes["small"], rng.randrange(REPLICATES))
             for _ in range(sizes["repeats"] // 2)]
    large = b.cell("ngd", sizes["large"], rng.randrange(REPLICATES))
    small += [b.cell("ngd", sizes["small"], rng.randrange(REPLICATES))
              for _ in range(sizes["repeats"] - sizes["repeats"] // 2)]
    small_med = None if None in small else statistics.median(small)
    out = {"cell_s.ngd.n64": small_med, "cell_s.ngd.n1024": large,
           "small_op_s": small_med, "large_op_s": large}
    out["wall_s"] = _sum(large, *small)
    return out


def baselines_round(b, rng, tiny=False):
    ns = TINY["baselines"] if tiny else BASELINE_N
    t = {}
    for n in ns:
        rep = rng.randrange(REPLICATES)
        for est in ("krr-rbf", "knn"):
            t[(est, n)] = b.cell(est, n, rep)
    knn = _sum(*(t[("knn", n)] for n in ns))
    out = {f"cell_s.krr-rbf.n{ns[1]}": t[("krr-rbf", ns[1])],
           f"cell_s.krr-rbf.n{ns[2]}": t[("krr-rbf", ns[2])],
           "cell_s.knn": knn,
           "large_op_s": t[("krr-rbf", ns[2])], "small_op_s": knn}
    out["wall_s"] = _sum(*t.values())
    return out


def pipeline_round(b, rng, tiny=False):
    reps = {n: rng.randrange(REPLICATES) for n in PIPELINE_N}
    fresh_n = TINY["pipeline_fresh"] if tiny else PIPELINE_N
    fresh = {(e, n, reps[n]) for e in b.estimators() for n in fresh_n}
    d = b.fresh_dir("pipeline")
    cfg_path, out = b.prepare_sweep_dir(d, fresh,
                                        TINY["lemma"] if tiny else None)
    def sweep():
        code, text, secs = b.run_cli(["sweep", cfg_path, "--out", out])
        per_cell, other = (b.check_sweep_output(out, fresh) if code == 0
                           else ({c: f"sweep exit {code}" for c in fresh}, []))
        for (e, n, r), msg in sorted(per_cell.items()):
            b.outcomes.append(Outcome(f"sweep cell {e} n={n} r={r}", msg))
        return secs, "; ".join(other) or None

    def resume():
        before = {p.name: p.stat().st_mtime_ns for p in (out / "cells").iterdir()}
        results = (out / "results.csv").read_bytes()
        code, text, secs = b.run_cli(["sweep", cfg_path, "--out", out])
        after = {p.name: p.stat().st_mtime_ns for p in (out / "cells").iterdir()}
        progress = [ln for ln in text.splitlines() if ln.startswith("  ")]
        if code != 0 or progress or before != after:
            return secs, f"resume computed cells (exit {code}): {progress[:3]}"
        if (out / "results.csv").read_bytes() != results:
            return secs, "resume changed results.csv"
        return secs, None

    def report():
        code, text, secs = b.run_cli(["report", cfg_path, "--out", out])
        return secs, (f"report exit {code}" if code
                      else b.check_report(out, PIPELINE_N))

    def lemma():
        csv_path = out / "lemma.csv"
        b.lemmas.clear()
        code, text, secs = b.run_cli(["lemma", cfg_path, "--out", csv_path])
        if code != 0 or len(b.lemmas) != 1:
            return secs, f"lemma exit {code}"
        return secs, b.check_lemma(b.lemmas[0], csv_path)

    sweep_s = b.op("sweep", sweep)
    resume_s = b.op("resume", resume)
    report_s = b.op("report", report)
    lemma_s = b.op("lemma", lemma)
    out_m = {"sweep_s": sweep_s, "lemma_s": lemma_s,
             "large_op_s": sweep_s, "small_op_s": lemma_s}
    out_m["wall_s"] = _sum(sweep_s, resume_s, report_s, lemma_s)
    return out_m


def _sum(*values):
    return None if any(v is None for v in values) else sum(values)


ROUNDS = {"sampler": sampler_round, "baselines": baselines_round,
          "pipeline": pipeline_round}


# -- traced-run extras --------------------------------------------------------

# microloop call counts: each loop takes ~0.05-0.2 s at n = 1024, M = 3
LOOPS = {"ngd.loss_grad": 400, "ngd.step": 400, "model.sigmoid": 2000,
         "model.eval_network": 2000, "model.hgamma_norm": 10000}
LOOP_BATCHES = 5


def microloops(b):
    """Per-call microseconds of the chain's inner functions, on the final
    weights and the data of the largest-n chain the workload ran (n = 1024 on
    sampler, 256 on pipeline); zeros when it ran no chain (baselines).

    run_chain inlines its own gradient and update, so the ngd.loss_grad and
    ngd.step loops time those standalone functions, not the chain's kernel;
    ngd.us_per_step is the chain's own figure.  The loops run outside any
    span, so they add nothing to the span totals."""
    if b.chain is None:
        return {f"{name}.us": 0.0 for name in LOOPS}
    ngd, model = b.ngd, b.model
    sched, ngd_cfg, data, W = b.chain
    width = sched.width(np.arange(1, W.shape[0] + 1))
    X1 = np.concatenate([data.X, np.ones((data.n, 1))], axis=1)
    with np.errstate(over="ignore", under="ignore", divide="ignore"):
        u = (X1 @ W[:, :-1].T) / np.where(width > 0.0, width, 1.0)
    noise = (math.sqrt(2.0 * ngd_cfg.eta / ngd_cfg.beta)
             * np.random.default_rng(0).standard_normal(W.shape))
    calls = {
        "ngd.loss_grad": lambda: ngd.loss_grad(sched, W, data),
        "ngd.step": lambda: ngd.step(sched, ngd_cfg, W, data, noise),
        "model.sigmoid": lambda: model.sigmoid(u),
        "model.eval_network": lambda: model.eval_network(sched, W, data.X),
        "model.hgamma_norm": lambda: model.hgamma_norm(sched, W, 1.0),
    }
    out = {}
    for name, fn in calls.items():
        count = LOOPS[name]
        per_batch = []
        for _ in range(LOOP_BATCHES):
            start = time.perf_counter()
            for _ in range(count):
                fn()
            per_batch.append((time.perf_counter() - start) / count)
        out[f"{name}.us"] = statistics.median(per_batch) * 1e6
    return out


def layer_metrics(spans):
    """Per-layer figures from the spans of one traced run."""
    out = {}
    chains = [s for s in spans if s.name == "ngd.run_chain"]
    steps = sum(s.attrs["steps"] for s in chains)
    out["sweep.run_cell.s"] = total(spans, "sweep.run_cell")
    out["data.generate_dataset.s"] = total(spans, "data.generate_dataset")
    out["ngd.run_chain.s"] = total(spans, "ngd.run_chain")
    out["ngd.steps"] = steps
    out["ngd.us_per_step"] = out["ngd.run_chain.s"] / steps * 1e6 if steps else 0.0
    out["ngd.width"] = max((s.attrs["width"] for s in chains), default=0)
    out["ngd.kept"] = sum(s.attrs["kept"] for s in chains)
    for est in ("ngd", "krr-rbf", "knn"):
        out[f"risk.excess_risk_mc.s.{est}"] = total(
            spans, "risk.excess_risk_mc", est=est)
    out["risk.network_evals"] = sum(s.attrs.get("evals", 0) for s in spans
                                    if s.name == "risk.excess_risk_mc")
    for est in ("krr-rbf", "knn"):
        out[f"linear.tune.s.{est}"] = total(spans, "linear.tune", est=est)
        out[f"linear.fit_estimator.s.{est}"] = total(
            spans, "linear.fit_estimator", est=est)
    out["linear.cv_solves.krr-rbf"] = sum(
        s.attrs["cv_solves"] for s in spans
        if s.name == "linear.tune" and s.attrs["est"] == "krr-rbf")
    out["config.load_config.s"] = total(spans, "config.load_config")
    sweeps = [s for s in spans if s.name == "sweep.run_sweep"]
    swept = [s for s in spans if s.name == "sweep.run_cell"
             and "sweep.run_sweep" in ancestor_names(spans, s)]
    busy = {a.id for s in swept for a in ancestors(spans, s)}
    resumes = [s for s in sweeps if s.id not in busy]
    computed = len(swept)
    out["sweep.resume.s"] = sum(s.duration for s in resumes)
    out["sweep.report.s"] = total(spans, "sweep.report")
    out["sweep.cells_computed"] = computed
    out["sweep.cells_reused"] = sum(s.attrs["records"] for s in sweeps) - computed
    for name in ("build_bump_approx", "sup_error", "save_approx_csv"):
        out[f"lowerbound.{name}.s"] = total(spans, f"lowerbound.{name}")
    out["lowerbound.atoms"] = max((s.attrs["atoms"] for s in spans
                                   if s.name == "lowerbound.build_bump_approx"),
                                  default=0)
    selfs = self_times(spans)
    for layer in LAYERS:
        out[f"self_s.{layer}"] = selfs.get(layer, 0.0)
    out["trace.spans"] = len(spans)
    return out


LAYERS = ("cli", "config", "data", "linear", "lowerbound", "model", "ngd",
          "risk", "sweep")
# the layers each workload's round runs; every other layer's figures are 0
RUNS_LAYERS = {"sampler": {"sweep", "data", "ngd", "model", "risk"},
               "baselines": {"sweep", "data", "linear", "risk"},
               "pipeline": set(LAYERS)}
