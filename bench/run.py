"""ngdbench benchmark: run one workload and print its metrics.

usage: python3 bench/run.py --workload {sampler,baselines,pipeline}
                            [--seed N] [--seconds S] [--trace 0|1]
       python3 bench/run.py --self-test

Run from the repository root (or any copy of it holding src/, configs/ and
results/comparison/).  The seed only picks replicates, and every computed
number is checked against the committed results/comparison/results.csv.

--trace 0 measures end to end: set-up in fresh processes, then whole rounds
of the workload's ops until --seconds have passed; timings are medians over
rounds.  --trace 1 runs one warm-up round, one untraced and one traced round
(same inputs), reports per-layer figures from the traced round's spans (0 for
a layer the workload does not run), microloops on the chain it ran, and the
tracing overhead.  Spans are written to .bench_out/.

The last stdout line is one JSON object: correct, attempted, failed,
metrics.  Exit code 0 when every op matched its reference, 1 when one did
not, 2 when the repository is not there to run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sampler", "baselines", "pipeline")
SETUP_REPEATS = 6
SETUP_N = {"sampler": (64, 1024), "baselines": (256, 1024, 2048),
           "pipeline": (64, 128, 256)}

END_TO_END = {"wall_s": "s", "large_op_s": "s", "small_op_s": "s",
              "setup_s": "s", "peak_rss_mb": "MB"}
_COUNTS = ("ngd.steps", "ngd.width", "ngd.kept", "risk.network_evals",
           "linear.cv_solves.krr-rbf", "sweep.cells_computed",
           "sweep.cells_reused", "lowerbound.atoms", "trace.spans")


def _unit(name):
    if name in _COUNTS:
        return "count"
    if name.endswith(".us") or name == "ngd.us_per_step":
        return "us"
    return "s"


PER_LAYER_NAMES = (
    "ngd.run_chain.s", "ngd.us_per_step", "ngd.steps", "ngd.width",
    "ngd.kept", "ngd.loss_grad.us", "ngd.step.us",
    "model.sigmoid.us", "model.eval_network.us", "model.hgamma_norm.us",
    "risk.excess_risk_mc.s.ngd", "risk.excess_risk_mc.s.krr-rbf",
    "risk.excess_risk_mc.s.knn", "risk.network_evals",
    "linear.tune.s.krr-rbf", "linear.tune.s.knn",
    "linear.fit_estimator.s.krr-rbf", "linear.fit_estimator.s.knn",
    "linear.cv_solves.krr-rbf",
    "data.generate_dataset.s", "config.load_config.s",
    "sweep.run_cell.s", "sweep.resume.s", "sweep.report.s",
    "sweep.cells_computed", "sweep.cells_reused",
    "lowerbound.build_bump_approx.s", "lowerbound.sup_error.s",
    "lowerbound.save_approx_csv.s", "lowerbound.atoms",
    "self_s.cli", "self_s.config", "self_s.data", "self_s.linear",
    "self_s.lowerbound", "self_s.model", "self_s.ngd", "self_s.risk",
    "self_s.sweep", "trace.overhead_s", "trace.spans")
PER_LAYER = {name: _unit(name) for name in PER_LAYER_NAMES}


def missing_repo():
    """What the benchmark needs from the repository and cannot find."""
    need = [ROOT / "src" / "ngdbench" / "__init__.py",
            ROOT / "configs" / "comparison.cfg",
            ROOT / "results" / "comparison" / "results.csv"]
    return [str(p.relative_to(ROOT)) for p in need if not p.is_file()]


def prepare_environment():
    """One BLAS thread and one sweep worker, whatever the caller's
    environment says, so every run does the same work in one process.
    Must run before numpy is imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "NGDBENCH_WORKERS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))


def provenance():
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or commit
    src_lines = sum(len(p.read_text().splitlines())
                    for p in (ROOT / "src" / "ngdbench").glob("*.py"))
    return {"commit": commit, "python": sys.version.split()[0],
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "ngdbench_workers": os.environ["NGDBENCH_WORKERS"],
            "cpus": os.cpu_count(), "src_lines": src_lines}


def setup_seconds(workload, seed, repeats):
    """Wall times of ``repeats`` fresh processes doing the workload's set-up."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(ROOT),
           str(seed % 10)] + [str(n) for n in SETUP_N[workload]]
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run(cmd, check=True, timeout=120, cwd=ROOT,
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return times


def _median(rounds, key):
    vals = [r[key] for r in rounds if r.get(key) is not None]
    return statistics.median(vals) if vals else None


def measure(workload, seed, seconds, trace, work, tiny=False,
            setup_repeats=SETUP_REPEATS):
    """Run one workload; returns (metrics, per-op timing table, bench)."""
    import workloads as wl
    from spans import Tracer

    run_id = f"{workload}-s{seed}-t{int(trace)}-p{os.getpid()}"
    b = wl.Bench(ROOT, work, lambda record: Tracer(run_id, record))
    play = wl.ROUNDS[workload]
    table = {}
    try:
        if not trace:
            # half the set-up probes before the rounds and half after: the
            # machine's slow spells last seconds, and one would otherwise
            # catch every probe
            setup = setup_seconds(workload, seed, setup_repeats // 2)
            b.install(record=False)
            rng, rounds = random.Random(seed), []
            start = time.perf_counter()
            while True:
                rounds.append(play(b, rng, tiny))
                if time.perf_counter() - start >= seconds:
                    break
            setup += setup_seconds(workload, seed,
                                   setup_repeats - setup_repeats // 2)
            metrics = {k: _median(rounds, k)
                       for k in ("wall_s", "large_op_s", "small_op_s")}
            metrics["setup_s"] = statistics.median(setup)
            metrics["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
            table = {k: _median(rounds, k) for k in rounds[0]
                     if not k.endswith("_op_s")}
            table["rounds"] = len(rounds)
        else:
            b.install(record=False)
            # warm-up: a process's first round pays first-call costs (lazy
            # imports, caches, heap growth) that would otherwise land in
            # whichever measured round comes first
            play(b, random.Random(seed), tiny)
            # the two measured rounds swap order with the seed's parity, so a
            # machine that speeds up or slows down from round to round biases
            # half the runs each way instead of all of them one way
            walls = {}
            for record in ((False, True) if seed % 2 == 0 else (True, False)):
                tracer = b.install(record=record)
                walls[record] = play(b, random.Random(seed), tiny)["wall_s"]
                if record:
                    traced = tracer
            b.install(record=False)
            metrics = wl.layer_metrics(traced.finished())
            metrics.update(wl.microloops(b))
            if None not in walls.values():
                metrics["trace.overhead_s"] = walls[True] - walls[False]
                table = {"wall_s untraced": walls[False],
                         "wall_s traced": walls[True]}
            out = ROOT / ".bench_out"
            out.mkdir(exist_ok=True)
            traced.write(out / f"spans-{run_id}.json")
    finally:
        b.close()
    return metrics, table, b


def result_line(metrics, units, outcomes):
    failed = sum(1 for o in outcomes if o.error is not None)
    ok = failed == 0 and all(metrics.get(k) is not None for k in units)
    return {"correct": ok, "attempted": len(outcomes), "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": units[k]}
                        for k in units if metrics.get(k) is not None}}


def print_table(table, metrics, units, outcomes, prov):
    failed = sum(1 for o in outcomes if o.error is not None)
    for o in outcomes:
        if o.error is not None:
            print(f"FAILED {o.name}: {o.error}", file=sys.stderr)
    rows = [(k, v, units.get(k, "s")) for k, v in table.items()
            if v is not None and k != "rounds" and k not in units]
    rows += [(k, metrics[k], units[k]) for k in units
             if metrics.get(k) is not None]
    rows.append(("failed_frac", failed / max(1, len(outcomes)), "ratio"))
    for name, value, unit in rows:
        print(f"{name:34s} {value:14.6g} {unit}")
    if "rounds" in table:
        print(f"{'rounds':34s} {table['rounds']:14d} count")
    print("# provenance " + json.dumps(prov, sort_keys=True))


def self_test(work):
    """Tiny inputs through every workload in both modes: every declared
    metric present with its unit, and the gate trips on a perturbed
    reference value."""
    import workloads as wl
    from spans import Tracer

    problems = []
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = ({m["name"]: m["unit"] for m in spec["end_to_end"]},
                {m["name"]: m["unit"] for m in spec["per_layer"]})
    if declared != (END_TO_END, PER_LAYER):
        problems.append("BENCHMARK.json metrics differ from run.py's")
    if tuple(w["name"] for w in spec["workloads"]) != WORKLOADS:
        problems.append("BENCHMARK.json workloads differ from run.py's")

    b = wl.Bench(ROOT, work / "gate", lambda record: Tracer("gate", record))
    b.install(record=False)
    est, n, rep = "knn", 64, 0
    key = (est, n, wl.derive_seed(0, n, rep, "data"))
    b.cell(est, n, rep)
    saved = b.ref[key]
    for bumped in ((saved[0] * (1 + 1e-8), saved[1]),
                   (saved[0], saved[1] * (1 - 1e-8))):
        b.ref[key] = bumped
        b.cell(est, n, rep)
    b.ref[key] = saved
    b.close()
    trips = [o.error is not None for o in b.outcomes]
    if trips != [False, True, True]:
        problems.append(f"gate outcomes {trips}, expected pass, trip, trip")

    for workload in WORKLOADS:
        for trace, units in ((False, END_TO_END), (True, PER_LAYER)):
            metrics, _, bw = measure(workload, 0, 0, trace,
                                     work / f"{workload}-{int(trace)}",
                                     tiny=True, setup_repeats=2)
            line = result_line(metrics, units, bw.outcomes)
            got = {k: v["unit"] for k, v in line["metrics"].items()}
            problems += [f"{workload}: {o.name}: {o.error}"
                         for o in bw.outcomes if o.error is not None]
            if got != units or not line["correct"]:
                problems.append(f"{workload} trace={int(trace)}: correct="
                                f"{line['correct']}, missing "
                                f"{sorted(set(units) - set(got))}")
            for k, v in line["metrics"].items():
                # end-to-end figures are never 0; a per-layer figure is 0
                # exactly when the workload does not run that layer
                bad = not math.isfinite(v["value"]) or (
                    v["value"] <= 0 and not trace)
                if trace and k != "trace.overhead_s":
                    bad = bad or v["value"] < 0
                if bad:
                    problems.append(f"{workload}: {k} = {v['value']}")
            if trace:
                ran = {layer for layer in wl.LAYERS
                       if metrics[f"self_s.{layer}"] > 0}
                if ran != wl.RUNS_LAYERS[workload]:
                    problems.append(f"{workload}: layers with spans "
                                    f"{sorted(ran)}, expected "
                                    f"{sorted(wl.RUNS_LAYERS[workload])}")
            print(f"self-test {workload} trace={int(trace)}: "
                  f"{len(got)} metrics, {line['attempted']} ops", flush=True)
    for p in problems:
        print(f"self-test: {p}", file=sys.stderr)
    print("self-test " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    missing = missing_repo()
    if missing:
        print(f"error: not a ngdbench checkout, missing {missing}",
              file=sys.stderr)
        return 2
    prepare_environment()
    work = ROOT / ".bench_work" / f"p{os.getpid()}"
    try:
        if args.self_test:
            return self_test(work)
        trace = bool(args.trace)
        units = PER_LAYER if trace else END_TO_END
        metrics, table, b = measure(args.workload, args.seed, args.seconds,
                                    trace, work)
        print_table(table, metrics, units, b.outcomes, provenance())
        line = result_line(metrics, units, b.outcomes)
        print(json.dumps(line), flush=True)
        return 0 if line["correct"] else 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
