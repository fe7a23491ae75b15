"""Repeat the benchmark over seeds and summarise each metric's spread.

usage: python3 bench/collect.py [--runs 10] [--first-seed 1]
                                [--workloads sampler baselines pipeline]
                                [--trace] [--out FILE]

Runs ``bench/run.py`` once per (seed, workload), interleaving workloads so
that load on the machine falls on all of them alike.  For every metric it
prints the median, the quartiles (``statistics.quantiles(values, n=4)``) and
the spread (q3 - q1) / median next to the metric's bound in BENCHMARK.json.
``--out`` writes the raw runs and the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, "bench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(int(trace))]
    start = time.perf_counter()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    elapsed = time.perf_counter() - start
    lines = done.stdout.strip().splitlines()
    prov = [ln for ln in lines if ln.startswith("# provenance ")]
    result = json.loads(lines[-1]) if lines else {}
    result.update(workload=workload, seed=seed, exit=done.returncode,
                  elapsed_s=elapsed,
                  provenance=json.loads(prov[-1][13:]) if prov else None)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
    return result


def summarise(runs, bounds):
    out = {}
    for workload in sorted({r["workload"] for r in runs}):
        mine = [r for r in runs if r["workload"] == workload]
        names = sorted({k for r in mine for k in r.get("metrics", {})})
        out[workload] = {}
        for name in names:
            vals = [r["metrics"][name]["value"] for r in mine
                    if name in r.get("metrics", {})]
            med = statistics.median(vals)
            q1, _, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                         else (vals[0],) * 3)
            out[workload][name] = {
                "unit": mine[0]["metrics"][name]["unit"], "runs": len(vals),
                "median": med, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / med if med else None,
                "bound": bounds.get(name)}
    return out


def span_table(paths):
    """Median seconds per (span, estimator, n) over the given span files;
    chains also get microseconds per step."""
    groups = {}
    for path in paths:
        spans = {s["id"]: s for s in json.loads(Path(path).read_text())}
        for s in spans.values():
            attrs, parent = dict(s["attrs"]), s["parent"]
            while "n" not in attrs and parent is not None:
                attrs.setdefault("est", spans[parent]["attrs"].get("est"))
                attrs["n"] = spans[parent]["attrs"].get("n")
                parent = spans[parent]["parent"]
            key = (s["name"], attrs.get("est"), attrs.get("n"))
            sec = s["end"] - s["start"]
            per = sec / attrs["steps"] * 1e6 if "steps" in attrs else None
            groups.setdefault(key, []).append((sec, per))
    rows = {}
    for key, vals in sorted(groups.items(), key=lambda kv: str(kv[0])):
        row = {"spans": len(vals),
               "median_s": statistics.median(v[0] for v in vals)}
        if vals[0][1] is not None:
            row["median_us_per_step"] = statistics.median(v[1] for v in vals)
        rows[" ".join(str(k) for k in key if k is not None)] = row
    return rows


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="+")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out")
    parser.add_argument("--spans", nargs="+",
                        help="only summarise these span files and exit")
    args = parser.parse_args()
    if args.spans:
        for name, row in span_table(args.spans).items():
            print(f"{name:44s} " + " ".join(f"{k} {v:.6g}"
                                            for k, v in row.items()))
        return 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        for workload in workloads:
            r = run_once(workload, seed, spec["run_seconds"], args.trace)
            runs.append(r)
            print(f"{workload} seed={seed} exit={r['exit']} "
                  f"correct={r.get('correct')} failed={r.get('failed')}/"
                  f"{r.get('attempted')}", flush=True)
    summary = summarise(runs, bounds)
    for workload, metrics in summary.items():
        for name, s in metrics.items():
            flag = ""
            if s["bound"] is not None and s["spread"] is not None:
                flag = ("ok" if s["spread"] < s["bound"] / 3
                        else "WIDE" if s["spread"] > s["bound"] else "over 1/3")
            spread = "" if s["spread"] is None else f"{s['spread']:.4f}"
            print(f"{workload:10s} {name:32s} median {s['median']:<12.6g} "
                  f"q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} "
                  f"spread {spread:8s} bound {s['bound']} {flag}")
    if args.out:
        doc = {"cpu_model": cpu_model(), "run_seconds": spec["run_seconds"],
               "seeds": [args.first_seed, args.first_seed + args.runs - 1],
               "trace": args.trace, "summary": summary, "runs": runs}
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0 if all(r["exit"] == 0 for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
