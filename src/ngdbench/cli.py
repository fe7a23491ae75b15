"""Command-line driver.

Subcommands: check, teacher, data, train, fit, sweep, report, lemma.
All experiment settings live in the config file; the command line only
selects what to do and where to put files.  Exit codes: 0 success,
1 validation error (bad config, bad arguments), 2 runtime failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import ConfigError, load_config
from .data import empirical_risk, save_dataset
from .linear import ESTIMATOR_KINDS, save_estimator
from .model import active_width, save_teacher, save_weights
from .ngd import save_trace
from .lowerbound import build_bump_approx, save_approx_csv
from .sweep import (RESULTS_NAME, cell_inputs, fit_cell, report,
                    resolve_teacher, run_sweep, save_report, student_width)

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    """argparse that exits 1 on usage errors (validation, not runtime)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser():
    parser = _Parser(prog="ngdbench",
                     description="teacher-student regression benchmark: "
                                 "noisy gradient descent vs linear estimators")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, cell=False):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("config", help="experiment config file")
        if cell:
            p.add_argument("--n", type=int, required=True, help="sample size")
            p.add_argument("--replicate", type=int, default=0,
                           help="replicate index")
        return p

    add("check", "validate the config and the schedule assumptions")

    p = add("teacher", "sample the teacher network and write it to a file")
    p.add_argument("--out", required=True, help="output teacher file")

    p = add("data", "draw one training set and write it to a file", cell=True)
    p.add_argument("--out", required=True, help="output dataset file")

    p = add("train", "run one noisy-gradient-descent chain", cell=True)
    p.add_argument("--out", required=True,
                   help="output weight-snapshot file (kept iterates)")
    p.add_argument("--trace", help="optional per-iterate trace CSV")

    p = add("fit", "cross-validate and fit one baseline estimator", cell=True)
    p.add_argument("--out", required=True, help="output estimator file")
    p.add_argument("--estimator", required=True, choices=ESTIMATOR_KINDS,
                   help="baseline kind")

    p = add("sweep", "run or resume the full excess-risk sweep")
    p.add_argument("--out", help="output directory (default: output.dir)")
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes (default: 1)")

    p = add("report", "fit rates from sweep records and write the report")
    p.add_argument("--records",
                   help=f"records CSV (default: <output.dir>/{RESULTS_NAME})")
    p.add_argument("--out", help="report directory (default: output.dir)")

    p = add("lemma", "build the bump ridge approximation and write its CSV")
    p.add_argument("--out", required=True, help="output CSV")
    return parser


def _cmd_check(cfg, args):
    # load_config has already rejected an inadmissible schedule
    sched, n = cfg.schedule, max(cfg.sweep_n_values)
    print(cfg.to_text(), end="")
    print(f"assumptions: pass; sigma-derivative bound {sched.sigma_bound:.6g}")
    M = student_width(cfg, n)
    a = active_width(sched, M)
    print(f"widest student (n = {n}): {M} blocks, {a} active "
          f"(elided: gradient scale <= eps x block 1's)")
    print("block  output scale  gradient scale")
    for m in range(1, M + 1):
        out = sched.amp(m) * sched.R * sched.width(m) ** sched.s
        grad = sched.amp(m) * sched.width(m) ** (sched.s - 1.0)
        print(f"{m:>5}  {out:>12.3e}  {grad:>14.3e}"
              + ("  elided" if m > a else ""))
    return 0


def _cmd_teacher(cfg, args):
    teacher = resolve_teacher(cfg)
    save_teacher(args.out, teacher)
    tail = teacher.tail_amplitude(student_width(cfg, max(cfg.sweep_n_values)))
    print(f"teacher: kind={teacher.kind} width={teacher.width} "
          f"radius={teacher.radius:g}")
    print(f"tail amplitude beyond the widest student: {tail:.3e}")
    print(f"wrote {args.out}")
    return 0


def _cmd_data(cfg, args):
    data = cell_inputs(cfg, resolve_teacher(cfg), args.n, args.replicate).data
    save_dataset(args.out, data)
    print(f"wrote {args.out}: n={data.n} d={data.d} seed={data.seed}")
    return 0


def _cmd_train(cfg, args):
    cell = cell_inputs(cfg, resolve_teacher(cfg), args.n, args.replicate)
    ngd = cell.ngd
    print(f"chain: width={ngd.width} beta={ngd.beta:g} "
          f"lam={ngd.lam:g} k_max={ngd.k_max} eta={ngd.eta:g}")
    result, _, mc = fit_cell(cfg, cell, "ngd")
    save_weights(args.out, cfg.schedule, result.kept,
                 extra={"kind": "kept-iterates",
                        "burn_in": ngd.burn_in,
                        "thinning": ngd.thinning})
    if args.trace:
        save_trace(args.trace, result)
    print(f"empirical risk at the last kept step "
          f"({result.kept_steps[-1]}): "
          f"{empirical_risk(cfg.schedule, result.kept[-1], cell.data):.6g}")
    print(f"averaged-predictor excess risk: {mc.value:.6g} "
          f"(stderr {mc.stderr:.2g})")
    print(f"wrote {args.out}")
    return 0


def _cmd_fit(cfg, args):
    cell = cell_inputs(cfg, resolve_teacher(cfg), args.n, args.replicate)
    kind = args.estimator
    tuned, est, mc = fit_cell(cfg, cell, kind)
    save_estimator(args.out, est)
    params = " ".join(f"{k}={v:g}" for k, v in sorted(tuned.params.items()))
    print(f"{kind}: chose {params} (cv score {tuned.score:.6g})")
    print(f"excess risk: {mc.value:.6g} (stderr {mc.stderr:.2g})")
    print(f"wrote {args.out}")
    return 0


def _cmd_sweep(cfg, args):
    def progress(name, failed):
        status = f"FAILED ({failed})" if failed else "done"
        print(f"  {name}: {status}", flush=True)

    records = run_sweep(cfg, out_dir=args.out, workers=args.workers,
                        progress=progress)
    out = Path(args.out if args.out is not None else cfg.output_dir)
    print(f"{len(records)} records -> {out / RESULTS_NAME}")
    return 0


def _cmd_report(cfg, args):
    out = Path(args.out if args.out is not None else cfg.output_dir)
    records = args.records if args.records else out / RESULTS_NAME
    rep = report(records, cfg)
    save_report(out, rep)
    print(rep)
    return 0


def _cmd_lemma(cfg, args):
    approx = build_bump_approx(cfg.lemma)
    save_approx_csv(args.out, approx)
    rel = approx.reported_sup_error / approx.scale
    print(f"atoms: {approx.n_atoms}  tau: {approx.tau:.6g}")
    print(f"sup error: {approx.reported_sup_error:.3e} "
          f"(relative to bump amplitude: {rel:.3e})")
    print(f"wrote {args.out}")
    return 0


_COMMANDS = {
    "check": _cmd_check,
    "teacher": _cmd_teacher,
    "data": _cmd_data,
    "train": _cmd_train,
    "fit": _cmd_fit,
    "sweep": _cmd_sweep,
    "report": _cmd_report,
    "lemma": _cmd_lemma,
}


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    for flag, low in (("replicate", 0), ("workers", 1)):
        if getattr(args, flag, low) < low:
            parser.error(f"argument --{flag}: must be >= {low}")
    try:
        cfg = load_config(args.config)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        return _COMMANDS[args.command](cfg, args)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, RuntimeError, ArithmeticError) as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
