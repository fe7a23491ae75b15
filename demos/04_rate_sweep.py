"""A miniature rate sweep: medians over replicates, log-log fits, verdict.

The full comparison experiment sweeps sample sizes with many replicates and
fits excess-risk decay exponents per estimator.  This demo runs a deliberately
small instance (one-dimensional inputs, three sample sizes, two replicates)
end to end: sweep, resumable result files, rate fits, and the theoretical
exponents for the configured class.  The file layout it prints is exactly
what the command line's `sweep` and `report` subcommands produce.

Run:  python3 demos/04_rate_sweep.py
"""

import tempfile
from pathlib import Path

from ngdbench import parse_config, report, run_sweep
from ngdbench.sweep import RESULTS_NAME

CONFIG = """\
schedule.d = 1
schedule.gamma = 1
schedule.alpha1 = 1
schedule.alpha2 = 1
schedule.s = 3
teacher.kind = bump
noise.bound = 0.05
ngd.eta = 0.25
ngd.budget = 5
baselines = knn
sweep.n_values = 32, 64, 128, 256
sweep.replicates = 2
risk.n_test = 4000
"""


def main():
    cfg = parse_config(CONFIG)
    with tempfile.TemporaryDirectory(prefix="ngdbench-demo-") as tmp:
        out = Path(tmp) / "sweep"
        print(f"running {len(cfg.sweep_n_values)} sizes x "
              f"{cfg.sweep_replicates} replicates x 2 estimators -> {out}")
        records = run_sweep(cfg, out_dir=out)

        results = out / RESULTS_NAME
        print(f"{len(records)} records; first three rows of {results.name}:")
        for line in results.read_text().splitlines()[:4]:
            print(f"  {line}")

        # Rerunning resumes: every cell file already exists, nothing
        # recomputes, and the merged results are byte-identical (every cell
        # is a pure function of the config).
        before = results.read_bytes()
        run_sweep(cfg, out_dir=out)
        print(f"resume reproduced results byte-identically: "
              f"{results.read_bytes() == before}")

    rep = report(records, cfg)
    print("\n" + str(rep))


if __name__ == "__main__":
    main()
