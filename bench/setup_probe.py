"""Fresh-process set-up of one workload, timed from outside by run.py.

Imports every layer of the package, loads the committed config, builds the
teacher and draws the training sets of the given sample sizes: the work a
user's process does before its first cell computes.

usage: python3 bench/setup_probe.py <repo root> <replicate> <n> [<n> ...]
"""

import sys
from pathlib import Path

root = Path(sys.argv[1])
replicate = int(sys.argv[2])
sys.path.insert(0, str(root / "src"))

from ngdbench import cli  # noqa: E402,F401  (imports every layer)
from ngdbench.config import load_config  # noqa: E402
from ngdbench.data import generate_dataset  # noqa: E402
from ngdbench.sweep import derive_seed, resolve_teacher  # noqa: E402

cfg = load_config(root / "configs" / "comparison.cfg")
teacher = resolve_teacher(cfg)
for n in map(int, sys.argv[3:]):
    generate_dataset(teacher, n, noise_bound=cfg.noise_bound,
                     noise_kind=cfg.noise_kind,
                     seed=derive_seed(cfg.sweep_base_seed, n, replicate, "data"))
