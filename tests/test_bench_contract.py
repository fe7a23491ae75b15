"""The benchmark's hold on the package: every attribute that bench/ wraps or
calls exists, and an ngd cell runs the layers the sampler workload declares.

bench/workloads.py swaps package functions for spanned wrappers by name and
times a few of them in microloops.  A refactor that drops or renames one of
those names breaks every benchmark op, one that stops calling a wrapped
name through its module empties that layer's per-layer figures and fails
``bench/run.py --self-test``, and one that drops a name bench/setup_probe.py
imports crashes every workload's set-up probe; these tests make all three
fail here instead.
bench/ is only read, never changed.
"""

import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_bench_wraps_and_calls_existing_names(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(BENCH))
    import spans
    import workloads

    b = workloads.Bench(BENCH.parent, tmp_path,
                        lambda record: spans.Tracer("contract", record))
    # install() reads every wrapped name with getattr, so a missing one
    # raises here
    patched = list(b.install(record=False)._patched)
    b.close()
    assert patched
    for module, attr, original in patched:
        assert getattr(module, attr) is original, attr
    modules = {"ngd": b.ngd, "model": b.model}
    for name in workloads.LOOPS:
        layer, attr = name.split(".")
        assert callable(getattr(modules[layer], attr)), name


def test_ngd_cell_runs_the_sampler_layers(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(BENCH))
    import spans
    import workloads

    b = workloads.Bench(BENCH.parent, tmp_path,
                        lambda record: spans.Tracer("contract", record))
    tracer = b.install(record=True)
    try:
        b.cell("ngd", 64, 0)
    finally:
        b.close()
    assert [o.error for o in b.outcomes] == [None]
    ran = {layer for layer, seconds
           in spans.self_times(tracer.finished()).items() if seconds > 0}
    assert ran == workloads.RUNS_LAYERS["sampler"]


def test_setup_probe_runs():
    done = subprocess.run(
        [sys.executable, str(BENCH / "setup_probe.py"), str(BENCH.parent),
         "0", "64"],
        cwd=BENCH.parent, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
