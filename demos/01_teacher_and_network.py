"""Tour of the model class: block schedules, teachers, and network evaluation.

The regression targets live in a clipped two-layer network class whose nodes
are organized into blocks m = 1, 2, 3, ...  Block m carries a smoothness
weight mu(m) = c_mu * m^-2, an output amplitude mu(m)^alpha1, and an
activation width mu(m)^alpha2; the scaled sigmoid of block m is
b^s * sigmoid(u / b) with b the width.  Steep schedules (large alpha2) make
high blocks contribute almost nothing, which is exactly what lets a sampler
with a matching prior learn fast.

Run:  python3 demos/01_teacher_and_network.py
"""

import numpy as np

from ngdbench import (
    ScheduleConfig,
    bump_teacher,
    eval_network,
    h_norm,
    hgamma_norm,
    sample_teacher,
)


def main():
    config = ScheduleConfig(d=2, gamma=3.0, alpha1=3.0, alpha2=12.0, s=3)
    print("schedule (d=2, gamma=3, alpha1=3, alpha2=12, s=3)")
    print("  m    mu(m)        amplitude    width b(m)   b(m)^s")
    m = np.arange(1, 5)
    for mi, mu, amp, b in zip(m, config.mu(m), config.amp(m), config.width(m)):
        print(f"  {mi}    {mu:<12.5g} {amp:<12.5g} {b:<12.5g} {b**config.s:.5g}")
    print("blocks beyond the first are dead weight at alpha2 = 12:")
    print("  block-2 node at full amplitude contributes at most "
          f"{config.amp(2) * config.width(2) ** config.s:.3g}")

    # construction already checked the schedule's admissibility clauses
    print(f"\nassumption check: assumptions: pass; "
          f"sigma-derivative bound {config.sigma_bound:.6g}")

    # A random teacher spreads its norm budget across all blocks; the
    # schedule then crushes most of it.  A bump teacher concentrates the
    # budget in a single first-block node and stays visible.
    gauss = sample_teacher(config, width=4, radius=1.0, seed=7)
    bump = bump_teacher(config, width=4, radius=1.0)
    x = np.random.default_rng(0).uniform(size=(5, config.d))
    print("\n           gaussian teacher   bump teacher")
    for xi, gv, bv in zip(x, gauss(x), bump(x)):
        print(f"  f({xi[0]:.2f},{xi[1]:.2f})   {gv:>12.5g}     {bv:>12.5g}")
    for name, t in (("gaussian", gauss), ("bump", bump)):
        print(f"  {name:<9} weighted norm {hgamma_norm(config, t.weights):.6f}"
              f"  plain norm {h_norm(t.weights):.6f}")

    # eval_network works on raw weight matrices too; rows are blocks, the
    # last two columns are the node bias and the (clipped) output weight.
    W = np.zeros((2, config.d + 2))
    W[0] = [0.3, -0.2, 0.1, 0.8]
    print(f"\nhand-built one-node network at the origin: "
          f"{eval_network(config, W, np.zeros(config.d)):.6f}")


if __name__ == "__main__":
    main()
