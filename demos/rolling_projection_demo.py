#!/usr/bin/env python3
"""Coarse-graining by repeated max-entropy projection: a two-block system
whose block masses are tracked by an exponential family, with the per-step
information loss and the dt-convergence of the scheme.

Run:  python3 demos/rolling_projection_demo.py
"""

import numpy as np
from scipy.linalg import expm

from infogeo.classical import ExponentialFamily, FiniteDistribution, full_simplex_family
from infogeo.projection import MarkovGenerator, roll


def two_block_generator(a=0.5, e1=0.3, e2=0.06):
    r = np.zeros((4, 4))
    r[0, 1] = r[1, 0] = a
    r[2, 3] = r[3, 2] = a
    r[2, 1] = r[1, 2] = e1
    r[3, 0] = r[0, 3] = e2
    q = r.copy()
    np.fill_diagonal(q, 0.0)
    q -= np.diag(q.sum(axis=0))
    return MarkovGenerator(q)


gen = two_block_generator()
blocks = ExponentialFamily(np.array([[0.0, 0.0, 1.0, 1.0]]))
rho0 = FiniteDistribution([0.5, 0.2, 0.2, 0.1])

print("=== Rolling a block-mass observer over the microdynamics ===")
run = roll(rho0, gen, blocks, dt=0.25, steps=12)
print(f"  projection rule: {run.projection_rule}")
print(f"  {'t':>6s} {'block mass':>11s} {'entropy':>9s} {'defect':>10s}")
for i in range(len(run.times)):
    print(f"  {run.times[i]:6.2f} {run.etas[i,0]:11.6f} "
          f"{run.entropies[i]:9.6f} {run.defects[i]:10.2e}")
print(f"  entropy nondecreasing: {bool(np.all(np.diff(run.entropies) >= -1e-12))} "
      f"(doubly stochastic microdynamics + max-entropy projection)")

print()
print("=== Tracking error against the exact microdynamics ===")
start = FiniteDistribution([0.35, 0.35, 0.15, 0.15])  # on the manifold
steps = 8
print(f"  fixed {steps} steps; the per-step projection defect is O(dt^2),")
print("  so halving dt cuts the end-time block-mass error about fourfold:")
prev = None
for dt in (0.1, 0.05, 0.025, 0.0125):
    run = roll(start, gen, blocks, dt, steps)
    exact = expm(run.times[-1] * gen.rates) @ start.probs
    err = abs(run.etas[-1, 0] - float(blocks.features[0] @ exact))
    note = f"  ratio vs previous: {prev/err:.2f}" if prev else ""
    print(f"  dt = {dt:7.4f}: error = {err:.3e}{note}")
    prev = err

print()
print("=== A full family makes the projection invisible ===")
full = full_simplex_family(4)
run = roll(rho0, gen, full, dt=0.1, steps=10)
exact = expm(run.times[-1] * gen.rates) @ rho0.probs
dev = np.abs(run.etas[-1] - full.features @ exact).max()
print(f"  with all {full.n_features} independent features the rolled "
      f"trajectory is the exact microdynamics (deviation {dev:.1e})")
