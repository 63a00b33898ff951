#!/usr/bin/env python3
"""The energy-threshold decision problem on a 1D grid.

The grid operator is tridiagonal. Solving for the ground energy takes an
eigen-solve, LAPACK's tridiagonal bisection; checking it takes two O(N)
factorizations, which certify a bracket around it. Checking a claimed
eigenpair costs one O(N) matrix-vector product. The demo
shows both sides: grid convergence of the harmonic ground energy toward
hbar omega / 2, threshold decisions around it, and the cheap verifier
accepting exact pairs while rejecting tampered ones.
"""
import numpy as np

from clab.reduction import (
    SpectralDecisionInstance,
    decide_energy_threshold,
    ground_energy,
    ground_energy_bracket,
    reduce_energy_decision,
    verify_eigenpair,
)


def harmonic(grid_points, box_length=20.0, threshold=1.0):
    dx = box_length / (grid_points + 1)
    x = dx * np.arange(1, grid_points + 1)
    return SpectralDecisionInstance(
        grid_points=grid_points,
        box_length=box_length,
        mass=1.0,
        potential=0.5 * (x - box_length / 2.0) ** 2,
        threshold=threshold,
    )


# --- 1. Convergence of the discretized ground energy -------------------------
print("harmonic oscillator, exact ground energy 0.5 (hbar = m = omega = 1)")
print("grid    E0 (dense)      certified bracket width   error")
for n in (64, 128, 256, 512, 1024):
    h, _ = reduce_energy_decision(harmonic(n))
    dense = ground_energy(h)
    lower, upper = ground_energy_bracket(h, dense)
    print(f"{n:<6}  {dense:.10f}  {upper - lower:.2e}                  {abs(dense - 0.5):.2e}")

# --- 2. Threshold decisions ---------------------------------------------------
for threshold in (1.0, 0.5001, 0.25):
    inst = harmonic(512, threshold=threshold)
    print(f"ground energy <= {threshold}?  ->  {decide_energy_threshold(inst)}")

# --- 3. Verification is cheap -------------------------------------------------
h, _ = reduce_energy_decision(harmonic(512))
w, v = np.linalg.eigh(h.dense())  # full reference spectrum, built on demand
tol = 1e-8
print(f"\nverifier at tol {tol:.0e}:")
print(f"  exact ground pair accepted: {verify_eigenpair(h, v[:, 0], w[0], tol)}")
print(f"  exact 10th pair accepted:   {verify_eigenpair(h, v[:, 10], w[10], tol)}")
scale = np.abs(w).max()
print(f"  energy nudged by 10*tol*|H|: {verify_eigenpair(h, v[:, 0], w[0] + 10 * tol * scale, tol)}")
rng = np.random.default_rng(0)
phi = rng.standard_normal(512)
phi /= np.linalg.norm(phi)
print(f"  random vector at E0:         {verify_eigenpair(h, phi, w[0], tol)}")
