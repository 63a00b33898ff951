#!/usr/bin/env python3
"""The stochastic-interaction route to the same classical value.

Here no detector microstate is tracked at all: each experiment instance
draws one pair of energy uncertainties, the solution is a pure phase per
branch, and the average over instances carries a sin(xi)/xi envelope that
dies off as the phase span xi grows.

Writes demos/output/stochastic_envelope.svg.
"""
from pathlib import Path

import numpy as np

from clab.decoherence import DetectorModel, prob_full_propagation, propagate_exact
from clab.stochastic import (
    StochasticInteraction,
    analytic_mean_probability,
    mc_probability,
    mean_cos_uniform,
    overlap_probability,
    phase_span,
    sample_energies,
)
from clab.svgplot import Series, line_chart

OUT = Path(__file__).parent / "output"
OUT.mkdir(exist_ok=True)

# --- 1. One instance end to end ----------------------------------------------
# An instance is one detector configuration of the decoherence route, with
# branch energies A_tilde + alpha and B_tilde + beta: its exact evolution is
# a pure phase per branch, and its return probability is the cos^2 law.
s = StochasticInteraction(a_tilde=4.0, b_tilde=1.5, mode="independent_uniform")
sample = sample_energies(s, seed=0, index=0)
detector = DetectorModel([1.0], [s.a_tilde + sample.alpha], [s.b_tilde + sample.beta])
phases = np.angle(propagate_exact(detector, tau=1.0).amps)
print(f"one instance: alpha={sample.alpha:+.4f} beta={sample.beta:+.4f}")
print(f"  branch phases (mod 2 pi): {phases[0]:+.4f}, {phases[1]:+.4f}")
print(f"  return probability: {overlap_probability(s, sample, 1.0):.6f} (cos^2 law), "
      f"{prob_full_propagation(detector, 1.0).p_sx_plus:.6f} (full propagation)")

# --- 2. The envelope: MC average vs sin(xi)/xi ------------------------------
# With equal best guesses the expected probability is
# 1/2 + (1/2) * sin(xi)/xi, xi = (A_tilde + B_tilde) tau / hbar.
print("\nxi          MC mean     analytic    stderr")
xis = [0.5, 1.0, 2.0, np.pi, 6.0, 10.0, 30.0, 100.0, 1e3, 1e4]
mc_means, analytic_means = [], []
for xi in xis:
    model = StochasticInteraction(a_tilde=xi / 2.0, b_tilde=xi / 2.0)
    est = mc_probability(model, tau=1.0, seed=3, n=200_000)
    ana = analytic_mean_probability(model, 1.0)
    mc_means.append(est.mean)
    analytic_means.append(ana)
    print(f"{xi:<10.4g}  {est.mean:.5f}     {ana:.5f}     {est.stderr:.5f}")

print(f"\nsanity: phase_span at xi=10 is {phase_span(StochasticInteraction(5.0, 5.0), 1.0):.1f}")
print(f"sin(1e4)/1e4 = {mean_cos_uniform(1e4):.2e}  (classical regime)")

chart = line_chart(
    [
        Series(label="Monte Carlo", xs=tuple(xis), ys=tuple(mc_means)),
        Series(label="1/2 + sinc/2", xs=tuple(xis), ys=tuple(analytic_means)),
    ],
    title="Stochastic return probability vs phase span",
    xlabel="xi = (A_tilde + B_tilde) tau / hbar",
    ylabel="probability",
    logx=True,
)
path = OUT / "stochastic_envelope.svg"
path.write_text(chart)
print(f"wrote {path}")
