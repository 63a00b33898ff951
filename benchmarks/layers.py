"""The per-layer metrics of clab, derived from a traced batch.

``install`` wraps the public functions of every clab layer; ``metrics``
turns the recorded spans into the per-layer metrics that BENCHMARK.json
lists. Which end-to-end metric each one should move, and on which
workload, is tabled in README.md.
"""
from __future__ import annotations

from tracer import Hook, Stats, Tracer, install as install_wrappers, summarize

PACKAGE = "clab"
MODULES = ("cli", "runner", "qcore", "reduction", "montecarlo", "decoherence", "stochastic", "svgplot")

HOOKS = {
    # The kernel's self time excludes H(t) assembly, its callable argument.
    "qcore.integrate_tdse": Hook(count="steps", callback="reduction.h_of_t"),
    # mc_mean's self time excludes the per-trial function f.
    "montecarlo.mc_mean": Hook(count="n", callback="montecarlo.mc_mean.f"),
    "montecarlo.uniform01": Hook(size="index"),
    "reduction.ground_energy": Hook(key="method"),
}

# Solve and verify times for the ratio are taken on the same 2048-point
# operator: the `zero2048` job solves it, `certify2048` verifies pairs on it.
SOLVE_JOB = "zero2048"
VERIFY_JOB = "certify2048"

# (metric, unit, span it needs) in BENCHMARK.json order; the span decides
# whether the metric is absent when a wrap target disappears.
LAYER_METRICS = [
    ("qcore.integrate_tdse.self_s", "s", "qcore.integrate_tdse"),
    ("qcore.integrate_tdse.steps", "count", "qcore.integrate_tdse"),
    ("qcore.integrate_tdse.us_per_step", "us", "qcore.integrate_tdse"),
    ("reduction.h_of_t.total_s", "s", "qcore.integrate_tdse"),
    ("reduction.h_of_t.calls", "count", "qcore.integrate_tdse"),
    ("reduction.build_begin_hamiltonian.total_s", "s", "reduction.build_begin_hamiltonian"),
    ("reduction.build_begin_hamiltonian.calls", "count", "reduction.build_begin_hamiltonian"),
    ("reduction.build_cost_hamiltonian.total_s", "s", "reduction.build_cost_hamiltonian"),
    ("reduction.build_cost_hamiltonian.calls", "count", "reduction.build_cost_hamiltonian"),
    ("reduction.brute_force_exact_cover.total_s", "s", "reduction.brute_force_exact_cover"),
    ("reduction.brute_force_exact_cover.calls", "count", "reduction.brute_force_exact_cover"),
    ("reduction.adiabatic_run.self_s", "s", "reduction.adiabatic_run"),
    ("reduction.reduce_energy_decision.total_s", "s", "reduction.reduce_energy_decision"),
    ("reduction.ground_energy.dense_s", "s", "reduction.ground_energy"),
    ("reduction.ground_energy.inverse_s", "s", "reduction.ground_energy"),
    ("reduction.verify_eigenpair.total_s", "s", "reduction.verify_eigenpair"),
    ("reduction.verify_eigenpair.calls", "count", "reduction.verify_eigenpair"),
    ("reduction.verify_eigenpair.mean_us", "us", "reduction.verify_eigenpair"),
    ("reduction.solve_to_verify_ratio", "ratio", "reduction.verify_eigenpair"),
    ("montecarlo.derive_seed.total_s", "s", "montecarlo.derive_seed"),
    ("montecarlo.derive_seed.calls", "count", "montecarlo.derive_seed"),
    ("montecarlo.mc_mean.self_s", "s", "montecarlo.mc_mean"),
    ("montecarlo.mc_mean.trials", "count", "montecarlo.mc_mean"),
    ("montecarlo.trials_per_s", "1/s", "montecarlo.mc_mean"),
    ("montecarlo.uniform01.total_s", "s", "montecarlo.uniform01"),
    ("montecarlo.uniform01.draws", "count", "montecarlo.uniform01"),
    ("decoherence.sample_random_detector.total_s", "s", "decoherence.sample_random_detector"),
    ("decoherence.sample_random_detector.calls", "count", "decoherence.sample_random_detector"),
    ("decoherence.prob_closed_form.total_s", "s", "decoherence.prob_closed_form"),
    ("decoherence.prob_closed_form.calls", "count", "decoherence.prob_closed_form"),
    ("stochastic.sample_energies.total_s", "s", "stochastic.sample_energies"),
    ("stochastic.overlap_probability.total_s", "s", "stochastic.overlap_probability"),
    ("runner.validate_config.total_s", "s", "runner.validate_config"),
    ("runner.run.self_s", "s", "runner.run"),
    ("runner.emit.total_s", "s", "runner.emit"),
    ("svgplot.line_chart.total_s", "s", "svgplot.line_chart"),
    ("cli.main.self_s", "s", "cli.main"),
]


def install():
    """Start tracing every clab layer; returns the tracer and the span names wrapped."""
    tracer = Tracer()
    return tracer, install_wrappers(tracer, PACKAGE, MODULES, HOOKS)


def _per(total: float, n: float, scale: float = 1.0) -> float:
    return scale * total / n if n else 0.0


def metrics(tracer: Tracer, wrapped: set[str]) -> tuple[dict[str, float], list[str]]:
    """Per-layer metric values and the names of the absent ones.

    A metric whose span was not wrapped is absent and reads 0. A metric of
    a layer that the workload does not exercise reads 0 as measured; so
    does a ratio whose base is 0.
    """
    stats = summarize(tracer.spans)

    def st(name: str) -> Stats:
        return stats.get(name, Stats())

    tdse, h = st("qcore.integrate_tdse"), st("reduction.h_of_t")
    mc, verify = st("montecarlo.mc_mean"), st("reduction.verify_eigenpair")
    solve = summarize(tracer.spans, job=SOLVE_JOB).get("reduction.ground_energy")
    checked = summarize(tracer.spans, job=VERIFY_JOB).get("reduction.verify_eigenpair")
    ratio = 0.0
    if solve and checked:
        ratio = _per(solve.total_s, solve.calls) / _per(checked.total_s, checked.calls)
    values = {
        "qcore.integrate_tdse.self_s": tdse.self_s,
        "qcore.integrate_tdse.steps": tdse.count,
        "qcore.integrate_tdse.us_per_step": _per(tdse.total_s, tdse.count, 1e6),
        "reduction.h_of_t.total_s": h.total_s,
        "reduction.h_of_t.calls": h.calls,
        "reduction.adiabatic_run.self_s": st("reduction.adiabatic_run").self_s,
        "reduction.ground_energy.dense_s": st("reduction.ground_energy[dense]").total_s,
        "reduction.ground_energy.inverse_s": st("reduction.ground_energy[inverse]").total_s,
        "reduction.verify_eigenpair.mean_us": _per(verify.total_s, verify.calls, 1e6),
        "reduction.solve_to_verify_ratio": ratio,
        "montecarlo.mc_mean.self_s": mc.self_s,
        "montecarlo.mc_mean.trials": mc.count,
        "montecarlo.trials_per_s": _per(mc.count, mc.total_s),
        "montecarlo.uniform01.draws": st("montecarlo.uniform01").count,
        "runner.run.self_s": st("runner.run").self_s,
        "cli.main.self_s": st("cli.main").self_s,
    }
    absent = []
    for name, _unit, span in LAYER_METRICS:
        if span not in wrapped:
            absent.append(name)
            values[name] = 0.0
        elif name not in values:
            base, field = name.rsplit(".", 1)
            values[name] = getattr(st(base), field)
    return values, absent
