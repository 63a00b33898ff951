"""The benchmark's three workloads: fixed job lists and their output checks.

Every input is generated here from the workload seed; clab only sees the
resulting config files. Checks read nothing but the ``outputs`` block of
the JSON each job emits (or, for the certification job, the accept and
reject verdicts of ``verify_eigenpair``) and use the acceptance gate's
tolerances. Each check returns a list of failures, empty when it passes.
"""
from __future__ import annotations

import hashlib
import json
import math
import random
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

__all__ = ["Job", "WORKLOADS", "JOB_NAMES", "build", "sub_seed", "exact_covers"]

# Twelve log-spaced interaction times in [1e-4, 1].
TAUS = [10.0 ** (-4.0 + 4.0 * i / 11.0) for i in range(12)]

HARMONIC_GRID = {"box_length": 20.0, "mass": 1.0, "potential": {"kind": "harmonic", "omega": 1.0}}
ZERO_GRID = {"grid_points": 2048, "box_length": 20.0, "mass": 1.0, "potential": {"kind": "zero"}}
CERTIFY_KS = (1, 1024, 2048)
VERIFY_TOL = 1e-8


@dataclass
class Job:
    """One job: a CLI run of ``experiment`` on ``config``, or (experiment None) a certification."""

    name: str
    experiment: str | None
    config: dict
    check: Callable[[dict], list[str]]


def sub_seed(seed: int, name: str) -> int:
    """Per-job seed derived from the workload seed; stable across Python versions."""
    return int.from_bytes(hashlib.sha256(f"{seed}/{name}".encode()).digest()[:7], "big")


def exact_covers(instance: dict) -> set[str]:
    """Satisfying bitstrings by enumeration; bit 1 is the leftmost character."""
    n, clauses = instance["n"], instance["clauses"]
    out = set()
    for z in range(1 << n):
        bits = format(z, f"0{n}b")
        if all(int(bits[i - 1]) + int(bits[j - 1]) + int(bits[k - 1]) == 1 for i, j, k in clauses):
            out.add(bits)
    return out


# ---------------------------------------------------------------------------
# adiabatic
# ---------------------------------------------------------------------------

def _adiabatic(seed: int, root: Path) -> list[Job]:
    jobs = []
    for name, file in (("ec_n3", "ec_n3_single.json"), ("ec_n6", "ec_n6_unique.json"), ("ec_n8", "ec_n8_unique.json")):
        path = root / "instances" / file
        satisfying = exact_covers(json.loads(path.read_text(encoding="utf-8")))

        def check(outputs, satisfying=satisfying):
            errors = []
            final = outputs["rows"][-1]["success_probability"]
            if not final >= 0.9:
                errors.append(f"final success {final} < 0.9")
            best = outputs["summary"]["most_probable_bitstring"]
            if best not in satisfying:
                errors.append(f"most probable bitstring {best} is not an exact cover")
            return errors

        config = {
            "experiment": "adiabatic",
            "seed": sub_seed(seed, name),
            "params": {"instance_path": str(path), "schedule": {"T_min": 1.0, "doublings": 7, "target": 0.9}},
        }
        jobs.append(Job(name, "adiabatic", config, check))
    return jobs


# ---------------------------------------------------------------------------
# spectral
# ---------------------------------------------------------------------------

def _zero_ground_energy(grid: dict, k: int = 1) -> float:
    """Exact k-th eigenvalue 2t(1 - cos(k pi/(N+1))) of the zero-potential grid operator (hbar = 1)."""
    n = grid["grid_points"]
    dx = grid["box_length"] / (n + 1)
    t = 1.0 / (2.0 * grid["mass"] * dx * dx)
    return 2.0 * t * (1.0 - math.cos(k * math.pi / (n + 1)))


def _spectral_check(expect_ground=None, ground_rel=None, ground_abs=None, decision=None):
    def check(outputs):
        errors = []
        row, summary = outputs["rows"][0], outputs["summary"]
        energy, threshold = summary["ground_energy"], summary["threshold"]
        if not row["solver_relative_gap"] <= 1e-9:
            errors.append(f"dense vs inverse gap {row['solver_relative_gap']} > 1e-9")
        if ground_rel is not None and not abs(energy - expect_ground) <= ground_rel * abs(expect_ground):
            errors.append(f"ground energy {energy} not within {ground_rel:.0%} of {expect_ground}")
        if ground_abs is not None and not abs(energy - expect_ground) <= ground_abs * max(1.0, abs(expect_ground)):
            errors.append(f"ground energy {energy} differs from exact {expect_ground} by more than {ground_abs}")
        consistent = energy <= threshold + 1e-9 * max(1.0, abs(threshold))
        if summary["decision"] is not consistent:
            errors.append(f"decision {summary['decision']} disagrees with ground {energy} vs threshold {threshold}")
        if decision is not None and summary["decision"] is not decision:
            errors.append(f"decision {summary['decision']}, expected {decision}")
        return errors

    return check


def _smooth_potential(seed: int, n: int) -> list[float]:
    """A few random Fourier modes on [0, 1], in the style of acceptance criterion 8."""
    rng = random.Random(seed)
    modes = [(rng.uniform(-5.0, 5.0), rng.uniform(0.0, 2.0 * math.pi)) for _ in range(4)]
    xs = [i / (n - 1) for i in range(n)]
    return [sum(a * math.sin((m + 1) * math.pi * x + phase) for m, (a, phase) in enumerate(modes)) for x in xs]


def _certify_check(outputs):
    errors = []
    for pair in outputs["pairs"]:
        if pair["accepted"] is not True:
            errors.append(f"exact pair k={pair['k']} rejected")
        if pair["perturbed_rejected"] is not True:
            errors.append(f"perturbed pair k={pair['k']} accepted")
    return errors


def _spectral(seed: int, root: Path) -> list[Job]:
    def config(name, grid, e_b):
        return {"experiment": "spectral", "seed": sub_seed(seed, name), "params": {"grid": grid, "E_B": e_b}}

    values = {"grid_points": 1024, "box_length": 10.0, "mass": 1.0,
              "potential": {"kind": "values", "values": _smooth_potential(sub_seed(seed, "values1024"), 1024)}}
    return [
        Job("harmonic4096", "spectral", config("harmonic4096", {"grid_points": 4096, **HARMONIC_GRID}, 1.0),
            _spectral_check(0.5, ground_rel=0.01, decision=True)),
        Job("zero2048", "spectral", config("zero2048", ZERO_GRID, 1.0),
            _spectral_check(_zero_ground_energy(ZERO_GRID), ground_abs=1e-9)),
        Job("harmonic512_eb1", "spectral", config("harmonic512_eb1", {"grid_points": 512, **HARMONIC_GRID}, 1.0),
            _spectral_check(0.5, ground_rel=0.01, decision=True)),
        Job("harmonic512_eb025", "spectral", config("harmonic512_eb025", {"grid_points": 512, **HARMONIC_GRID}, 0.25),
            _spectral_check(0.5, ground_rel=0.01, decision=False)),
        Job("values1024", "spectral", config("values1024", values, 0.0), _spectral_check()),
        Job("certify2048", None, {
            "grid": ZERO_GRID,
            "pairs": [
                {"k": k, "energy": _zero_ground_energy(ZERO_GRID, k)} for k in CERTIFY_KS
            ],
            "tol": VERIFY_TOL,
            "norm": _zero_ground_energy(ZERO_GRID, ZERO_GRID["grid_points"]),
        }, _certify_check),
    ]


# ---------------------------------------------------------------------------
# montecarlo
# ---------------------------------------------------------------------------

def _within_stderr(outputs):
    errors = []
    for row in outputs["rows"]:
        if not abs(row["p_mean"] - row["p_analytic"]) <= 4.0 * max(row["p_stderr"], 1e-12):
            errors.append(f"tau={row['tau']}: p_mean {row['p_mean']} vs analytic {row['p_analytic']} "
                          f"beyond 4 stderr ({row['p_stderr']})")
    return errors


def _classical_limit(outputs):
    final = outputs["rows"][-1]["p_mean"]
    return [] if abs(final - 0.5) <= 0.02 else [f"final p_mean {final} outside 0.5 +- 0.02"]


def _probabilities(outputs):
    return [f"tau={r['tau']}: p_mean {r['p_mean']} outside [0, 1]"
            for r in outputs["rows"] if not -1e-12 <= r["p_mean"] <= 1.0 + 1e-12]


def _compare_check(outputs):
    diff = outputs["summary"]["final_abs_difference"]
    return [] if diff <= 0.02 else [f"final abs_difference {diff} > 0.02"]


def _montecarlo(seed: int, root: Path) -> list[Job]:
    def config(name, experiment, params):
        return {"experiment": experiment, "seed": sub_seed(seed, name), "params": params}

    return [
        Job("decohere_k1000", "decohere",
            config("decohere_k1000", "decohere", {"K": 1000, "energy_scale": 1e4, "tau": TAUS, "trials": 100}),
            _classical_limit),
        Job("decohere_k8", "decohere",
            config("decohere_k8", "decohere", {"K": 8, "energy_scale": 50.0, "tau": TAUS, "trials": 500}),
            _probabilities),
        Job("stochastic_uniform", "stochastic",
            config("stochastic_uniform", "stochastic",
                   {"A_tilde": 5e3, "B_tilde": 5e3, "mode": "uniform_argument", "tau": TAUS, "n": 1_000_000}),
            _within_stderr),
        Job("stochastic_independent", "stochastic",
            config("stochastic_independent", "stochastic",
                   {"A_tilde": 5e3, "B_tilde": 2e3, "mode": "independent_uniform", "tau": TAUS, "n": 1_000_000}),
            _within_stderr),
        # The parameters of demos/comparison_demo.py, with a derived seed.
        Job("compare_demo", "compare",
            config("compare_demo", "compare", {
                "K": 400,
                "energy_scale": [1.0, 3.0, 10.0, 30.0, 100.0, 300.0, 1000.0, 10000.0],
                "tau": 1.0,
                "trials": 80,
                "n": 200_000,
            }),
            _compare_check),
    ]


WORKLOADS = {"adiabatic": _adiabatic, "spectral": _spectral, "montecarlo": _montecarlo}

JOB_NAMES = (
    "ec_n3", "ec_n6", "ec_n8",
    "harmonic4096", "zero2048", "harmonic512_eb1", "harmonic512_eb025", "values1024", "certify2048",
    "decohere_k1000", "decohere_k8", "stochastic_uniform", "stochastic_independent", "compare_demo",
)


def build(workload: str, seed: int, root: Path) -> list[Job]:
    """The fixed job list of ``workload`` with inputs drawn from ``seed``."""
    return WORKLOADS[workload](seed, root)
