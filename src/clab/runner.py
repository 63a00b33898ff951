"""Experiment configuration, dispatch, and result emission.

Five experiment families share one config shape:

    {"experiment": <name>, "seed": <uint64>, "hbar": <float>, "params": {...}}

Unknown keys are rejected at every level and all validation failures name
the offending field path. A run is a pure function of (config, seed): the
emitted JSON payload is byte-identical across repeats except for the
wall-clock field.

The library works in natural units (hbar = 1). ``validate_config`` checks
fields and size limits; ``hbar`` is read only by the runners, which apply it
once, at the edge: they hand the kernels the times tau / hbar and T / hbar,
and the grid the mass m / hbar / hbar, while the payload echoes the
configured values. Each runner checks the numbers it forms before any work.
"""
from __future__ import annotations

import csv
import json
import math
import sys
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .decoherence import decohered_probability_sweep
from .montecarlo import derive_seed
from .reduction import (
    EVOLUTION_MAX_BITS,
    SWEEP_MAX_STEPS,
    GridHamiltonian,
    SpectralDecisionInstance,
    below_threshold,
    bitstring_satisfies,
    ground_energy,
    ground_energy_bracket,
    load_instance,
    most_probable_bitstring,
    projected_steps,
    reduce_energy_decision,
    success_sweep,
)
from .stochastic import (
    SAMPLING_MODES,
    StochasticInteraction,
    analytic_mean_probability,
    mc_probability_sweep,
    phase_span,
)
from .svgplot import Series, line_chart

__all__ = [
    "EXPERIMENTS",
    "ConfigError",
    "NumericalFailure",
    "ResultRecord",
    "validate_config",
    "run",
    "emit",
    "record_to_json",
]

EXPERIMENTS = ("decohere", "stochastic", "compare", "adiabatic", "spectral")

EMIT_FORMATS = ("json", "csv", "svg")

# Limits on one sweep's Monte Carlo draws (K * trials or n) and cos^2 evaluations (draws times taus),
# checked before any work. At the draw limit a decohere run with K = 10^7, trials = 1 and one tau
# peaks at 412 MiB maxrss and takes 1.1-1.5 s (CLI process, 2 shared vCPUs).
MAX_DRAWS = 10_000_000
MAX_EVALUATIONS = 10**9


class ConfigError(ValueError):
    """Invalid configuration; ``path`` names the offending field."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


class NumericalFailure(RuntimeError):
    """A run produced non-finite or otherwise unusable numbers."""


@dataclass
class ResultRecord:
    """Everything one run produced, plus the config that produced it."""

    experiment: str
    config: dict
    outputs: dict
    warnings: list = field(default_factory=list)
    wall_clock_s: float = 0.0
    version: str = __version__


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def _check_keys(mapping: dict, path: str, required, optional=()) -> None:
    """Reject the first unknown key, then the first absent one of ``required``."""
    allowed = {*required, *optional}
    extra = sorted(set(mapping) - allowed)
    if extra:
        raise ConfigError(f"{path}.{extra[0]}", f"unknown key (allowed: {sorted(allowed)})")
    for key in required:
        if key not in mapping:
            raise ConfigError(f"{path}.{key}", "missing required key")


def _as_int(value, path: str, minimum: int | None = None, maximum: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(path, f"expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(path, f"must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise ConfigError(path, f"must be <= {maximum}, got {value}")
    return value


def _as_float(value, path: str, minimum: float | None = None, strict_positive: bool = False) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(path, f"expected a number, got {value!r}")
    try:
        out = float(value)
    except OverflowError:  # an integer beyond the float range
        out = math.inf
    if not math.isfinite(out):
        raise ConfigError(path, f"must be finite, got {out}")
    if strict_positive and out <= 0:
        raise ConfigError(path, f"must be > 0, got {out}")
    if minimum is not None and out < minimum:
        raise ConfigError(path, f"must be >= {minimum}, got {out}")
    return out


def _as_float_items(items: list, path: str, minimum: float | None = None, strict_positive: bool = False) -> list[float]:
    """``_as_float`` of every item; the item path ``path[i]`` is built only for the first that fails."""
    try:
        return [_as_float(item, path, minimum, strict_positive) for item in items]
    except ConfigError:
        for pos, item in enumerate(items):
            _as_float(item, f"{path}[{pos}]", minimum, strict_positive)
        raise


def _as_float_list(value, path: str, minimum: float | None = None, strict_positive: bool = False) -> list[float]:
    if not isinstance(value, list):
        return [_as_float(value, path, minimum, strict_positive)]
    if not value:
        raise ConfigError(path, "list must not be empty")
    return _as_float_items(value, path, minimum, strict_positive)


def _require_at_most(limit: int, count: int, path: str, what: str) -> None:
    if count > limit:
        raise ConfigError(path, f"{count:,} {what}; at most {limit:,} are allowed")


def _validate_decohere(params: dict) -> dict:
    _check_keys(params, "params", ("K", "energy_scale", "tau", "trials"))
    normalized = {
        "K": _as_int(params["K"], "params.K", minimum=1),
        "energy_scale": _as_float(params["energy_scale"], "params.energy_scale", strict_positive=True),
        "tau": _as_float_list(params["tau"], "params.tau", minimum=0.0),
        "trials": _as_int(params["trials"], "params.trials", minimum=1),
    }
    draws = normalized["K"] * normalized["trials"]
    _require_at_most(MAX_DRAWS, draws, "params.K", "Monte Carlo draws (K * trials)")
    _require_at_most(MAX_EVALUATIONS, len(normalized["tau"]) * draws, "params.tau", "cos^2 evaluations")
    return normalized


def _validate_stochastic(params: dict) -> dict:
    _check_keys(params, "params", ("A_tilde", "B_tilde", "tau", "n"), ("mode",))
    mode = params.get("mode", "uniform_argument")
    if mode not in SAMPLING_MODES:
        raise ConfigError("params.mode", f"must be one of {list(SAMPLING_MODES)}, got {mode!r}")
    normalized = {
        "A_tilde": _as_float(params["A_tilde"], "params.A_tilde", minimum=0.0),
        "B_tilde": _as_float(params["B_tilde"], "params.B_tilde", minimum=0.0),
        "mode": mode,
        "tau": _as_float_list(params["tau"], "params.tau", minimum=0.0),
        "n": _as_int(params["n"], "params.n", minimum=2),
    }
    _require_at_most(MAX_DRAWS, normalized["n"], "params.n", "Monte Carlo draws (n)")
    _require_at_most(MAX_EVALUATIONS, len(normalized["tau"]) * normalized["n"], "params.tau", "cos^2 evaluations")
    return normalized


def _validate_compare(params: dict) -> dict:
    _check_keys(params, "params", ("K", "energy_scale", "tau", "trials", "n"))
    normalized = {
        "K": _as_int(params["K"], "params.K", minimum=1),
        "energy_scale": _as_float_list(params["energy_scale"], "params.energy_scale", strict_positive=True),
        "tau": _as_float(params["tau"], "params.tau", minimum=0.0),
        "trials": _as_int(params["trials"], "params.trials", minimum=1),
        "n": _as_int(params["n"], "params.n", minimum=2),
    }
    draws = normalized["K"] * normalized["trials"]
    _require_at_most(MAX_DRAWS, draws, "params.K", "Monte Carlo draws (K * trials)")
    _require_at_most(MAX_DRAWS, normalized["n"], "params.n", "Monte Carlo draws (n)")
    evaluations = len(normalized["energy_scale"]) * (draws + normalized["n"])
    _require_at_most(MAX_EVALUATIONS, evaluations, "params.energy_scale", "cos^2 evaluations")
    return normalized


def _validate_adiabatic(params: dict) -> dict:
    _check_keys(params, "params", ("instance_path", "schedule"))
    if not isinstance(params["instance_path"], str):
        raise ConfigError("params.instance_path", f"expected a path string, got {params['instance_path']!r}")
    schedule = params["schedule"]
    if not isinstance(schedule, dict):
        raise ConfigError("params.schedule", "expected an object with T_min/doublings/target")
    _check_keys(schedule, "params.schedule", ("T_min",), ("doublings", "target"))
    normalized = {
        "T_min": _as_float(schedule["T_min"], "params.schedule.T_min", strict_positive=True),
        "doublings": _as_int(schedule.get("doublings", 6), "params.schedule.doublings", minimum=0, maximum=16),
        "target": _as_float(schedule.get("target", 0.9), "params.schedule.target", minimum=0.0),
    }
    if normalized["target"] > 1.0:
        raise ConfigError("params.schedule.target", f"must be <= 1 (a probability), got {normalized['target']}")
    return {"instance_path": params["instance_path"], "schedule": normalized}


def _validate_spectral(params: dict) -> dict:
    _check_keys(params, "params", ("grid", "E_B"))
    grid = params["grid"]
    if not isinstance(grid, dict):
        raise ConfigError("params.grid", "expected an object")
    _check_keys(grid, "params.grid", ("grid_points", "box_length", "mass", "potential"))
    n = _as_int(grid["grid_points"], "params.grid.grid_points", minimum=3, maximum=4096)
    potential = grid["potential"]
    if not isinstance(potential, dict) or "kind" not in potential:
        raise ConfigError("params.grid.potential", "expected an object with a 'kind' key")
    kind = potential["kind"]
    if kind == "zero":
        _check_keys(potential, "params.grid.potential", ("kind",))
        pot = {"kind": "zero"}
    elif kind == "harmonic":
        _check_keys(potential, "params.grid.potential", ("kind", "omega"))
        pot = {"kind": "harmonic", "omega": _as_float(potential["omega"], "params.grid.potential.omega", strict_positive=True)}
    elif kind == "values":
        _check_keys(potential, "params.grid.potential", ("kind", "values"))
        values = potential["values"]
        if not (isinstance(values, list) and len(values) == n):
            raise ConfigError("params.grid.potential.values", f"need a list of {n} samples for grid_points={n}")
        pot = {"kind": "values", "values": _as_float_items(values, "params.grid.potential.values")}
    else:
        raise ConfigError("params.grid.potential.kind", f"must be 'zero', 'harmonic', or 'values', got {kind!r}")
    return {
        "grid": {
            "grid_points": n,
            "box_length": _as_float(grid["box_length"], "params.grid.box_length", strict_positive=True),
            "mass": _as_float(grid["mass"], "params.grid.mass", strict_positive=True),
            "potential": pot,
        },
        "E_B": _as_float(params["E_B"], "params.E_B"),
    }


_VALIDATORS = {
    "decohere": _validate_decohere,
    "stochastic": _validate_stochastic,
    "compare": _validate_compare,
    "adiabatic": _validate_adiabatic,
    "spectral": _validate_spectral,
}


def validate_config(raw: dict) -> dict:
    """Normalize a raw config dict: keys, types and ranges of every field, and the Monte Carlo size limits.

    ``hbar`` is only validated. Each runner checks the numbers it forms from it before any work: the Monte
    Carlo spans, the adiabatic instance, T_min / hbar and steps, and the spectral potential. The stochastic
    draw width and the grid's diagonal are refused by the interaction and the operator, and the runner names
    the field.
    """
    if not isinstance(raw, dict):
        raise ConfigError("$", f"config must be an object, got {type(raw).__name__}")
    _check_keys(raw, "$", (), ("experiment", "seed", "hbar", "params"))
    experiment = raw.get("experiment")
    if experiment not in EXPERIMENTS:
        raise ConfigError("experiment", f"must be one of {list(EXPERIMENTS)}, got {experiment!r}")
    seed = raw.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int) or not 0 <= seed < 2**64:
        raise ConfigError("seed", f"must be an integer in [0, 2^64), got {seed!r}")
    hbar = _as_float(raw.get("hbar", 1.0), "hbar", strict_positive=True)
    params = raw.get("params")
    if not isinstance(params, dict):
        raise ConfigError("params", "missing or not an object")
    return {"experiment": experiment, "seed": seed, "hbar": hbar, "params": _VALIDATORS[experiment](params)}


# ---------------------------------------------------------------------------
# Experiment runners
# ---------------------------------------------------------------------------

def _chart(rows: list, x: str, ys: list, title: str, xlabel: str, ylabel: str) -> dict | None:
    """The chart block of a sweep's payload; None for a single row. Log x when every x is positive."""
    if len(rows) < 2:
        return None
    logx = all(row[x] > 0 for row in rows)
    return {"x": x, "ys": ys, "title": title, "xlabel": xlabel, "ylabel": ylabel, "logx": logx}


def _require_finite_span(scale: float, tau: float, hbar: float, formed, path: str) -> None:
    """Reject, before any work, a natural-unit time or phase span scale * tau / hbar that the run formed as non-finite."""
    if not all(map(math.isfinite, formed)):
        raise ConfigError(path, f"phase span scale * time / hbar = {scale:g} * {tau:g} / {hbar:g} is not finite")


def _natural_span(scale: float, tau: float, hbar: float) -> float:
    """scale * tau / hbar with no intermediate overflow or underflow; inf when the result overflows.

    The significands' product and quotient are rounded as ``scale * tau /
    hbar`` rounds them, and the exponents are applied last, so wherever
    that expression's product and quotient are both finite and normal, the
    result is bit-identical to it; a result below the normal range may
    differ in its last bit.
    """
    (m_scale, e_scale), (m_tau, e_tau), (m_hbar, e_hbar) = map(math.frexp, (scale, tau, hbar))
    try:
        return math.ldexp(m_scale * m_tau / m_hbar, e_scale + e_tau - e_hbar)
    except OverflowError:
        return math.inf


def _run_decohere(config: dict) -> dict:
    p, hbar = config["params"], config["hbar"]
    scale = p["energy_scale"]
    times = [tau / hbar for tau in p["tau"]]
    spreads = [scale * time for time in times]  # the phase span the kernel forms
    for tau, time, spread in zip(p["tau"], times, spreads):
        _require_finite_span(scale, tau, hbar, (time, spread), "params.tau")
    estimates = decohered_probability_sweep(p["K"], scale, times, seed=config["seed"], trials=p["trials"])
    rows = []
    for tau, spread, est in zip(p["tau"], spreads, estimates):
        rows.append(
            {
                "tau": tau,
                "spread": spread,
                "p_mean": est.mean,
                "p_stderr": est.stderr,
            }
        )
    return {
        "rows": rows,
        "summary": {"K": p["K"], "energy_scale": p["energy_scale"], "trials": p["trials"], "final_p_mean": rows[-1]["p_mean"]},
        "chart": _chart(
            rows, "tau", ["p_mean"], "Averaged return probability vs interaction time", "tau", "probability"
        ),
    }


def _run_stochastic(config: dict) -> dict:
    p, hbar = config["params"], config["hbar"]
    a, b = p["A_tilde"], p["B_tilde"]
    taus = [tau / hbar for tau in p["tau"]]
    for tau, natural in zip(p["tau"], taus):
        _require_finite_span(a + b, tau, hbar, (natural, (a + b) * natural), "params.tau")
    try:  # the interaction refuses a draw interval wider than the float range
        interaction = StochasticInteraction(a_tilde=a, b_tilde=b, mode=p["mode"])
    except ValueError as exc:
        raise ConfigError("params.A_tilde" if a >= b else "params.B_tilde", str(exc)) from exc
    estimates = mc_probability_sweep(interaction, taus, seed=config["seed"], n=p["n"])
    rows = []
    for tau, natural, est in zip(p["tau"], taus, estimates):
        rows.append(
            {
                "tau": tau,
                "phase_span": phase_span(interaction, natural),
                "p_mean": est.mean,
                "p_stderr": est.stderr,
                "p_analytic": analytic_mean_probability(interaction, natural),
            }
        )
    return {
        "rows": rows,
        "summary": {"mode": p["mode"], "n": p["n"], "final_p_mean": rows[-1]["p_mean"]},
        "chart": _chart(
            rows, "tau", ["p_mean", "p_analytic"], "Stochastic return probability vs interaction time", "tau", "probability"
        ),
    }


def _run_compare(config: dict) -> dict:
    """Side-by-side classical limits on matched parameters.

    The detector-averaging route draws branch energies uniform on
    [0, energy_scale], so the energy difference spans energy_scale; the
    stochastic route matches it with A_tilde = B_tilde = energy_scale / 2,
    making both phase arguments range over the same span. Both laws depend
    on energy_scale and tau only through their product, so each route draws
    its samples once, at unit energy scale, and sweeps the natural-unit
    times energy_scale * tau / hbar, which are also the rows' spreads
    (see ``_natural_span``).
    """
    p, hbar = config["params"], config["hbar"]
    times = [_natural_span(energy_scale, p["tau"], hbar) for energy_scale in p["energy_scale"]]
    for energy_scale, time in zip(p["energy_scale"], times):
        _require_finite_span(energy_scale, p["tau"], hbar, (time,), "params.energy_scale")
    decohered = decohered_probability_sweep(
        p["K"], 1.0, times, seed=derive_seed(config["seed"], "decohere"), trials=p["trials"]
    )
    unit = StochasticInteraction(a_tilde=0.5, b_tilde=0.5)
    stochastic = mc_probability_sweep(unit, times, seed=derive_seed(config["seed"], "stochastic"), n=p["n"])
    rows = []
    for energy_scale, spread, dec, sto in zip(p["energy_scale"], times, decohered, stochastic):
        rows.append(
            {
                "energy_scale": energy_scale,
                "spread": spread,
                "p_decohered": dec.mean,
                "p_decohered_stderr": dec.stderr,
                "p_stochastic": sto.mean,
                "p_stochastic_stderr": sto.stderr,
                "abs_difference": abs(dec.mean - sto.mean),
            }
        )
    last = rows[-1]
    return {
        "rows": rows,
        "summary": {
            "tau": p["tau"],
            "final_abs_difference": last["abs_difference"],
            "final_p_decohered": last["p_decohered"],
            "final_p_stochastic": last["p_stochastic"],
        },
        "chart": _chart(
            rows, "spread", ["p_decohered", "p_stochastic"], "Two classical limits on matched parameters",
            "dimensionless spread", "probability",
        ),
    }


def _run_adiabatic(config: dict) -> dict:
    p = config["params"]
    try:
        inst = load_instance(p["instance_path"])
    except (OSError, ValueError, RecursionError) as exc:  # UnicodeDecodeError is a ValueError
        raise ConfigError("params.instance_path", f"cannot load instance: {exc}") from exc
    if inst.n > EVOLUTION_MAX_BITS:
        raise ConfigError(
            "params.instance_path", f"instance has n={inst.n} bits; evolution is capped at n <= {EVOLUTION_MAX_BITS}"
        )
    schedule_cfg = p["schedule"]
    total_times = [schedule_cfg["T_min"] * 2.0**k for k in range(schedule_cfg["doublings"] + 1)]
    times = [total_time / config["hbar"] for total_time in total_times]
    if not 0.0 < times[0] < math.inf:  # the sweep's shortest natural-unit time
        raise ConfigError("params.schedule.T_min", f"T_min / hbar = {times[0]:g} is not a positive finite number")
    projected = projected_steps(inst, times)
    if not projected <= SWEEP_MAX_STEPS:  # also rejects inf and NaN
        raise ConfigError(
            "params.schedule.T_min",
            f"the sweep projects {projected:.3g} integration steps "
            f"(a bound proportional to T E_max / hbar, summed over T); "
            f"at most {SWEEP_MAX_STEPS:,} are allowed",
        )
    sweep = success_sweep(inst, times, target=schedule_cfg["target"])
    rows = [{**row, "T": total_time} for row, total_time in zip(sweep.rows, total_times)]  # T as configured
    best_bits = most_probable_bitstring(sweep.state, inst.n)
    return {
        "rows": rows,
        "summary": {
            "instance_path": p["instance_path"],
            "n": inst.n,
            "clause_count": len(inst.clauses),
            "satisfying_count": sweep.satisfying_count,
            "target": schedule_cfg["target"],
            "target_reached": rows[-1]["success_probability"] >= schedule_cfg["target"],
            "most_probable_bitstring": best_bits,
            "most_probable_satisfies": bitstring_satisfies(inst, best_bits),
            "threshold_note": "success target and doubling sweep are implementation choices",
        },
        "chart": _chart(
            rows, "T", ["success_probability"], "Success probability vs total schedule time", "T", "success probability"
        ),
    }


def _spectral_operator(grid: dict, threshold: float, hbar: float) -> tuple[GridHamiltonian, float]:
    """The grid at the natural-unit mass m = mass / hbar / hbar, and its operator; a harmonic V keeps the given mass.

    V is formed in float64 under errstate, where an overflow gives inf or NaN (floats would raise at
    ``omega ** 2``), and must be finite; only a harmonic V can fail, since values are validated finite.
    ``reduce_energy_decision`` forms the diagonal 1 / (m dx^2) + V, and its refusal of a non-finite entry
    names ``params.grid.box_length``.
    """
    n, length, potential = grid["grid_points"], grid["box_length"], grid["potential"]
    dx = length / (n + 1)
    with np.errstate(all="ignore"):
        mass = np.float64(grid["mass"]) / hbar / hbar
        if potential["kind"] == "harmonic":
            x = dx * np.arange(1, n + 1)
            v = 0.5 * np.float64(grid["mass"]) * np.float64(potential["omega"]) ** 2 * (x - length / 2.0) ** 2
        else:
            v = np.asarray(potential.get("values", np.zeros(n)))  # a zero potential has no values
    inputs = f"for dx = {dx:g}, mass = {grid['mass']:g}, hbar = {hbar:g}"
    if not np.isfinite(v).all():
        raise ConfigError("params.grid.potential.omega", f"V overflows for omega = {potential['omega']:g}, {inputs}")
    try:  # an m that underflows to 0 is refused by the instance, for the same infinite kinetic term
        return reduce_energy_decision(
            SpectralDecisionInstance(grid_points=n, box_length=length, mass=float(mass), potential=v, threshold=threshold)
        )
    except ValueError as exc:
        raise ConfigError("params.grid.box_length", f"{exc} {inputs}") from exc


def _run_spectral(config: dict) -> dict:
    """The stebz ground energy, its decision, and a bracket certified around it.

    ``certified``: both ends of the bracket take the same decision (a near-tie is false, not a warning or an error).
    A lower end below the float range (-inf) is reported as the lowest float: the kinetic term is positive
    definite, so the grid's E0 is at least min V, which is finite.
    ``solver_relative_gap``, the bracket's width over max(1, |E0|), stays only for the benchmark's check.
    """
    p = config["params"]
    h, threshold = _spectral_operator(p["grid"], p["E_B"], config["hbar"])
    energy = ground_energy(h)
    lower, upper = ground_energy_bracket(h, energy)
    lower = max(lower, -sys.float_info.max)
    decision = below_threshold(energy, threshold)
    rows = [
        {
            "grid_points": p["grid"]["grid_points"],
            "ground_energy_dense": energy,
            "energy_lower": lower,
            "energy_upper": upper,
            "certified": below_threshold(lower, threshold) == below_threshold(upper, threshold),
            "solver_relative_gap": (upper - lower) / max(1.0, abs(energy)),
            "threshold": threshold,
            "decision": decision,
        }
    ]
    return {
        "rows": rows,
        "summary": {
            "ground_energy": energy,
            "threshold": threshold,
            "decision": decision,
            "potential_kind": p["grid"]["potential"]["kind"],
        },
        "chart": None,
    }


_RUNNERS = {
    "decohere": _run_decohere,
    "stochastic": _run_stochastic,
    "compare": _run_compare,
    "adiabatic": _run_adiabatic,
    "spectral": _run_spectral,
}


def _check_finite(obj, where: str) -> None:
    if isinstance(obj, dict):
        for key, value in obj.items():
            _check_finite(value, f"{where}.{key}")
    elif isinstance(obj, list):
        for pos, value in enumerate(obj):
            _check_finite(value, f"{where}[{pos}]")
    elif isinstance(obj, float) and not math.isfinite(obj):
        raise NumericalFailure(f"non-finite value at {where}: {obj}")


def run(config: dict) -> ResultRecord:
    """Validate, dispatch, and package one experiment run."""
    normalized = validate_config(config)
    started = time.perf_counter()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            outputs = _RUNNERS[normalized["experiment"]](normalized)
        except ConfigError:
            raise
        except (ValueError, ArithmeticError) as exc:  # np.linalg.LinAlgError is a ValueError
            raise NumericalFailure(f"{normalized['experiment']}: {type(exc).__name__}: {exc}") from exc
    _check_finite(outputs, "outputs")
    return ResultRecord(
        experiment=normalized["experiment"],
        config=normalized,
        outputs=outputs,
        warnings=[str(w.message) for w in caught],
        wall_clock_s=time.perf_counter() - started,
        version=__version__,
    )


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------

def record_to_json(record: ResultRecord) -> str:
    """One line, the same bytes as dumping ``dataclasses.asdict(record)``, without its deep copy of every field.

    Without ``indent``, ``json.dumps`` runs the C encoder.
    """
    return json.dumps(vars(record), sort_keys=True) + "\n"


def _write_csv(rows: list[dict], path: Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)


def _write_svg(record: ResultRecord, path: Path) -> None:
    chart = record.outputs["chart"]
    rows = record.outputs["rows"]
    xs = tuple(row[chart["x"]] for row in rows)
    series = [Series(label=y_key, xs=xs, ys=tuple(row[y_key] for row in rows)) for y_key in chart["ys"]]
    path.write_text(
        line_chart(
            series,
            title=chart.get("title", ""),
            xlabel=chart.get("xlabel", chart["x"]),
            ylabel=chart.get("ylabel", ""),
            logx=chart.get("logx", False),
        ),
        encoding="utf-8",
    )


def emit(record: ResultRecord, formats, out_dir) -> list[Path]:
    """Write the record in the requested formats; returns the file paths.

    JSON carries the full record; CSV flattens the per-point rows; SVG is
    only written when the run produced a chart block (sweeps). I/O errors
    propagate with the target path in the message.
    """
    formats = sorted(set(formats))
    unknown = [f for f in formats if f not in EMIT_FORMATS]
    if unknown:
        raise ValueError(f"unknown emit format(s) {unknown}, expected subset of {list(EMIT_FORMATS)}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    base = record.experiment
    written = []
    for fmt in formats:
        path = out_dir / f"{base}_result.{fmt}"
        try:
            if fmt == "json":
                path.write_text(record_to_json(record), encoding="utf-8")
            elif fmt == "csv":
                _write_csv(record.outputs["rows"], path)
            elif fmt == "svg":
                if not record.outputs.get("chart"):
                    continue
                _write_svg(record, path)
        except OSError as exc:
            raise OSError(f"failed to write {path}: {exc}") from exc
        written.append(path)
    return written
