"""Config validation, dispatch, emission formats, and the CLI surface."""
import contextlib
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import clab.cli as cli
import clab.reduction as reduction
import clab.runner as runner
import clab.svgplot as svgplot
from clab.decoherence import decohered_probability
from clab.montecarlo import derive_seed
from clab.runner import (
    EXPERIMENTS,
    ConfigError,
    NumericalFailure,
    emit,
    run,
    validate_config,
)
from clab.stochastic import SAMPLING_MODES, StochasticInteraction, mc_probability
from clab.svgplot import Series, line_chart

REPO = Path(__file__).resolve().parents[1]


def decohere_config(**overrides):
    config = {
        "experiment": "decohere",
        "seed": 11,
        "params": {"K": 50, "energy_scale": 100.0, "tau": 1.0, "trials": 10},
    }
    config.update(overrides)
    return config


def adiabatic_config(**schedule):
    return {
        "experiment": "adiabatic",
        "seed": 0,
        "params": {
            "instance_path": str(REPO / "instances" / "ec_n3_single.json"),
            "schedule": {"T_min": 1.0, "doublings": 6, **schedule},
        },
    }


SPECTRAL_PARAMS = {
    "grid": {"grid_points": 8, "box_length": 1.0, "mass": 1.0, "potential": {"kind": "harmonic", "omega": 1.0}},
    "E_B": 1.0,
}


class TestValidation:
    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError) as err:
            validate_config(decohere_config(extra=1))
        assert err.value.path == "$.extra"

    def test_unknown_param_key(self):
        config = decohere_config()
        config["params"]["bogus"] = 3
        with pytest.raises(ConfigError) as err:
            validate_config(config)
        assert err.value.path == "params.bogus"

    def test_missing_param(self):
        config = decohere_config()
        del config["params"]["tau"]
        with pytest.raises(ConfigError) as err:
            validate_config(config)
        assert err.value.path == "params.tau"

    @pytest.mark.parametrize(
        "experiment,params,drops,path",
        [
            ("decohere", {"K": 2, "energy_scale": 1.0, "tau": 1.0, "trials": 2}, [["trials"]], "params.trials"),
            ("stochastic", {"A_tilde": 1.0, "B_tilde": 1.0, "tau": 1.0, "n": 2}, [["B_tilde"]], "params.B_tilde"),
            ("stochastic", {"A_tilde": 1.0, "B_tilde": 1.0, "tau": 1.0, "n": 2}, [["tau"], ["n"]], "params.tau"),
            ("compare", {"K": 2, "energy_scale": 1.0, "tau": 1.0, "trials": 2, "n": 2}, [["n"]], "params.n"),
            ("adiabatic", adiabatic_config()["params"], [["schedule"]], "params.schedule"),
            ("adiabatic", adiabatic_config()["params"], [["schedule", "T_min"]], "params.schedule.T_min"),
            ("spectral", SPECTRAL_PARAMS, [["E_B"]], "params.E_B"),
            ("spectral", SPECTRAL_PARAMS, [["grid", "mass"]], "params.grid.mass"),
            ("spectral", SPECTRAL_PARAMS, [["grid", "potential", "omega"]], "params.grid.potential.omega"),
        ],
    )
    def test_missing_key_names_its_path(self, experiment, params, drops, path):
        """The first absent key in the order the config table lists them is named."""
        params = json.loads(json.dumps(params))
        for drop in drops:
            node = params
            for key in drop[:-1]:
                node = node[key]
            del node[drop[-1]]
        with pytest.raises(ConfigError, match="missing required key") as err:
            validate_config({"experiment": experiment, "params": params})
        assert err.value.path == path

    def test_draw_limit_boundary(self):
        limit = runner.MAX_DRAWS
        decohere = decohere_config()
        decohere["params"].update(K=limit // 4, trials=4)
        validate_config(decohere)
        decohere["params"]["K"] += 1
        with pytest.raises(ConfigError, match="K \\* trials") as err:
            validate_config(decohere)
        assert err.value.path == "params.K"
        stochastic = {"experiment": "stochastic", "params": {"A_tilde": 1.0, "B_tilde": 1.0, "tau": 1.0, "n": limit}}
        validate_config(stochastic)
        stochastic["params"]["n"] += 1
        with pytest.raises(ConfigError) as err:
            validate_config(stochastic)
        assert err.value.path == "params.n"

    def test_evaluation_limit_boundary(self):
        """cos^2 evaluations (draws times taus) are bounded before any work; the list multiplying the draws is named."""
        limit, draws = runner.MAX_EVALUATIONS, runner.MAX_DRAWS
        taus = [1.0] * (limit // draws)
        decohere = decohere_config()
        decohere["params"].update(K=1, trials=draws, tau=taus)
        stochastic = {"experiment": "stochastic", "params": {"A_tilde": 1.0, "B_tilde": 1.0, "tau": taus, "n": draws}}
        compare = {
            "experiment": "compare",
            "params": {"K": 1, "energy_scale": [1.0] * (limit // (2 * draws)), "tau": 1.0, "trials": draws, "n": draws},
        }
        cases = [(decohere, "tau"), (stochastic, "tau"), (compare, "energy_scale")]
        for config, field in cases:
            validate_config(config)
            config["params"][field] = config["params"][field] + [1.0]
            with pytest.raises(ConfigError, match="cos\\^2 evaluations") as err:
                validate_config(config)
            assert err.value.path == f"params.{field}"

    def test_bad_list_element_deep_in_a_list_names_its_path(self):
        values = [0.0] * 1024
        values[700] = float("nan")
        grid = {"grid_points": 1024, "box_length": 1.0, "mass": 1.0, "potential": {"kind": "values", "values": values}}
        with pytest.raises(ConfigError) as err:
            validate_config({"experiment": "spectral", "params": {"grid": grid, "E_B": 1.0}})
        assert err.value.path == "params.grid.potential.values[700]"
        assert str(err.value) == "params.grid.potential.values[700]: must be finite, got nan"
        params = {"K": 5, "energy_scale": 1.0, "tau": [0.0, 1.0, 2.0, -3.0, -4.0], "trials": 2}
        with pytest.raises(ConfigError) as err:
            validate_config(decohere_config(params=params))
        assert str(err.value) == "params.tau[3]: must be >= 0.0, got -3.0"

    def test_bad_experiment(self):
        with pytest.raises(ConfigError, match="experiment"):
            validate_config(decohere_config(experiment="teleport"))

    def test_bad_seed(self):
        with pytest.raises(ConfigError, match="seed"):
            validate_config(decohere_config(seed=-1))
        with pytest.raises(ConfigError, match="seed"):
            validate_config(decohere_config(seed=2**64))

    def test_range_violations(self):
        config = decohere_config()
        config["params"]["K"] = 0
        with pytest.raises(ConfigError, match="params.K"):
            validate_config(config)
        config = decohere_config()
        config["params"]["energy_scale"] = -2.0
        with pytest.raises(ConfigError, match="params.energy_scale"):
            validate_config(config)

    def test_tau_sweep_accepted(self):
        config = decohere_config()
        config["params"]["tau"] = [0.0, 1.0, 2.0]
        normalized = validate_config(config)
        assert normalized["params"]["tau"] == [0.0, 1.0, 2.0]

    def test_stochastic_mode_default_and_rejection(self):
        config = {
            "experiment": "stochastic",
            "params": {"A_tilde": 1.0, "B_tilde": 1.0, "tau": 1.0, "n": 100},
        }
        assert validate_config(config)["params"]["mode"] == "uniform_argument"
        config["params"]["mode"] = "lognormal"
        with pytest.raises(ConfigError, match="params.mode"):
            validate_config(config)

    def test_spectral_potential_kinds(self):
        base = {
            "experiment": "spectral",
            "params": {
                "grid": {
                    "grid_points": 8,
                    "box_length": 1.0,
                    "mass": 1.0,
                    "potential": {"kind": "values", "values": [0.0] * 8},
                },
                "E_B": 1.0,
            },
        }
        assert validate_config(base)["params"]["grid"]["potential"]["kind"] == "values"
        base["params"]["grid"]["potential"] = {"kind": "morse"}
        with pytest.raises(ConfigError, match="potential.kind"):
            validate_config(base)


class TestRun:
    def test_decohere_zero_tau_is_certain(self):
        config = decohere_config()
        config["params"]["tau"] = 0.0
        record = run(config)
        assert record.outputs["rows"][0]["p_mean"] == 1.0

    def test_payload_deterministic_up_to_wall_clock(self):
        a = dataclasses.asdict(run(decohere_config()))
        b = dataclasses.asdict(run(decohere_config()))
        a.pop("wall_clock_s")
        b.pop("wall_clock_s")
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_config_echo_contains_all_params(self):
        record = run(decohere_config())
        echoed = record.config
        assert echoed["seed"] == 11
        assert echoed["hbar"] == 1.0
        assert echoed["params"]["K"] == 50
        assert echoed["params"]["trials"] == 10

    @pytest.mark.parametrize("experiment,params", [
        ("decohere", {"K": 40, "energy_scale": 30.0, "trials": 25}),
        ("stochastic", {"A_tilde": 4.0, "B_tilde": 1.0, "mode": "independent_uniform", "n": 3000}),
    ])
    def test_tau_sweep_rows_match_single_tau_runs(self, experiment, params):
        taus = [0.0, 0.01, 0.3, 2.0, 50.0]
        sweep = run({"experiment": experiment, "seed": 2**64 - 1, "hbar": 0.9, "params": {**params, "tau": taus}})
        for tau, row in zip(taus, sweep.outputs["rows"], strict=True):
            single = run({"experiment": experiment, "seed": 2**64 - 1, "hbar": 0.9, "params": {**params, "tau": tau}})
            assert single.outputs["rows"] == [row]

    def test_compare_classical_regime(self):
        record = run(
            {
                "experiment": "compare",
                "seed": 5,
                "params": {"K": 400, "energy_scale": 2000.0, "tau": 1.0, "trials": 50, "n": 100_000},
            }
        )
        row = record.outputs["rows"][0]
        assert abs(row["p_decohered"] - 0.5) <= 0.02
        assert abs(row["p_stochastic"] - 0.5) <= 0.02
        assert row["abs_difference"] <= 0.02

    def test_compare_rows_match_per_scale_laws(self):
        # Compare sweeps energy_scale * tau at unit scale; each row must equal that scale's own draw.
        scales = [1e-3, 0.02, 1.0, 7.5, 300.0, 1e4]
        params = {"K": 16, "energy_scale": scales, "tau": 0.9, "trials": 40, "n": 2000}
        rows = run({"experiment": "compare", "seed": 8, "hbar": 0.7, "params": params}).outputs["rows"]
        tau = 0.9 / 0.7  # the kernels run in natural units
        for scale, row in zip(scales, rows, strict=True):
            dec = decohered_probability(16, scale, tau, seed=derive_seed(8, "decohere"), trials=40)
            interaction = StochasticInteraction(a_tilde=scale / 2.0, b_tilde=scale / 2.0)
            sto = mc_probability(interaction, tau, seed=derive_seed(8, "stochastic"), n=2000)
            got = [row["p_decohered"], row["p_decohered_stderr"], row["p_stochastic"], row["p_stochastic_stderr"]]
            np.testing.assert_allclose(got, [dec.mean, dec.stderr, sto.mean, sto.stderr], rtol=0, atol=1e-12)

    def test_adiabatic_bundled_instance(self):
        record = run(adiabatic_config())
        summary = record.outputs["summary"]
        assert summary["target_reached"] is True
        assert summary["most_probable_satisfies"] is True
        assert record.outputs["rows"][-1]["success_probability"] >= 0.9

    @pytest.mark.parametrize("hbar", [0.7, 3.3])
    def test_most_probable_bitstring_breaks_roundoff_ties_low(self, hbar):
        # The three solutions of ec_n3_single end within 1e-15 of each other; argmax picked 100 at these
        # hbar and 001 at hbar = 1.
        params = {"instance_path": str(REPO / "instances" / "ec_n3_single.json"),
                  "schedule": {"T_min": 1.0, "doublings": 7, "target": 0.9}}
        summary = run({"experiment": "adiabatic", "hbar": hbar, "params": params}).outputs["summary"]
        assert summary["most_probable_bitstring"] == "001"
        assert summary["most_probable_satisfies"] is True

    def test_adiabatic_missing_instance_is_config_error(self):
        config = adiabatic_config()
        config["params"]["instance_path"] = "nowhere/missing.json"
        with pytest.raises(ConfigError, match="instance"):
            run(config)

    def test_spectral_decision(self):
        record = run(
            {
                "experiment": "spectral",
                "params": {
                    "grid": {
                        "grid_points": 512,
                        "box_length": 20.0,
                        "mass": 1.0,
                        "potential": {"kind": "harmonic", "omega": 1.0},
                    },
                    "E_B": 1.0,
                },
            }
        )
        summary = record.outputs["summary"]
        assert summary["decision"] is True
        assert abs(summary["ground_energy"] - 0.5) / 0.5 < 0.01
        row = record.outputs["rows"][0]
        assert row["certified"] is True
        assert row["energy_lower"] <= summary["ground_energy"] <= row["energy_upper"]
        assert row["solver_relative_gap"] == (row["energy_upper"] - row["energy_lower"]) / 1.0 <= 1e-8

    def test_harmonic_ground_energy_is_half_hbar_omega(self):
        # The kinetic term takes hbar through the mass, the potential keeps the configured mass: E0 = hbar omega / 2.
        grid = {"grid_points": 600, "box_length": 40.0, "mass": 1.0, "potential": {"kind": "harmonic", "omega": 1.0}}
        record = run({"experiment": "spectral", "hbar": 3.0, "params": {"grid": grid, "E_B": 1.0}})
        assert record.outputs["summary"]["ground_energy"] == pytest.approx(1.5, rel=0.01)

    @staticmethod
    def double_well_config(seed, box_length):
        # A mirror-symmetric rough double well: its two lowest states are nearly degenerate.
        n = 4096
        half = np.random.default_rng(seed).uniform(-5.0, 5.0, n // 2)
        values = np.concatenate([half, half[::-1]])
        values[n // 2 - n // 8 : n // 2 + n // 8] += 50.0
        grid = {"grid_points": n, "box_length": box_length, "mass": 1.0,
                "potential": {"kind": "values", "values": values.tolist()}}
        return {"experiment": "spectral", "params": {"grid": grid, "E_B": 0.0}}

    @pytest.mark.parametrize("seed,box_length", [(1, 100.0), (2, 100.0), (2, 30.0)])
    def test_double_well_is_certified(self, seed, box_length):
        record = run(self.double_well_config(seed, box_length))
        row = record.outputs["rows"][0]
        assert record.warnings == []
        assert row["certified"] is True
        assert row["energy_lower"] < row["ground_energy_dense"] < row["energy_upper"]
        assert row["solver_relative_gap"] <= 1e-9

    def test_wrong_energy_falls_back_to_the_gershgorin_bound(self, monkeypatch):
        # An energy 1 above E0 fails the lower check: the row keeps a bracket that holds E0, but a wide one,
        # which the benchmark's 1e-9 gap check rejects, and the decision at E_B = 0 is no longer certified.
        config = self.double_well_config(1, 100.0)
        before = run(config).outputs["rows"][0]
        monkeypatch.setattr(runner, "ground_energy", lambda h: reduction.ground_energy(h) + 1.0)
        after = run(config).outputs["rows"][0]
        assert after["ground_energy_dense"] == before["ground_energy_dense"] + 1.0
        assert after["energy_lower"] < before["energy_lower"] - 1.0
        assert after["energy_lower"] < before["ground_energy_dense"] < after["energy_upper"]
        assert after["solver_relative_gap"] > 1.0
        assert after["certified"] is False and before["certified"] is True

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("spike,mass", [(1e300, 1e20), (1.7e308, 1e10), (1e200, 1e150)])
    def test_huge_span_grid_certifies_its_decision(self, tmp_path, spike, mass, exactly_positive_definite):
        # The bracket is scaled by E0 and the couplings, not by the spike, so on a span past 1e300 it is about
        # 1e-12 of E0 wide (scaled by the spike it was 1e305 times E0 or wider), holds the exact E0 and decides E_B = 0.
        values = [0.0] * 64
        values[64 // 3] = spike
        grid = {"grid_points": 64, "box_length": 1.0, "mass": mass, "potential": {"kind": "values", "values": values}}
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"params": {"grid": grid, "E_B": 0.0}}))
        assert cli.main(["spectral", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
        record = json.loads((tmp_path / "out" / "spectral_result.json").read_text())
        row = record["outputs"]["rows"][0]
        assert record["warnings"] == []
        assert row["energy_lower"] <= row["ground_energy_dense"] <= row["energy_upper"]
        assert row["energy_upper"] - row["energy_lower"] <= 2e-12 * row["ground_energy_dense"]
        h, _ = reduction.reduce_energy_decision(
            reduction.SpectralDecisionInstance(64, 1.0, mass, np.array(values), 0.0)
        )
        assert exactly_positive_definite(h.diag, h.offdiag, row["energy_lower"])
        assert not exactly_positive_definite(h.diag, h.offdiag, row["energy_upper"])
        assert row["certified"] is True


class TestEmit:
    def test_json_roundtrip(self, tmp_path):
        record = run(decohere_config())
        (path,) = emit(record, ["json"], tmp_path)
        assert json.loads(path.read_text()) == dataclasses.asdict(record)

    @pytest.mark.parametrize("experiment", EXPERIMENTS)
    def test_record_json_equals_asdict_dump_byte_for_byte(self, experiment):
        record = run({"experiment": experiment, "seed": 3, "params": FUZZ_BASES[experiment][-1]})
        expected = json.dumps(dataclasses.asdict(record), sort_keys=True) + "\n"
        assert runner.record_to_json(record) == expected

    def test_csv_row_count_matches_sweep(self, tmp_path):
        config = decohere_config()
        config["params"]["tau"] = [0.5, 1.0, 1.5, 2.0]
        record = run(config)
        paths = emit(record, ["csv"], tmp_path)
        lines = paths[0].read_text().strip().splitlines()
        assert len(lines) == 1 + 4  # header + one row per sweep point

    def test_svg_well_formed_with_one_polyline_per_series(self, tmp_path):
        config = {
            "experiment": "stochastic",
            "seed": 1,
            "params": {"A_tilde": 5.0, "B_tilde": 5.0, "tau": [0.5, 1.0, 2.0, 4.0], "n": 2000},
        }
        record = run(config)
        paths = emit(record, ["svg"], tmp_path)
        root = ET.fromstring(paths[0].read_text())
        polylines = root.findall(".//{http://www.w3.org/2000/svg}polyline")
        assert len(polylines) == len(record.outputs["chart"]["ys"]) == 2

    def test_svg_skipped_without_chart(self, tmp_path):
        record = run(decohere_config())  # single point, no chart
        paths = emit(record, ["json", "svg"], tmp_path)
        assert [p.suffix for p in paths] == [".json"]

    def test_unknown_format_rejected(self, tmp_path):
        record = run(decohere_config())
        with pytest.raises(ValueError, match="unknown emit format"):
            emit(record, ["yaml"], tmp_path)


class TestSvgPlot:
    def test_requires_matching_lengths(self):
        with pytest.raises(ValueError, match="x values"):
            Series(label="a", xs=(1, 2), ys=(1,))

    def test_logx_rejects_non_positive(self):
        with pytest.raises(ValueError, match="positive"):
            line_chart([Series(label="a", xs=(0.0, 1.0), ys=(1.0, 2.0))], logx=True)

    def test_escapes_labels(self, monkeypatch):
        from xml.sax.saxutils import escape

        hostile = "a & b < c > d \" e ' f &amp;"
        kwargs = dict(title=hostile, xlabel=hostile, ylabel=hostile)
        series = [Series(label=hostile, xs=(1.0, 2.0), ys=(0.0, 1.0))]
        svg = line_chart(series, **kwargs)
        assert "a &amp; b &lt; c &gt; d \" e ' f &amp;amp;" in svg
        root = ET.fromstring(svg)  # well-formed XML despite hostile labels
        assert [t.text for t in root.iter("{http://www.w3.org/2000/svg}text") if t.text.startswith("a &")] == [hostile] * 4
        monkeypatch.setattr(svgplot, "_escape", escape)  # byte-identical to the standard library's escape
        assert line_chart(series, **kwargs) == svg


class TestCli:
    def _write_config(self, tmp_path, payload):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload))
        return path

    def test_success_exit_zero(self, tmp_path, capsys):
        config = self._write_config(
            tmp_path, {"params": {"K": 10, "energy_scale": 10.0, "tau": 1.0, "trials": 5}}
        )
        code = cli.main(["decohere", "--config", str(config), "--out", str(tmp_path / "out")])
        assert code == 0
        out = capsys.readouterr().out
        assert "decohere:" in out and "wrote" in out
        assert (tmp_path / "out" / "decohere_result.json").exists()

    def test_config_error_exit_two(self, tmp_path, capsys):
        config = self._write_config(tmp_path, {"params": {"K": 0, "energy_scale": 1.0, "tau": 1.0, "trials": 5}})
        code = cli.main(["decohere", "--config", str(config), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "params.K" in capsys.readouterr().err

    def test_missing_config_exit_two(self, tmp_path, capsys):
        code = cli.main(["decohere", "--config", str(tmp_path / "nope.json")])
        assert code == 2

    def test_experiment_mismatch_exit_two(self, tmp_path, capsys):
        config = self._write_config(
            tmp_path,
            {"experiment": "stochastic", "params": {"K": 5, "energy_scale": 1.0, "tau": 1.0, "trials": 5}},
        )
        code = cli.main(["decohere", "--config", str(config)])
        assert code == 2
        assert "stochastic" in capsys.readouterr().err

    def test_seed_flag_overrides_file(self, tmp_path):
        config = self._write_config(
            tmp_path, {"seed": 1, "params": {"K": 10, "energy_scale": 10.0, "tau": 1.0, "trials": 5}}
        )
        out_dir = tmp_path / "out"
        assert cli.main(["decohere", "--config", str(config), "--seed", "99", "--out", str(out_dir)]) == 0
        record = json.loads((out_dir / "decohere_result.json").read_text())
        assert record["config"]["seed"] == 99

    def test_numerical_failure_exit_three(self, tmp_path, monkeypatch, capsys):
        config = self._write_config(
            tmp_path, {"params": {"K": 10, "energy_scale": 10.0, "tau": 1.0, "trials": 5}}
        )

        def explode(_):
            raise NumericalFailure("synthetic blowup")

        monkeypatch.setattr(cli, "run", explode)
        code = cli.main(["decohere", "--config", str(config)])
        assert code == 3
        assert "synthetic blowup" in capsys.readouterr().err

    def test_oversized_instance_exit_two(self, tmp_path, capsys):
        instance = tmp_path / "n13.json"
        instance.write_text(json.dumps({"n": 13, "clauses": [[1, 2, 3]]}))
        config = self._write_config(
            tmp_path, {"params": {"instance_path": str(instance), "schedule": {"T_min": 1.0}}}
        )
        code = cli.main(["adiabatic", "--config", str(config), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "params.instance_path" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "experiment,params,path",
        [
            ("adiabatic", {"instance_path": str(REPO / "instances" / "ec_n3_single.json"),
                           "schedule": {"T_min": 1.0, "target": 1.5}}, "params.schedule.target"),
            ("stochastic", {"A_tilde": 1e308, "B_tilde": 1e308, "tau": 10.0, "n": 100}, "params.tau"),
            ("decohere", {"K": 4, "energy_scale": 1e308, "tau": [1.0, 1e10], "trials": 2}, "params.tau"),
            ("decohere", {"hbar": 1e100, "params": {"K": 4, "energy_scale": 1e300, "tau": 1e200, "trials": 2}},
             "params.tau"),
            ("compare", {"K": 4, "energy_scale": 1e308, "tau": 1e10, "trials": 2, "n": 100}, "params.energy_scale"),
            ("adiabatic", {"instance_path": str(REPO / "instances" / "ec_n3_single.json"),
                           "schedule": {"T_min": 1e308}}, "params.schedule.T_min"),
            ("adiabatic", {"instance_path": str(REPO / "instances" / "ec_n3_single.json"),
                           "schedule": {"T_min": 1e7}}, "params.schedule.T_min"),
            ("spectral", {"grid": {"grid_points": 16, "box_length": 1e-300, "mass": 1e-300,
                                   "potential": {"kind": "zero"}}, "E_B": 1.0}, "params.grid.box_length"),
            ("spectral", {"grid": {"grid_points": 16, "box_length": 1e-200, "mass": 1.0,
                                   "potential": {"kind": "zero"}}, "E_B": 1.0}, "params.grid.box_length"),
            ("spectral", {"grid": {"grid_points": 16, "box_length": 1e300, "mass": 1e300,
                                   "potential": {"kind": "harmonic", "omega": 1e300}}, "E_B": 1.0},
             "params.grid.potential.omega"),
            ("spectral", {"grid": {"grid_points": 3, "box_length": 1.0, "mass": 1.0,
                                   "potential": {"kind": "values", "values": []}}, "E_B": 1.0},
             "params.grid.potential.values"),
            ("stochastic", {"A_tilde": 1e308, "B_tilde": 0.0, "tau": [1e-300], "n": 100, "mode": "uniform_argument"},
             "params.A_tilde"),
            ("stochastic", {"A_tilde": 0.0, "B_tilde": 1e308, "tau": [1e-300], "n": 100, "mode": "independent_uniform"},
             "params.B_tilde"),
            ("decohere", {"K": 4, "energy_scale": 10**400, "tau": 1.0, "trials": 2}, "params.energy_scale"),
            ("decohere", {"hbar": -(10**400), "params": {"K": 4, "energy_scale": 1.0, "tau": 1.0, "trials": 2}}, "hbar"),
            ("adiabatic", {"instance_path": str(REPO / "instances" / "ec_n3_single.json"),
                           "schedule": {"T_min": 10**400}}, "params.schedule.T_min"),
            ("spectral", {"grid": {"grid_points": 3, "box_length": 1.0, "mass": 1.0,
                                   "potential": {"kind": "values", "values": [0.0, 10**400, 0.0]}}, "E_B": 1.0},
             "params.grid.potential.values[1]"),
            ("adiabatic", {"hbar": 1e300, "params": {"instance_path": str(REPO / "instances" / "ec_n3_single.json"),
                                                     "schedule": {"T_min": 1e-300}}}, "params.schedule.T_min"),
        ],
        ids=["target_above_one", "stochastic_span_overflow", "decohere_span_overflow", "decohere_spread_overflow",
             "compare_span_overflow",
             "t_min_steps_overflow", "t_min_steps_over_limit", "spectral_zero_division", "spectral_dx_underflow",
             "spectral_overflow", "spectral_values_empty", "stochastic_uniform_width_overflow", "stochastic_independent_width_overflow",
             "energy_scale_int_overflow", "hbar_int_overflow", "t_min_int_overflow", "values_int_overflow",
             "t_min_over_hbar_underflow"],
    )
    def test_out_of_range_config_exit_two(self, tmp_path, capsys, experiment, params, path):
        # A row holding a "params" key is the whole config, for the fields above params.
        config = self._write_config(tmp_path, params if "params" in params else {"params": params})
        code = cli.main([experiment, "--config", str(config), "--out", str(tmp_path / "out")])
        assert code == 2
        assert path in capsys.readouterr().err

    @pytest.mark.parametrize(
        "mass,potential",
        [(1e-148, {"kind": "zero"}), (1.0, {"kind": "values", "values": [1e200] + [0.0] * 7})],
        ids=["kinetic_1e-148", "huge_values"],
    )
    def test_large_finite_grid_entries_run(self, tmp_path, mass, potential):
        grid = {"grid_points": 8, "box_length": 1.0, "mass": mass, "potential": potential}
        config = self._write_config(tmp_path, {"params": {"grid": grid, "E_B": 1.0}})
        assert cli.main(["spectral", "--config", str(config), "--out", str(tmp_path / "out")]) == 0

    @pytest.mark.parametrize(
        "grid_points,hbar,mass",
        # Kinetic terms hbar^2 / (m dx^2) from 4e-197 to 8e201: unscaled, stebz's squared couplings would underflow
        # below about 1e-154 or overflow above about 1e154; both solves run on H over a power of two instead.
        # The grid's mass is mass / hbar / hbar: at hbar = 1e160 and 1e-160, hbar^2 would be inf or the subnormal 1e-320.
        # At hbar = 1e-200 the natural-unit mass overflows to inf, which leaves no kinetic term: E0 = 0.
        [(64, 1.0, 4e153), (64, 1e160, 1e300), (64, 1e-160, 1e-300), (8, 1.0, 1e-153), (8, 1.0, 1e-200),
         (64, 1.0, 1e200), (64, 1e-200, 1.0)],
        ids=["kinetic_1e-150", "hbar_1e160", "hbar_1e-160", "kinetic_1e-153", "kinetic_1e-200", "kinetic_underflow",
             "mass_overflow"],
    )
    def test_zero_grid_solves_exactly(self, tmp_path, grid_points, hbar, mass):
        grid = {"grid_points": grid_points, "box_length": 1.0, "mass": mass, "potential": {"kind": "zero"}}
        config = self._write_config(tmp_path, {"hbar": hbar, "params": {"grid": grid, "E_B": 1.0}})
        assert cli.main(["spectral", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
        record = json.loads((tmp_path / "out" / "spectral_result.json").read_text())
        t = 0.5 * (hbar / math.sqrt(mass) * (grid_points + 1)) ** 2  # hbar^2 / (2 m dx^2), with no hbar^2 to overflow
        exact = 2.0 * t * (1.0 - math.cos(math.pi / (grid_points + 1)))
        assert record["outputs"]["summary"]["ground_energy"] == pytest.approx(exact, rel=1e-12, abs=0.0)
        assert record["warnings"] == []

    def test_potential_rule_reads_the_built_grid(self, tmp_path):
        # 0.5 m omega^2 (L/2)^2 overflows at the box edge, which the grid never reaches: its outermost points
        # sit at L/4 from the centre, where V is 6.25e307.
        grid = {"grid_points": 3, "box_length": 1e10, "mass": 2e289, "potential": {"kind": "harmonic", "omega": 1.0}}
        config = self._write_config(tmp_path, {"hbar": 1e160, "params": {"grid": grid, "E_B": 1.0}})
        assert cli.main(["spectral", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
        record = json.loads((tmp_path / "out" / "spectral_result.json").read_text())
        assert record["warnings"] == []

    @pytest.mark.parametrize(
        "values",
        [[1e308] * 3, [-1e308] * 3, [0.8e308, -0.8e308, 0.0], [1e308, -1e308, 1e308],
         [1.7976931348623157e308] * 3, [-1.7976931348623157e308] * 3],
        ids=["all_max", "all_min", "spread", "spread_overflow", "float_max", "float_min"],
    )
    def test_extreme_values_solve_without_warnings(self, tmp_path, values):
        """The bracket is formed on H over its largest entry, where no entry or shift overflows."""
        grid = {"grid_points": 3, "box_length": 1.0, "mass": 1.0, "potential": {"kind": "values", "values": values}}
        config = self._write_config(tmp_path, {"params": {"grid": grid, "E_B": 1.0}})
        assert cli.main(["spectral", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
        record = json.loads((tmp_path / "out" / "spectral_result.json").read_text())
        row = record["outputs"]["rows"][0]
        assert row["ground_energy_dense"] == record["outputs"]["summary"]["ground_energy"] == min(values)
        assert row["energy_lower"] <= min(values) <= row["energy_upper"]
        assert row["certified"] is True
        assert record["warnings"] == []

    @pytest.mark.parametrize(
        "instance",
        [
            {"n": 3, "clauses": 5},
            {"n": 3, "clauses": [5]},
            {"n": None, "clauses": []},
            {"n": 3.7, "clauses": [[1.5, 2, 3]]},
            {"n": "3", "clauses": [[1, 2, 3]]},
        ],
        ids=["clauses_not_list", "clause_not_list", "n_null", "float_indices", "n_string"],
    )
    def test_malformed_instance_exit_two(self, tmp_path, capsys, instance):
        path = tmp_path / "instance.json"
        path.write_text(json.dumps(instance))
        config = self._write_config(tmp_path, {"params": {"instance_path": str(path), "schedule": {"T_min": 1.0}}})
        code = cli.main(["adiabatic", "--config", str(config), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "params.instance_path" in capsys.readouterr().err

    def test_library_error_exit_three(self, tmp_path, capsys, monkeypatch):
        """A ValueError raised inside a run, past validation, is a numerical failure: exit 3."""
        def fail(*args, **kwargs):
            raise ValueError("non-finite value at trial index 0: nan")

        monkeypatch.setattr(runner, "mc_probability_sweep", fail)
        config = self._write_config(tmp_path, {"params": {"A_tilde": 1.0, "B_tilde": 0.0, "tau": [1.0], "n": 100}})
        code = cli.main(["stochastic", "--config", str(config), "--out", str(tmp_path / "out")])
        assert code == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_non_finite_output_names_its_path(self, monkeypatch):
        rows = [{"tau": 1.0, "p_mean": 0.5}, {"tau": 2.0, "p_mean": float("nan")}]
        monkeypatch.setitem(runner._RUNNERS, "decohere", lambda config: {"rows": rows, "summary": {}, "chart": None})
        with pytest.raises(NumericalFailure, match=r"^non-finite value at outputs\.rows\[1\]\.p_mean: nan$"):
            run(decohere_config())

    def test_stochastic_widest_independent_intervals_exit_zero(self, tmp_path):
        # Each interval [-A, A] has width 1.2e308; in uniform_argument mode one interval of width 2 (A + B) would overflow.
        params = {"A_tilde": 0.6e308, "B_tilde": 0.6e308, "tau": [1e-300], "n": 100, "mode": "independent_uniform"}
        config = self._write_config(tmp_path, {"params": params})
        assert cli.main(["stochastic", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
        record = json.loads((tmp_path / "out" / "stochastic_result.json").read_text())
        assert record["warnings"] == []

    @pytest.mark.parametrize("mode", ["uniform_argument", "independent_uniform"])
    @pytest.mark.parametrize(
        "hbar,a_tilde,b_tilde,tau,span",
        # Span 1.79e308 is finite; the full angle (A_tilde + delta) tau / hbar would reach 2 * 1.79e308.
        # At hbar 1e200 the run forms (A_tilde + B_tilde) * (tau / hbar) = 1e200; (A_tilde + B_tilde) * tau,
        # which no code forms, overflows.
        [(1.0, 1e5, 0.0, 1.79e303, 1.79e308), (1e200, 5e199, 5e199, 1e200, 1e200)],
        ids=["span_1.79e308", "tau_times_scale_overflows"],
    )
    def test_stochastic_largest_finite_span_exit_zero(self, tmp_path, mode, hbar, a_tilde, b_tilde, tau, span):
        params = {"A_tilde": a_tilde, "B_tilde": b_tilde, "tau": [tau], "n": 100, "mode": mode}
        config = self._write_config(tmp_path, {"hbar": hbar, "params": params})
        assert cli.main(["stochastic", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
        record = json.loads((tmp_path / "out" / "stochastic_result.json").read_text())
        row = record["outputs"]["rows"][0]
        assert record["warnings"] == []
        assert row["phase_span"] == pytest.approx(span, rel=1e-15, abs=0.0)
        assert abs(row["p_mean"] - row["p_analytic"]) <= 4.0 * row["p_stderr"]

    @pytest.mark.parametrize(
        "energy_scale,tau,hbar,spread",
        [(1e308, 1e-300, 1.0, 1e8), (1e-10, 1e300, 1e-10, 1e300), (1e200, 1e200, 1e100, 1e300),
         (1e200, 1e-300, 1e100, 1e-200)],
        ids=["huge_scale_tiny_tau", "tau_over_hbar_overflow", "scale_times_tau_overflows", "tau_over_hbar_underflows"],
    )
    def test_compare_runs_wherever_its_natural_times_are_finite(self, tmp_path, energy_scale, tau, hbar, spread):
        # Compare samples on the unit interval and sweeps the times energy_scale * tau / hbar alone, formed with no
        # intermediate overflow or underflow, so neither energy_scale = 1e308, tau / hbar = inf, energy_scale * tau
        # = inf nor tau / hbar = 0 changes it.
        params = {"K": 4, "energy_scale": [energy_scale], "tau": tau, "trials": 2, "n": 100}
        config = self._write_config(tmp_path, {"hbar": hbar, "params": params})
        assert cli.main(["compare", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
        row = json.loads((tmp_path / "out" / "compare_result.json").read_text())["outputs"]["rows"][0]
        assert row["spread"] == pytest.approx(spread)
        assert 0.0 <= row["p_decohered"] <= 1.0 and 0.0 <= row["p_stochastic"] <= 1.0

    def test_decohere_runs_where_its_kernel_span_is_finite(self, tmp_path):
        # The kernel forms energy_scale * (tau / hbar) = 1e300 and echoes it as the spread; energy_scale * tau = inf.
        params = {"K": 4, "energy_scale": 1e200, "tau": [1e200], "trials": 2}
        config = self._write_config(tmp_path, {"hbar": 1e100, "params": params})
        assert cli.main(["decohere", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
        record = json.loads((tmp_path / "out" / "decohere_result.json").read_text())
        assert record["warnings"] == []
        assert record["outputs"]["rows"][0]["spread"] == 1e200 * (1e200 / 1e100)

    @pytest.mark.parametrize(
        "experiment,params,path",
        [
            ("decohere", {"K": 10**15, "energy_scale": 1.0, "tau": 1.0, "trials": 1}, "params.K"),
            ("decohere", {"K": 10**4, "energy_scale": 1.0, "tau": 1.0, "trials": 10**4}, "params.K"),
            ("stochastic", {"A_tilde": 1.0, "B_tilde": 1.0, "tau": 1.0, "n": 10**15}, "params.n"),
            ("compare", {"K": 10**15, "energy_scale": 1.0, "tau": 1.0, "trials": 1, "n": 100}, "params.K"),
            ("compare", {"K": 4, "energy_scale": 1.0, "tau": 1.0, "trials": 2, "n": 10**15}, "params.n"),
            ("stochastic", {"A_tilde": 1e308, "B_tilde": 1e308, "tau": 10.0, "n": 100}, "params.tau"),
            ("decohere", {"hbar": 1e100, "params": {"K": 4, "energy_scale": 1e300, "tau": 1e200, "trials": 2}},
             "params.tau"),
            ("stochastic", {"A_tilde": 1e308, "B_tilde": 0.0, "tau": [1e-300], "n": 100, "mode": "uniform_argument"},
             "params.A_tilde"),
        ],
        ids=["decohere_k", "decohere_k_times_trials", "stochastic_n", "compare_k", "compare_n",
             "stochastic_span_overflow", "decohere_spread_overflow", "stochastic_uniform_width_overflow"],
    )
    def test_monte_carlo_size_exit_two(self, tmp_path, capsys, monkeypatch, experiment, params, path):
        """Size limits, spans and the draw width are all checked before either sweep starts."""
        def no_draws(*args, **kwargs):
            raise AssertionError("a Monte Carlo sweep started")

        for name in ("decohered_probability_sweep", "mc_probability_sweep"):
            monkeypatch.setattr(runner, name, no_draws)
        # A row holding a "params" key is the whole config, for the fields above params.
        config = self._write_config(tmp_path, params if "params" in params else {"params": params})
        code = cli.main([experiment, "--config", str(config), "--out", str(tmp_path / "out")])
        assert code == 2
        assert path in capsys.readouterr().err

    @pytest.mark.parametrize("raw", [b"\xff\xfe{}", b"[" * 100_000], ids=["not_utf8", "nested_too_deep"])
    def test_unreadable_config_exit_two(self, tmp_path, capsys, raw):
        config = tmp_path / "config.json"
        config.write_bytes(raw)
        assert cli.main(["decohere", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
        assert "is not valid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("raw", [b"\xff\xfe{}", b"[" * 100_000], ids=["not_utf8", "nested_too_deep"])
    def test_unreadable_instance_exit_two(self, tmp_path, capsys, raw):
        instance = tmp_path / "instance.json"
        instance.write_bytes(raw)
        config = self._write_config(tmp_path, {"params": {"instance_path": str(instance), "schedule": {"T_min": 1.0}}})
        assert cli.main(["adiabatic", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
        assert "params.instance_path" in capsys.readouterr().err

    @pytest.mark.parametrize("reader", ["config", "instance"])
    def test_endless_file_exit_two(self, tmp_path, reader):
        # An unbounded read of /dev/zero would never return; the address-space limit makes it fail fast instead.
        resource = pytest.importorskip("resource")
        if not os.path.exists("/dev/zero"):
            pytest.skip("no /dev/zero")
        config = self._write_config(tmp_path, {"params": {"instance_path": "/dev/zero", "schedule": {"T_min": 1.0}}})
        config, field = (config, "params.instance_path") if reader == "instance" else ("/dev/zero", "--config")
        limit = 512 << 20

        def limit_memory():
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

        env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(REPO / "src"), os.environ.get("PYTHONPATH", "")])}
        env["OPENBLAS_NUM_THREADS"] = "1"
        done = subprocess.run(
            [sys.executable, "-m", "clab.cli", "adiabatic", "--config", str(config), "--out", str(tmp_path / "out")],
            env=env, capture_output=True, text=True, timeout=60, preexec_fn=limit_memory,
        )
        assert done.returncode == 2, done.stderr
        assert field in done.stderr and "larger than" in done.stderr

    @pytest.mark.parametrize("reader", ["config", "instance"])
    def test_fifo_without_writer_exit_two(self, tmp_path, reader):
        # A blocking open() of a FIFO waits for a writer that never comes; the timeout turns that hang into a failure.
        if not hasattr(os, "mkfifo"):
            pytest.skip("no os.mkfifo")
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        config = self._write_config(tmp_path, {"params": {"instance_path": str(fifo), "schedule": {"T_min": 1.0}}})
        config, field = (config, "params.instance_path") if reader == "instance" else (fifo, "--config")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(REPO / "src"), os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run(
            [sys.executable, "-m", "clab.cli", "adiabatic", "--config", str(config), "--out", str(tmp_path / "out")],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 2, done.stderr
        assert field in done.stderr and "Expecting value" in done.stderr  # read as empty, which is not JSON

    def test_config_from_a_pipe(self, tmp_path):
        # A pipe whose writer is still running, as with `--config <(...)`: the read waits for its data.
        if not os.path.isdir("/dev/fd"):
            pytest.skip("no /dev/fd")
        payload = json.dumps({"params": {"K": 4, "energy_scale": 1.0, "tau": 1.0, "trials": 2}}).encode()
        read_fd, write_fd = os.pipe()
        writer = subprocess.Popen(
            [sys.executable, "-c", f"import os, time; time.sleep(0.5); os.write({write_fd}, {payload!r})"],
            pass_fds=(write_fd,),
        )
        os.close(write_fd)
        try:
            assert cli.main(["decohere", "--config", f"/dev/fd/{read_fd}", "--out", str(tmp_path / "out")]) == 0
        finally:
            os.close(read_fd)
            assert writer.wait(timeout=60) == 0
        assert (tmp_path / "out" / "decohere_result.json").exists()

    @pytest.mark.parametrize("reader", ["config", "instance"])
    def test_file_at_the_size_cap(self, tmp_path, capsys, reader):
        instance = tmp_path / "instance.json"
        text = (REPO / "instances" / "ec_n3_single.json").read_text()
        instance.write_text(text.ljust(reduction.JSON_MAX_BYTES) if reader == "instance" else text)
        config = json.dumps({"params": {"instance_path": str(instance), "schedule": {"T_min": 1.0, "doublings": 0}}})
        (tmp_path / "config.json").write_text(config.ljust(reduction.JSON_MAX_BYTES) if reader == "config" else config)
        assert cli.main(["adiabatic", "--config", str(tmp_path / "config.json"), "--out", str(tmp_path / "out")]) == 0
        with open(tmp_path / f"{reader}.json", "r+b") as fh:  # one byte more, as a sparse file's zeros
            fh.truncate(reduction.JSON_MAX_BYTES + 1)
        assert cli.main(["adiabatic", "--config", str(tmp_path / "config.json"), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert ("params.instance_path" if reader == "instance" else "--config") in err and "larger than" in err

    def test_bad_format_exit_two(self, tmp_path, capsys):
        config = self._write_config(
            tmp_path, {"params": {"K": 10, "energy_scale": 10.0, "tau": 1.0, "trials": 5}}
        )
        code = cli.main(["decohere", "--config", str(config), "--format", "json,yaml", "--out", str(tmp_path / "o")])
        assert code == 2

    @pytest.mark.parametrize("experiment", EXPERIMENTS)
    def test_every_experiment_name_accepted(self, tmp_path, experiment):
        config = self._write_config(tmp_path, {"params": FUZZ_BASES[experiment][-1]})
        assert cli.main([experiment, "--config", str(config), "--out", str(tmp_path / "out")]) == 0
        assert (tmp_path / "out" / f"{experiment}_result.json").exists()

    @pytest.mark.parametrize("order", ["options_first", "name_between"])
    def test_options_before_and_after_the_name(self, tmp_path, order):
        config = self._write_config(tmp_path, {"params": FUZZ_BASES["spectral"][0]})
        out = tmp_path / "out"
        argv = {
            "options_first": ["--config", str(config), "--out", str(out), "--format", "json,csv", "spectral"],
            "name_between": ["--out", str(out), "spectral", "--format", "json,csv", "--config", str(config)],
        }[order]
        assert cli.main(argv) == 0
        assert sorted(p.name for p in out.iterdir()) == ["spectral_result.csv", "spectral_result.json"]

    @pytest.mark.parametrize(
        "argv,token",
        [(["nosuchexperiment", "--config", "c.json"], "nosuchexperiment"), (["spectral"], "--config")],
        ids=["unknown_experiment", "missing_config"],
    )
    def test_usage_error_exit_two(self, capsys, argv, token):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert token in capsys.readouterr().err

    def test_help_exit_zero_lists_every_experiment(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert all(name in out for name in EXPERIMENTS)

    @pytest.mark.parametrize("formats", ["json,yaml", ",", ""])
    def test_bad_format_rejected_before_any_work(self, tmp_path, capsys, monkeypatch, formats):
        def must_not_run(_):
            raise AssertionError("the experiment ran")

        monkeypatch.setattr(cli, "run", must_not_run)
        config = tmp_path / "absent.json"
        assert cli.main(["decohere", "--config", str(config), "--format", formats, "--out", str(tmp_path / "o")]) == 2
        assert "--format" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


# Small valid configs for the fuzz test to start from, so that accepted configs
# run in milliseconds, and the values it writes into their fields.
FUZZ_BASES = {
    "decohere": [{"K": 3, "energy_scale": 2.0, "tau": [0.0, 1.0], "trials": 4}],
    "stochastic": [{"A_tilde": 1.0, "B_tilde": 0.5, "mode": "independent_uniform", "tau": [0.5, 1.0], "n": 8}],
    "compare": [{"K": 3, "energy_scale": [1.0, 2.0], "tau": 1.0, "trials": 4, "n": 8}],
    "adiabatic": [{"instance_path": str(REPO / "instances" / "ec_n3_single.json"),
                   "schedule": {"T_min": 0.5, "doublings": 2, "target": 0.9}}],
    "spectral": [
        {"grid": {"grid_points": 8, "box_length": 1.0, "mass": 1.0, "potential": {"kind": "harmonic", "omega": 1.0}},
         "E_B": 1.0},
        {"grid": {"grid_points": 3, "box_length": 1.0, "mass": 1.0,
                  "potential": {"kind": "values", "values": [0.0, 1.0, 2.0]}}, "E_B": 1.0},
    ],
}
EDGE_VALUES = [0, -1, 1e-300, 1e300, 10**30, float("nan"), None, True, "x", [1.0, 2.0]]
FUZZ_VALUES = [*EDGE_VALUES, 1, 2, 4, 0.5, 4.0, "zero", "harmonic", "values", "uniform_argument"]
DELETE = object()


def field_paths(node, prefix=()):
    """Every key path in a nested config, plus one unknown key inside each object."""
    yield prefix + ("unknown",)
    for key, value in node.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from field_paths(value, prefix + (key,))


@st.composite
def fuzzed_configs(draw, experiment):
    """A base config with up to three fields set to a fuzz value or deleted."""
    config = {"seed": 1, "hbar": 1.0, "params": json.loads(json.dumps(draw(st.sampled_from(FUZZ_BASES[experiment]))))}
    targets = list(field_paths(config))
    for _ in range(draw(st.integers(0, 3))):
        *parents, key = draw(st.sampled_from(targets))
        value = draw(st.sampled_from([*FUZZ_VALUES, DELETE]))
        node = config
        for parent in parents:
            node = node.get(parent) if isinstance(node, dict) else None
        if isinstance(node, dict):
            if value is DELETE:
                node.pop(key, None)
            else:
                node[key] = value
    return config


def run_cli(experiment, raw: bytes) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        config.write_bytes(raw)
        return cli.main([experiment, "--config", str(config), "--out", tmp, "--format", "json,csv,svg"])


# Values the instance fuzz test writes for n and for clause indices, next to valid ones (n <= 6).
INSTANCE_VALUES = [0, -1, 1, 13, 10**30, 1.5, None, True, "x", [1, 2]]


@st.composite
def mutated_instances(draw):
    """A valid instance with 3 <= n <= 6, then up to three mutations: n or a clause index set to a fuzz
    value, an empty clause added, or a clause duplicated."""
    n = draw(st.integers(3, 6))
    triple = st.lists(st.integers(1, n), min_size=3, max_size=3, unique=True).map(sorted)
    clauses = draw(st.lists(triple, max_size=6, unique_by=tuple))
    count, instance = len(clauses), {"n": n, "clauses": clauses}
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["n", "index", "empty", "duplicate"]))
        value = draw(st.sampled_from(INSTANCE_VALUES))
        if kind == "n":
            instance["n"] = value
        elif kind == "index" and count:
            clauses[draw(st.integers(0, count - 1))][draw(st.integers(0, 2))] = value
        elif kind == "empty":
            clauses.append([])
        elif clauses:
            clauses.append(list(clauses[0]))
    return instance


def run_adiabatic_instance(raw: bytes) -> int:
    """Exit code of one short adiabatic run (T = 1 only) on an instance file holding ``raw``."""
    with tempfile.TemporaryDirectory() as tmp:
        instance, config = Path(tmp) / "instance.json", Path(tmp) / "config.json"
        instance.write_bytes(raw)
        params = {"instance_path": str(instance), "schedule": {"T_min": 1.0, "doublings": 0}}
        config.write_text(json.dumps({"params": params}))
        return cli.main(["adiabatic", "--config", str(config), "--out", tmp])


class TestRunContract:
    """Every input ends in exit code 0, 2 or 3, never in an uncaught exception."""

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(EXPERIMENTS), st.binary(max_size=40))
    def test_arbitrary_config_bytes(self, experiment, raw):
        assert run_cli(experiment, raw) in (0, 2, 3)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_fuzzed_config_objects(self, data):
        experiment = data.draw(st.sampled_from(EXPERIMENTS))
        config = data.draw(fuzzed_configs(experiment))
        assert run_cli(experiment, json.dumps(config).encode()) in (0, 2, 3)

    @settings(max_examples=150, deadline=None)
    @given(st.binary(max_size=40))
    def test_arbitrary_instance_bytes(self, raw):
        assert run_adiabatic_instance(raw) in (0, 2, 3)

    @settings(max_examples=300, deadline=None)
    @given(mutated_instances())
    def test_mutated_instance_objects(self, instance):
        assert run_adiabatic_instance(json.dumps(instance).encode()) in (0, 2, 3)


# Log-uniform over [1e-300, 1.7e308]: every decade of a config's energies, times and hbar is drawn alike.
MAGNITUDES = st.floats(-300.0, math.log10(1.7e308)).map(lambda exponent: 10.0**exponent)


def magnitude_rule(experiment, mode, energy_scale, a_tilde, b_tilde, tau, hbar) -> str | None:
    """The field a Monte Carlo run must name at exit 2, or None when every number it forms is finite.

    decohere forms tau / hbar and the echoed spread energy_scale * (tau / hbar);
    stochastic tau / hbar, the phase span (A_tilde + B_tilde) * (tau / hbar) and its draw interval's width;
    compare its natural-unit time energy_scale * tau / hbar, exactly, before rounding it once.
    """
    if experiment == "compare":
        try:
            float(Fraction(energy_scale) * Fraction(tau) / Fraction(hbar))
        except OverflowError:
            return "params.energy_scale"
        return None
    if experiment == "decohere":
        formed = (tau / hbar, energy_scale * (tau / hbar))
        return None if all(map(math.isfinite, formed)) else "params.tau"
    if not (math.isfinite(tau / hbar) and math.isfinite((a_tilde + b_tilde) * (tau / hbar))):
        return "params.tau"
    width = 2.0 * (max(a_tilde, b_tilde) if mode == "independent_uniform" else a_tilde + b_tilde)
    return None if math.isfinite(width) else ("params.A_tilde" if a_tilde >= b_tilde else "params.B_tilde")


class TestMagnitudes:
    """A Monte Carlo run at any magnitudes exits 0 with no warning exactly when the numbers it forms are finite."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from(["decohere", "stochastic", "compare"]),
        st.sampled_from(SAMPLING_MODES),
        MAGNITUDES, MAGNITUDES, MAGNITUDES, MAGNITUDES, MAGNITUDES,
    )
    def test_runs_exactly_where_its_numbers_are_finite(self, experiment, mode, energy_scale, a_tilde, b_tilde, tau, hbar):
        params = {
            "decohere": {"K": 2, "energy_scale": energy_scale, "tau": [tau], "trials": 2},
            "stochastic": {"A_tilde": a_tilde, "B_tilde": b_tilde, "mode": mode, "tau": [tau], "n": 2},
            "compare": {"K": 2, "energy_scale": [energy_scale], "tau": tau, "trials": 2, "n": 2},
        }[experiment]
        expected = magnitude_rule(experiment, mode, energy_scale, a_tilde, b_tilde, tau, hbar)
        with tempfile.TemporaryDirectory() as tmp:
            config = Path(tmp) / "config.json"
            config.write_text(json.dumps({"hbar": hbar, "params": params}))
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = cli.main([experiment, "--config", str(config), "--out", tmp])
            if expected is None:
                assert code == 0, err.getvalue()
                assert json.loads((Path(tmp) / f"{experiment}_result.json").read_text())["warnings"] == []
            else:
                assert code == 2
                assert f"error: {expected}:" in err.getvalue()


def spectral_rule(grid_points, box_length, mass, hbar, potential) -> str | None:
    """The field a spectral run must name at exit 2, or None when the grid it builds has a finite diagonal.

    The grid is built in float64 at the natural-unit mass m = mass / hbar / hbar, with dx = box_length /
    (grid_points + 1); a harmonic V keeps the given mass. V must be finite, and so must 1 / (m dx^2) + V.
    """
    dx = box_length / (grid_points + 1)
    with np.errstate(all="ignore"):
        if potential["kind"] == "harmonic":
            x = dx * np.arange(1, grid_points + 1)
            v = 0.5 * np.float64(mass) * np.float64(potential["omega"]) ** 2 * (x - box_length / 2.0) ** 2
        else:
            v = np.array(potential.get("values", [0.0] * grid_points))
        diag = 1.0 / (np.float64(mass) / hbar / hbar * dx * dx) + v
    if not np.isfinite(v).all():
        return "params.grid.potential.omega"
    return None if np.isfinite(diag).all() else "params.grid.box_length"


class TestSpectralMagnitudes:
    """A spectral run at any magnitudes exits 0 with no warning exactly when the diagonal it builds is finite."""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(3, 64), MAGNITUDES, MAGNITUDES, MAGNITUDES, st.sampled_from(["zero", "harmonic", "values"]),
           st.data())
    def test_runs_exactly_where_its_diagonal_is_finite(self, grid_points, box_length, mass, hbar, kind, data):
        potential = {"kind": kind}
        if kind == "harmonic":
            potential["omega"] = data.draw(MAGNITUDES, label="omega")
        elif kind == "values":
            potential["values"] = data.draw(st.lists(MAGNITUDES, min_size=grid_points, max_size=grid_points), label="values")
        grid = {"grid_points": grid_points, "box_length": box_length, "mass": mass, "potential": potential}
        expected = spectral_rule(grid_points, box_length, mass, hbar, potential)
        with tempfile.TemporaryDirectory() as tmp:
            config = Path(tmp) / "config.json"
            config.write_text(json.dumps({"hbar": hbar, "params": {"grid": grid, "E_B": 1.0}}))
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = cli.main(["spectral", "--config", str(config), "--out", tmp])
            if expected is None:
                assert code == 0, err.getvalue()
                record = json.loads((Path(tmp) / "spectral_result.json").read_text())
                assert record["warnings"] == []
                row = record["outputs"]["rows"][0]
                assert row["energy_lower"] <= row["ground_energy_dense"] <= row["energy_upper"]
            else:
                assert code == 2
                assert f"error: {expected}:" in err.getvalue()


# 0 (|e| < 1) or +-10^(|e| - 301) for e drawn from [-609, 609]: zero, or log-uniform over [1e-300, 1e308], either sign.
SIGNED_MAGNITUDES = st.floats(-609.0, 609.0).map(
    lambda e: 0.0 if abs(e) < 1.0 else math.copysign(10.0 ** (abs(e) - 301.0), e)
)


class TestSpectralAccuracy:
    """Every exit-0 spectral run on a small grid with log-uniform entries is accurate, and its bracket holds."""

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(SIGNED_MAGNITUDES, min_size=3, max_size=64),
        st.floats(-3.0, 3.0).map(lambda exponent: 10.0**exponent),
        st.floats(-140.0, 140.0).map(lambda exponent: 10.0**exponent),
        SIGNED_MAGNITUDES,
    )
    def test_energy_and_bracket_match_the_dense_reference(
        self, exactly_positive_definite, values, box_length, mass, threshold
    ):
        grid_points = len(values)
        grid = {"grid_points": grid_points, "box_length": box_length, "mass": mass,
                "potential": {"kind": "values", "values": values}}
        try:
            record = run({"experiment": "spectral", "params": {"grid": grid, "E_B": threshold}})
        except ConfigError:
            return  # exit 2, naming a limit field: no energy to check
        row = record.outputs["rows"][0]
        assert record.warnings == []
        inst = reduction.SpectralDecisionInstance(grid_points, box_length, mass, np.array(values), threshold)
        h, _ = reduction.reduce_energy_decision(inst)
        # Relative to the largest entry: an eigensolver's error scales with the operator, not with E0.
        scale = max(np.abs(h.diag).max(), np.abs(h.offdiag).max())
        assert abs(row["ground_energy_dense"] - np.linalg.eigvalsh(h.dense())[0]) <= 1e-12 * scale
        # The exact inertia, not eigvalsh, is the bracket's oracle: eigvalsh can be off by more than its width.
        assert exactly_positive_definite(h.diag, h.offdiag, row["energy_lower"])
        assert not exactly_positive_definite(h.diag, h.offdiag, row["energy_upper"])
        assert row["energy_lower"] <= row["ground_energy_dense"] <= row["energy_upper"]


# Small configs at hbar = 1 for the units oracle; every time is a natural-unit time here.
UNITS_BASES = {
    "decohere": {"K": 6, "energy_scale": 3.0, "tau": [0.0, 0.3, 7.0], "trials": 5},
    "stochastic": {"A_tilde": 2.5, "B_tilde": 0.75, "mode": "independent_uniform", "tau": [0.0, 0.3, 7.0], "n": 200},
    "compare": {"K": 6, "energy_scale": [0.5, 40.0], "tau": 0.3, "trials": 5, "n": 200},
    "adiabatic": {"instance_path": str(REPO / "instances" / "ec_n3_single.json"), "schedule": {"T_min": 0.5, "doublings": 2}},
    "spectral": {"grid": {"grid_points": 64, "box_length": 1.0, "mass": 1.0,
                          "potential": {"kind": "harmonic", "omega": 3.0}}, "E_B": 10.0},
}


def in_units(experiment: str, k: int) -> dict:
    """The base config at hbar = 2^k: times scaled by 2^k; for spectral, mass by 2^(2k) and omega by 2^(-k)."""
    params = json.loads(json.dumps(UNITS_BASES[experiment]))
    if experiment == "spectral":
        params["grid"]["mass"] = math.ldexp(params["grid"]["mass"], 2 * k)
        params["grid"]["potential"]["omega"] = math.ldexp(params["grid"]["potential"]["omega"], -k)
    elif experiment == "adiabatic":
        params["schedule"]["T_min"] = math.ldexp(params["schedule"]["T_min"], k)
    elif experiment == "compare":
        params["tau"] = math.ldexp(params["tau"], k)
    else:
        params["tau"] = [math.ldexp(tau, k) for tau in params["tau"]]
    return {"experiment": experiment, "seed": 3, "hbar": math.ldexp(1.0, k), "params": params}


# The energy dimension of each field the energy oracle scales: an energy by 2^j, a time by 2^-j, a mass by 2^-j.
ENERGY_DIMENSIONS = {
    "decohere": {"energy_scale": 1, "tau": -1},
    "stochastic": {"A_tilde": 1, "B_tilde": 1, "tau": -1},
    "compare": {"energy_scale": 1, "tau": -1},
    "spectral": {"mass": -1, "omega": 1, "E_B": 1, "ground_energy": 1, "ground_energy_dense": 1,
                 "energy_lower": 1, "energy_upper": 1, "threshold": 1},
}


def energy_scaled(node, dimensions: dict, j: int, key=None):
    """``node`` with every number under a key of ``dimensions`` multiplied by 2^(dimension * j)."""
    if isinstance(node, dict):
        return {k: energy_scaled(value, dimensions, j, k) for k, value in node.items()}
    if isinstance(node, list):
        return [energy_scaled(value, dimensions, j, key) for value in node]
    if key in dimensions and isinstance(node, float):
        return math.ldexp(node, dimensions[key] * j)
    return node


class TestUnitsOracle:
    """hbar enters only through the natural-unit times and mass, so a change of units by 2^k changes no bit."""

    @pytest.mark.parametrize("experiment", EXPERIMENTS)
    def test_power_of_two_units_give_bit_identical_outputs(self, experiment):
        base = run(in_units(experiment, 0))
        for k in (-300, -45, 1, 17, 300):
            record = run(in_units(experiment, k))
            outputs = record.outputs
            # The echoed times are the configured ones; scaled back by 2^-k they are the base run's.
            for row in outputs["rows"]:
                for key in ("tau", "T"):
                    if key in row:
                        row[key] = math.ldexp(row[key], -k)
            if experiment == "compare":
                outputs["summary"]["tau"] = math.ldexp(outputs["summary"]["tau"], -k)
            assert json.dumps(outputs, sort_keys=True) == json.dumps(base.outputs, sort_keys=True), k
            assert record.warnings == base.warnings == []

    @pytest.mark.parametrize("experiment", sorted(ENERGY_DIMENSIONS))
    def test_power_of_two_energy_scales_give_bit_identical_outputs(self, experiment):
        dimensions = ENERGY_DIMENSIONS[experiment]
        base = run({"experiment": experiment, "seed": 3, "params": UNITS_BASES[experiment]})
        for j in (-300, -45, 1, 17, 300):
            params = energy_scaled(UNITS_BASES[experiment], dimensions, j)
            record = run({"experiment": experiment, "seed": 3, "params": params})
            outputs, expected = energy_scaled(record.outputs, dimensions, -j), json.loads(json.dumps(base.outputs))
            if experiment == "spectral" and j < 0:
                # Its max(1, |E|) floor is not scale-free: below an energy of 1 the gap is absolute. The
                # bracket itself is formed on A = H / s, so energy_lower and energy_upper scale exactly.
                for row in (*outputs["rows"], *expected["rows"]):
                    del row["solver_relative_gap"]
            assert json.dumps(outputs, sort_keys=True) == json.dumps(expected, sort_keys=True), j
            assert record.warnings == base.warnings == []
