"""Config validation, dispatch, emission formats, and the CLI surface."""
import dataclasses
import json
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

import clab.cli as cli
from clab.runner import (
    ConfigError,
    NumericalFailure,
    emit,
    record_from_json,
    run,
    validate_config,
)
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

    def test_adiabatic_bundled_instance(self):
        record = run(adiabatic_config())
        summary = record.outputs["summary"]
        assert summary["target_reached"] is True
        assert summary["most_probable_satisfies"] is True
        assert record.outputs["rows"][-1]["success_probability"] >= 0.9

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
        assert record.outputs["rows"][0]["solver_relative_gap"] <= 1e-8


class TestEmit:
    def test_json_roundtrip(self, tmp_path):
        record = run(decohere_config())
        (path,) = emit(record, ["json"], tmp_path)
        loaded = record_from_json(path.read_text())
        assert dataclasses.asdict(loaded) == dataclasses.asdict(record)

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

    def test_escapes_labels(self):
        svg = line_chart([Series(label="a<b>&c", xs=(1.0, 2.0), ys=(0.0, 1.0))], title="t&t")
        ET.fromstring(svg)  # well-formed XML despite hostile labels


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
        record = record_from_json((out_dir / "decohere_result.json").read_text())
        assert record.config["seed"] == 99

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
            ("compare", {"K": 4, "energy_scale": 1e308, "tau": 1e10, "trials": 2, "n": 100}, "params.energy_scale"),
            ("adiabatic", {"instance_path": str(REPO / "instances" / "ec_n3_single.json"),
                           "schedule": {"T_min": 1e308}}, "params.schedule.T_min"),
            ("adiabatic", {"instance_path": str(REPO / "instances" / "ec_n3_single.json"),
                           "schedule": {"T_min": 1e7}}, "params.schedule.T_min"),
        ],
        ids=["target_above_one", "stochastic_span_overflow", "decohere_span_overflow", "compare_span_overflow",
             "t_min_steps_overflow", "t_min_steps_over_limit"],
    )
    def test_out_of_range_config_exit_two(self, tmp_path, capsys, experiment, params, path):
        config = self._write_config(tmp_path, {"params": params})
        code = cli.main([experiment, "--config", str(config), "--out", str(tmp_path / "out")])
        assert code == 2
        assert path in capsys.readouterr().err

    def test_bad_format_exit_two(self, tmp_path, capsys):
        config = self._write_config(
            tmp_path, {"params": {"K": 10, "energy_scale": 10.0, "tau": 1.0, "trials": 5}}
        )
        code = cli.main(["decohere", "--config", str(config), "--format", "json,yaml", "--out", str(tmp_path / "o")])
        assert code == 2
