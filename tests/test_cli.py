"""End-to-end CLI runs: exit codes, reports, side files, determinism."""

from __future__ import annotations

import json
import re
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from dil.cli import CONFIG_KEYS, ExperimentConfig, load_config, main
from dil.errors import ConfigError
from dil.spectral import AmbiguousGapWarning

ROOT = Path(__file__).resolve().parent.parent

FAST_CONFIG = """\
# small grid, still resolves the zero mode
grid.L = 4.5
grid.n = 24
solver.k = 6
"""


@pytest.fixture()
def fast_config(tmp_path):
    path = tmp_path / "experiment.cfg"
    path.write_text(FAST_CONFIG)
    return str(path)


def _read_report(path):
    with open(path) as fh:
        return json.load(fh)


# --------------------------------------------------------------------------
# config parsing
# --------------------------------------------------------------------------

def test_defaults_without_config_file():
    cfg = load_config(None)
    assert cfg.grid_L == 5.0
    assert cfg.grid_n == 96
    assert cfg.sweep_c_values == [0.0, 0.1, 0.2, 0.3, 0.4, 0.5]


def test_unknown_key_is_a_hard_error(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("grid.N = 32\n")
    with pytest.raises(ConfigError, match="unknown config keys: grid.N"):
        load_config(str(path))


@pytest.mark.parametrize("key", ["winding.radius", "winding.samples", "index.gap_threshold",
                                 "index.loc_radius", "index.loc_min"])
def test_the_contour_is_not_configurable(tmp_path, monkeypatch, key):
    # the winding is taken on the grid's contour |z| = L, sampled as finely
    # as the entry needs, and the census calibrates its threshold and disk
    # from the data: the keys that once set them are unknown
    path = tmp_path / "bad.cfg"
    path.write_text(f"{key} = 256\n")
    with pytest.raises(ConfigError, match=re.escape(f"unknown config keys: {key}")):
        load_config(str(path))
    env = "DIL_" + key.upper().replace(".", "_")
    monkeypatch.setenv(env, "256")
    with pytest.raises(ConfigError, match=env):
        load_config(None)


def test_a_key_set_twice_in_a_file_is_an_error(tmp_path, monkeypatch):
    # it was last-wins: grid.n = 96 then grid.n = 24 ran at 24
    path = tmp_path / "twice.cfg"
    path.write_text("grid.n = 96\n# comment\ngrid.n = 24\n")
    with pytest.raises(ConfigError, match=r"twice\.cfg:3: 'grid\.n' is already set on line 1"):
        load_config(str(path))
    # the environment still overrides the file
    path.write_text("grid.n = 96\n")
    monkeypatch.setenv("DIL_GRID_N", "24")
    assert load_config(str(path)).grid_n == 24


# one value per key that has a rule, breaking that rule
RULE_BREAKERS = {
    "grid.L": 0, "grid.n": 4, "solver.k": 0, "sweep.c_values": [0, 1.0],
    "convergence.n_values": [49, 97],
}


def test_every_rule_has_a_breaking_value():
    assert set(RULE_BREAKERS) == {k for k, f in CONFIG_KEYS.items()
                                  if f.metadata["rule"] is not None}


@pytest.mark.parametrize("key", sorted(RULE_BREAKERS))
def test_invalid_value_names_the_key(tmp_path, key):
    path = tmp_path / "bad.cfg"
    for bad in ('"many"', json.dumps(RULE_BREAKERS[key])):
        path.write_text(f"{key} = {bad}\n")
        with pytest.raises(ConfigError, match=re.escape(key)):
            load_config(str(path))


# json.loads accepts NaN and Infinity; every number-valued key must refuse them
NUMBER_DEFAULTS = {k: v for k, v in ExperimentConfig().to_flat_dict().items()
                   if not isinstance(v, int)}


@pytest.mark.parametrize("key", sorted(NUMBER_DEFAULTS))
def test_non_finite_number_names_the_key(tmp_path, monkeypatch, capsys, key):
    path = tmp_path / "bad.cfg"
    for bad in ("NaN", "Infinity", "-Infinity"):
        value = f"[0.5, {bad}]" if isinstance(NUMBER_DEFAULTS[key], list) else bad
        path.write_text(f"{key} = {value}\n")
        with pytest.raises(ConfigError, match=re.escape(key)):
            load_config(str(path))
        monkeypatch.setenv("DIL_" + key.upper().replace(".", "_"), value)
        assert main(["winding"]) == 2
        assert key in capsys.readouterr().err


def test_integer_too_large_for_a_double_names_the_key(tmp_path, monkeypatch, capsys):
    huge = "1" + "0" * 400
    path = tmp_path / "bad.cfg"
    path.write_text(f"grid.L = {huge}\n")
    with pytest.raises(ConfigError, match=re.escape("grid.L")):
        load_config(str(path))
    assert main(["winding", "--config", str(path)]) == 2
    assert "grid.L" in capsys.readouterr().err
    monkeypatch.setenv("DIL_GRID_L", huge)
    assert main(["winding"]) == 2
    assert "grid.L" in capsys.readouterr().err


def test_constraint_revalidation(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("model.epsilon = 2\nmodel.f1 = 1\n")
    with pytest.raises(ConfigError, match="model"):
        load_config(str(path))


def test_schema_config_keys_match_the_table():
    schema = json.loads(resources.files("dil").joinpath(
        "schemas/run_report.schema.json").read_text())
    config = schema["properties"]["config"]
    assert config["required"] == list(CONFIG_KEYS)
    assert set(config["properties"]) == set(CONFIG_KEYS)


def test_readme_config_table_matches_the_defaults():
    rows = re.findall(r"^\| `([^`]+)` \| `([^`]+)` \|", (ROOT / "README.md").read_text(),
                      flags=re.MULTILINE)
    readme = {key: json.loads(default) for key, default in rows}
    assert readme == ExperimentConfig().to_flat_dict()


def test_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("DIL_GRID_N", "32")
    monkeypatch.setenv("DIL_MODEL_EPSILON", "0.25")
    cfg = load_config(None)
    assert cfg.grid_n == 32
    assert cfg.model_epsilon == 0.25


def test_unknown_env_override_rejected(monkeypatch):
    monkeypatch.setenv("DIL_GRID_WIDTH", "3")
    with pytest.raises(ConfigError, match="DIL_GRID_WIDTH"):
        load_config(None)


def test_seed_flag_overrides_config(tmp_path):
    path = tmp_path / "seeded.cfg"
    path.write_text("seed = 5\n")
    assert load_config(str(path)).seed == 5
    assert load_config(str(path), seed_flag=11).seed == 11


# --------------------------------------------------------------------------
# exit codes
# --------------------------------------------------------------------------

def test_config_error_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("grid.n = 4\n")
    assert main(["index", "--config", str(path)]) == 2
    assert "grid.n" in capsys.readouterr().err


def test_solver_error_exit_code(tmp_path, monkeypatch, capsys):
    import dil.spectral as spectral_mod

    def fake_eigsh(*args, **kwargs):
        raise spectral_mod.spla.ArpackNoConvergence(
            "no convergence", np.array([]), np.array([]))

    monkeypatch.setattr(spectral_mod.spla, "eigsh", fake_eigsh)
    path = tmp_path / "iterative.cfg"
    path.write_text("grid.n = 52\n")  # every grid size reaches the faked eigsh
    assert main(["index", "--config", str(path)]) == 3
    assert "solver error" in capsys.readouterr().err


def test_index_pass_exit_code(fast_config, tmp_path):
    out = tmp_path / "index.json"
    assert main(["index", "--config", fast_config, "--out", str(out)]) == 0
    report = _read_report(out)
    assert report["status"] == "pass"
    assert report["results"]["delta"] == 1
    assert report["results"]["winding"] == 1
    assert report["subcommand"] == "index"
    assert (tmp_path / "index_spectrum_minus.csv").exists()
    assert (tmp_path / "index_spectrum_plus.csv").exists()


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------

def test_algebra_check_subcommand(fast_config, tmp_path):
    out = tmp_path / "algebra.json"
    assert main(["algebra-check", "--config", fast_config, "--out", str(out)]) == 0
    report = _read_report(out)
    assert report["results"]["max_residual"] <= 1e-12


def test_zero_modes_subcommand(fast_config, tmp_path):
    out = tmp_path / "modes.json"
    assert main(["zero-modes", "--config", fast_config, "--out", str(out)]) == 0
    report = _read_report(out)
    assert report["results"]["count"] == 1
    modes = report["results"]["modes"]
    assert len(modes) == 1
    assert modes[0]["localization_fraction"] >= 0.95
    assert (tmp_path / "modes_mode0.csv").exists()


def test_zero_modes_fails_where_index_fails(tmp_path):
    # at t = 8 the n = 24 grid under-resolves the mode: the census counts
    # none, against winding 1; zero-modes passed on the empty count
    path = tmp_path / "t8.cfg"
    path.write_text("grid.L = 5\ngrid.n = 24\nmodel.t = 8\nsolver.k = 6\n")
    index_out, modes_out = tmp_path / "index.json", tmp_path / "modes.json"
    with pytest.warns(AmbiguousGapWarning, match="disagrees"):
        assert main(["index", "--config", str(path), "--serial",
                     "--out", str(index_out)]) == 1
    with pytest.warns(AmbiguousGapWarning, match="disagrees"):
        assert main(["zero-modes", "--config", str(path), "--serial",
                     "--out", str(modes_out)]) == 1
    index, modes = _read_report(index_out), _read_report(modes_out)
    assert (index["results"]["delta"], index["results"]["winding"]) == (0, 1)
    assert modes["results"]["count"] == 0
    assert index["status"] == modes["status"] == "fail"


def test_zero_modes_uses_the_index_census(fast_config, tmp_path):
    index_out, modes_out = tmp_path / "index.json", tmp_path / "modes.json"
    assert main(["index", "--config", fast_config, "--serial", "--out", str(index_out)]) == 0
    assert main(["zero-modes", "--config", fast_config, "--serial",
                 "--out", str(modes_out)]) == 0
    index, modes = _read_report(index_out)["results"], _read_report(modes_out)["results"]
    assert modes["count"] == index["n_minus"]
    assert modes["gap_threshold"] == index["gap_threshold"]
    assert modes["loc_radius"] == index["loc_radius"]
    assert modes["loc_min"] == index["loc_min"] == 0.95
    assert ([m["localization_fraction"] for m in modes["modes"]]
            == index["localization_fractions"]["minus"])


def test_sweep_subcommand(tmp_path):
    path = tmp_path / "sweep.cfg"
    path.write_text("grid.L = 4.5\ngrid.n = 24\nsolver.k = 6\n"
                    "sweep.c_values = [0, 0.3, 0.5]\n")
    out = tmp_path / "sweep.json"
    assert main(["sweep", "--config", str(path), "--out", str(out)]) == 0
    report = _read_report(out)
    rows = report["results"]["rows"]
    assert [r["delta"] for r in rows] == [1, 1, 1]
    csv_path = tmp_path / "sweep_sweep.csv"
    assert csv_path.exists()
    header = csv_path.read_text().splitlines()[0]
    assert header.split(",")[:4] == ["c", "c_effective", "delta", "winding"]


def test_sweep_rejects_c_of_one(tmp_path):
    path = tmp_path / "sweep.cfg"
    path.write_text("sweep.c_values = [0, 1.0]\n")
    assert main(["sweep", "--config", str(path)]) == 2


def test_convergence_subcommand(tmp_path):
    path = tmp_path / "conv.cfg"
    path.write_text("grid.L = 5.0\nsolver.k = 3\n"
                    "convergence.n_values = [49, 65, 97]\n")
    out = tmp_path / "conv.json"
    assert main(["convergence", "--config", str(path), "--out", str(out)]) == 0
    report = _read_report(out)
    assert 1.7 <= report["results"]["order_second"] <= 2.3
    assert (tmp_path / "conv_convergence.csv").exists()


def test_convergence_refuses_a_perturbed_model(tmp_path, capsys):
    # the reference levels 0 and 1 are those of the unperturbed oscillator
    path = tmp_path / "conv.cfg"
    path.write_text("model.epsilon = 0.3\nconvergence.n_values = [16, 20, 24]\n")
    assert main(["convergence", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "unperturbed" in err


def test_winding_subcommand(fast_config, tmp_path):
    out = tmp_path / "winding.json"
    assert main(["winding", "--config", fast_config, "--out", str(out)]) == 0
    report = _read_report(out)
    assert (report["results"]["winding"], report["results"]["radius"]) == (1, 4.5)
    assert report["results"]["mass_entry"] == "(1+0i)*z^1*zb^0*d^0*db^0"


def test_opcalc_selftest_subcommand(tmp_path):
    out = tmp_path / "selftest.json"
    assert main(["opcalc-selftest", "--out", str(out)]) == 0
    report = _read_report(out)
    assert report["results"]["all_passed"] is True
    assert report["results"]["trials"] == 100


# --------------------------------------------------------------------------
# report contract
# --------------------------------------------------------------------------

@pytest.mark.parametrize("subcommand", ["algebra-check", "index", "zero-modes",
                                        "winding", "sweep"])
def test_report_validates_against_shipped_schema(tmp_path, subcommand):
    jsonschema = pytest.importorskip("jsonschema")
    config = tmp_path / "schema.cfg"
    config.write_text(FAST_CONFIG + "sweep.c_values = [0, 0.3]\n")
    out = tmp_path / "report.json"
    assert main([subcommand, "--config", str(config), "--serial",
                 "--out", str(out)]) == 0
    schema = json.loads(resources.files("dil").joinpath(
        "schemas/run_report.schema.json").read_text())
    jsonschema.validate(_read_report(out), schema)


def test_serial_reports_are_bit_reproducible(fast_config, tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(["index", "--config", fast_config, "--serial", "--seed", "3",
                 "--out", str(out1)]) == 0
    assert main(["index", "--config", fast_config, "--serial", "--seed", "3",
                 "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_report_embeds_config_and_versions(fast_config, tmp_path):
    out = tmp_path / "report.json"
    main(["index", "--config", fast_config, "--serial", "--out", str(out)])
    report = _read_report(out)
    assert report["schema_version"] == 5
    assert report["package_version"] == "1.0.0"
    assert report["config"]["grid.n"] == 24
    assert "module_versions" not in report
    assert report["timings"] is None  # nulled under --serial
