"""Configuration parsing and the command-line front end."""

import hashlib
import json
import math

import numpy as np
import pytest

from fracstab import closed_form_homogeneous, gamma_fn, ml_scalar, simulator
from fracstab.cli import main
from fracstab.config import dump_config, load_config, parse_config
from fracstab.errors import ConfigError, ConvergenceError
from fracstab.simulator import TimeGrid

from oracle_fixtures import ML_A075_B075_ZM30P30J


def benchmark_doc(**over):
    doc = {
        "system": {
            "matrix": [[-1.0]],
            "rho": [1.0],
            "alpha": 0.75,
            "p": 2,
            "coefficients": {
                "family": "linear",
                "G": [[0.05]], "B": [[0.05]], "S": [[0.05]],
            },
        },
        "grid": {"T": 1.0, "N": 64},
        "monte_carlo": {"n_paths": 20, "master_seed": 12345, "scheme": "mild"},
        "criteria": {"epsilon": 1.0, "window_fraction": 0.5, "tail_tol": 0.01},
        "output": {"directory": ".", "emit_paths": False},
    }
    doc.update(over)
    return doc


def write_doc(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def digests(out_dir, names):
    return {n: hashlib.sha256((out_dir / n).read_bytes()).hexdigest() for n in names}


# ------------------------------------------------------------------- config

def test_config_round_trip(tmp_path):
    cfg = parse_config(benchmark_doc())
    again = parse_config(dump_config(cfg))
    assert again == cfg


def test_config_round_trip_other_families():
    doc = benchmark_doc()
    doc["system"]["coefficients"] = {"family": "bounded_smooth", "c_g": 0.1,
                                     "c_b": 0.2, "c_s": 0.3}
    cfg = parse_config(doc)
    assert parse_config(dump_config(cfg)) == cfg
    doc["system"]["coefficients"] = {"family": "additive", "sigma": 0.3,
                                     "allow_nonvanishing": True}
    doc["criteria"]["m_override"] = 1.0
    cfg = parse_config(doc)
    assert parse_config(dump_config(cfg)) == cfg


def test_config_field_paths_in_errors():
    doc = benchmark_doc()
    doc["system"]["matrix"] = [[1.0, 2.0]]
    with pytest.raises(ConfigError) as err:
        parse_config(doc)
    assert "system.matrix[0]" in str(err.value)

    doc = benchmark_doc()
    doc["system"]["alpha"] = 0.3
    with pytest.raises(ConfigError) as err:
        parse_config(doc)
    assert "(1/2, 1]" in str(err.value)

    doc = benchmark_doc()
    del doc["monte_carlo"]["n_paths"]
    with pytest.raises(ConfigError) as err:
        parse_config(doc)
    assert "monte_carlo.n_paths" in str(err.value)


def test_additive_family_requires_flag():
    doc = benchmark_doc()
    doc["system"]["coefficients"] = {"family": "additive", "sigma": 0.3}
    with pytest.raises(ConfigError) as err:
        parse_config(doc)
    assert "allow_nonvanishing" in str(err.value)


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(bad)


# ---------------------------------------------------------------------- CLI

def test_check_benchmark_passes(tmp_path):
    doc = benchmark_doc()
    doc["criteria"]["m_override"] = 1.0
    path = write_doc(tmp_path, doc)
    code = main(["check", "--config", path, "--out", str(tmp_path)])
    assert code == 0
    text = (tmp_path / "certificate.txt").read_text()
    values = dict(line.split(" = ") for line in text.strip().splitlines())
    assert float(values["theta"]) == pytest.approx(0.03 * math.pi, rel=1e-12)
    assert float(values["delta"]) == pytest.approx(0.99 * 0.895 / 6.0, rel=1e-12)
    assert values["verdict_existence"] == "true"
    assert values["verdict_stability"] == "true"
    assert float(values["sector_margin"]) == pytest.approx(0.625 * math.pi, rel=1e-9)


def test_check_strong_neutral_term_exits_2(tmp_path, capsys):
    doc = benchmark_doc()
    doc["system"]["coefficients"]["G"] = [[0.6]]
    path = write_doc(tmp_path, doc)
    code = main(["check", "--config", path, "--out", str(tmp_path)])
    assert code == 2
    assert "neutral term too strong" in capsys.readouterr().err


def test_check_malformed_config_exits_1(tmp_path, capsys):
    doc = benchmark_doc()
    doc["system"]["matrix"] = [[1.0], [2.0]]
    path = write_doc(tmp_path, doc)
    code = main(["check", "--config", path, "--out", str(tmp_path)])
    assert code == 1
    assert "system.matrix" in capsys.readouterr().err


# json.load reads NaN and Infinity; each is refused with the field it sits in
@pytest.mark.parametrize("command", ["check", "simulate"])
@pytest.mark.parametrize("keys,value,field", [
    pytest.param(("criteria", "epsilon"), math.nan, "criteria.epsilon", id="epsilon"),
    pytest.param(("criteria", "tail_tol"), math.nan, "criteria.tail_tol", id="tail_tol"),
    pytest.param(("criteria", "m_override"), math.inf, "criteria.m_override", id="m_override"),
    pytest.param(("system", "coefficients", "G"), [[math.nan]], "system.coefficients.G[0][0]",
                 id="G"),
])
def test_non_finite_numbers_exit_1(tmp_path, capsys, command, keys, value, field):
    doc = benchmark_doc()
    block = doc
    for key in keys[:-1]:
        block = block[key]
    block[keys[-1]] = value
    path = write_doc(tmp_path, doc)
    assert main([command, "--config", path, "--out", str(tmp_path / "out")]) == 1
    assert field in capsys.readouterr().err


def test_ml_command_prints_15_digits(capsys):
    assert main(["ml", "1", "1", "1"]) == 0
    assert capsys.readouterr().out.strip() == "2.71828182845905"
    assert main(["ml", "2", "1", "1"]) == 0
    assert capsys.readouterr().out.strip() == "1.54308063481524"
    assert main(["ml", "0.75", "0.75", "0"]) == 0
    out = capsys.readouterr().out.strip()
    assert float(out) == pytest.approx(1.0 / gamma_fn(0.75), rel=1e-14)


def test_ml_command_takes_complex_z(capsys):
    assert main(["ml", "0.75", "0.75", "--", "-30+30j"]) == 0
    out = capsys.readouterr().out.strip()
    assert out.endswith("j") and complex(out) == pytest.approx(ML_A075_B075_ZM30P30J, rel=1e-13)
    assert main(["ml", "0.75", "0.75", "-1"]) == 0
    assert capsys.readouterr().out.strip() == format(ml_scalar(0.75, 0.75, -1.0), ".15g")
    assert main(["ml", "0.75", "0.75", "z"]) == 1


def test_ml_command_domain_error(capsys):
    assert main(["ml", "-1", "1", "1"]) == 1
    assert "alpha" in capsys.readouterr().err


def test_simulate_outputs_and_determinism(tmp_path):
    path = write_doc(tmp_path, benchmark_doc())
    names = ["moments.csv", "moments_weighted.csv", "verdict.txt", "meta.txt"]

    out1 = tmp_path / "run1"
    assert main(["simulate", "--config", path, "--out", str(out1)]) == 0
    out2 = tmp_path / "run2"
    assert main(["simulate", "--config", path, "--out", str(out2)]) == 0
    assert digests(out1, names) == digests(out2, names)

    # seed override changes the byte stream
    out4 = tmp_path / "run4"
    assert main(["simulate", "--config", path, "--out", str(out4), "--seed", "7"]) == 0
    assert digests(out1, ["moments.csv"]) != digests(out4, ["moments.csv"])


def test_simulate_zero_coefficients_matches_closed_form(tmp_path):
    doc = benchmark_doc()
    doc["system"]["coefficients"] = {"family": "zero"}
    doc["grid"]["N"] = 128
    path = write_doc(tmp_path, doc)
    out = tmp_path / "zero"
    assert main(["simulate", "--config", path, "--out", str(out)]) == 0
    rows = (out / "moments_weighted.csv").read_text().strip().splitlines()[1:]
    t, m = np.array([[float(c) for c in r.split(",")[:2]] for r in rows]).T
    grid = TimeGrid(T=1.0, N=128)
    ref = closed_form_homogeneous(np.array([[-1.0]]), np.array([1.0]), 0.75, grid)
    np.testing.assert_allclose(m, ref.weighted[0, :, 0] ** 2, rtol=1e-10)
    verdict = dict(line.split(" = ") for line in
                   (out / "verdict.txt").read_text().strip().splitlines())
    assert verdict["stable_p"] == "true"
    assert verdict["sup_basis"] == "weighted"


def test_simulate_emit_paths(tmp_path):
    doc = benchmark_doc()
    doc["grid"]["N"] = 8
    doc["monte_carlo"]["n_paths"] = 3
    doc["output"]["emit_paths"] = True
    path = write_doc(tmp_path, doc)
    out = tmp_path / "paths"
    assert main(["simulate", "--config", path, "--out", str(out)]) == 0
    lines = (out / "paths.csv").read_text().strip().splitlines()
    assert lines[0] == "path,node,t,weighted_0,value_0"
    assert len(lines) == 1 + 3 * 9
    first = lines[1].split(",")
    assert first[:2] == ["0", "0"] and first[4] == ""  # value empty at node 0


def test_simulate_scheme_override_and_coincidence(tmp_path):
    doc = benchmark_doc()
    doc["grid"]["N"] = 256
    doc["monte_carlo"]["n_paths"] = 50
    path = write_doc(tmp_path, doc)
    out_m = tmp_path / "mild"
    out_i = tmp_path / "intf"
    assert main(["simulate", "--config", path, "--out", str(out_m)]) == 0
    assert main(["simulate", "--config", path, "--out", str(out_i),
                 "--scheme", "integral_form"]) == 0
    vm = dict(line.split(" = ") for line in (out_m / "verdict.txt").read_text().splitlines())
    vi = dict(line.split(" = ") for line in (out_i / "verdict.txt").read_text().splitlines())
    assert vm["stable_p"] == vi["stable_p"]
    assert vm["asymptotically_stable_p"] == vi["asymptotically_stable_p"]
    assert vi["scheme"] == "integral_form"


def test_simulate_picard_scheme_matches_mild(tmp_path):
    doc = benchmark_doc()
    doc["grid"]["N"] = 64
    doc["monte_carlo"]["n_paths"] = 3
    path = write_doc(tmp_path, doc)
    out_m = tmp_path / "m"
    out_p = tmp_path / "p"
    assert main(["simulate", "--config", path, "--out", str(out_m)]) == 0
    assert main(["simulate", "--config", path, "--out", str(out_p),
                 "--scheme", "picard"]) == 0
    m = np.loadtxt(out_m / "moments_weighted.csv", delimiter=",", skiprows=1)
    p = np.loadtxt(out_p / "moments_weighted.csv", delimiter=",", skiprows=1)
    np.testing.assert_allclose(p[:, 1], m[:, 1], rtol=1e-6, atol=1e-12)


def strong_neutral_doc(tmp_path):
    doc = benchmark_doc()
    doc["system"]["coefficients"]["G"] = [[0.95]]
    doc["grid"]["N"] = 16
    doc["monte_carlo"]["n_paths"] = 2
    return write_doc(tmp_path, doc)


# G = 0.95 is admissible: the marches solve the linear neutral term exactly
@pytest.mark.parametrize("argv", [["simulate", "--scheme", "mild"],
                                  ["convergence", "--scheme", "mild"]])
def test_strong_neutral_term_runs(tmp_path, argv):
    path = strong_neutral_doc(tmp_path)
    assert main([*argv, "--config", path, "--out", str(tmp_path / "out")]) == 0


# Picard contracts at about 0.95 per sweep and stops at its 200 sweep cap; a
# march that fails to converge is forced, since the exact solves always do
@pytest.mark.parametrize("argv", [["simulate", "--scheme", "mild"],
                                  ["simulate", "--scheme", "picard"],
                                  ["convergence", "--scheme", "mild"]])
def test_convergence_failure_is_a_numeric_failure(tmp_path, capsys, monkeypatch, argv):
    def stalled_march(*args, **kwargs):
        raise ConvergenceError("neutral-term fixed point did not converge")

    if "picard" not in argv:
        monkeypatch.setattr(simulator, "_march", stalled_march)
    path = strong_neutral_doc(tmp_path)
    assert main([*argv, "--config", path, "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err.startswith("numeric failure:")


def test_convergence_zero_coefficients_saturates(tmp_path):
    doc = benchmark_doc()
    doc["system"]["coefficients"] = {"family": "zero"}
    doc["grid"]["N"] = 32
    doc["monte_carlo"]["n_paths"] = 4
    path = write_doc(tmp_path, doc)
    out = tmp_path / "conv"
    assert main(["convergence", "--config", path, "--out", str(out)]) == 0
    lines = (out / "convergence.csv").read_text().strip().splitlines()
    assert lines[0] == "N,weighted_sup_error,observed_order"
    rows = [line.split(",") for line in lines[1:]]
    assert [r[0] for r in rows] == ["32", "64", "128"]
    assert all(r[2] == "saturated" for r in rows)


def test_convergence_monotone_errors(tmp_path):
    doc = benchmark_doc()
    doc["grid"]["N"] = 32
    doc["monte_carlo"]["n_paths"] = 16
    path = write_doc(tmp_path, doc)
    out = tmp_path / "conv2"
    assert main(["convergence", "--config", path, "--out", str(out)]) == 0
    lines = (out / "convergence.csv").read_text().strip().splitlines()[1:]
    errs = [float(line.split(",")[1]) for line in lines]
    assert errs[0] > errs[1] > errs[2]
    orders = [line.split(",")[2] for line in lines]
    assert orders[0] == ""
    assert all(float(o) > 0 for o in orders[1:])


def test_cli_rejects_unknown_arguments(capsys):
    assert main(["simulate"]) == 1
    assert main(["unknown-command"]) == 1
