"""Configuration parsing and the command-line front end."""

import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from fracstab import brownian_increments, gamma_fn, ml_scalar, picard_path_solve, simulator
from fracstab.cli import main
from fracstab.config import load_config, parse_config
from fracstab.errors import ConfigError, ConvergenceError, SimulationNumericError
from fracstab.simulator import TimeGrid

from homogeneous import closed_form_homogeneous
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


# a key the parser does not read would leave its field at the default
@pytest.mark.parametrize("keys,value,field", [
    pytest.param(("criteria", "epsilom"), 0.01, "criteria.epsilom", id="misspelled"),
    pytest.param(("system", "coefficients", "c_g"), 0.2, "system.coefficients.c_g",
                 id="other-family"),
    pytest.param(("system", "coefficients", "allow_nonvanishing"), True,
                 "system.coefficients.allow_nonvanishing", id="removed"),
    pytest.param(("grid", "dt"), 0.1, "grid.dt", id="grid"),
    pytest.param(("monte_carlo", "workers"), 2, "monte_carlo.workers", id="monte_carlo"),
    pytest.param(("output", "paths"), True, "output.paths", id="output"),
    pytest.param(("system", "order"), 0.75, "system.order", id="system"),
    pytest.param(("seed",), 1, "<root>.seed", id="root"),
])
def test_unknown_keys_are_refused(keys, value, field):
    doc = benchmark_doc()
    block = doc
    for key in keys[:-1]:
        block = block[key]
    block[keys[-1]] = value
    with pytest.raises(ConfigError) as err:
        parse_config(doc)
    assert str(err.value) == f"{field}: unknown key"


@pytest.mark.parametrize("key", ["system", "grid", "monte_carlo", "criteria", "output"])
@pytest.mark.parametrize("value", [[1.0], 0.5, "x"])
def test_blocks_that_are_not_objects_are_refused(key, value):
    with pytest.raises(ConfigError) as err:
        parse_config(benchmark_doc(**{key: value}))
    assert str(err.value) == f"{key}: expected an object"


def test_every_family_parses_its_own_parameters():
    for coefficients in ({"family": "zero"}, {"family": "additive", "sigma": 0.3},
                         {"family": "bounded_smooth", "c_g": 0.2, "c_b": 0.1, "c_s": 0.1}):
        doc = benchmark_doc()
        doc["system"]["coefficients"] = coefficients
        cfg = parse_config(doc)
        assert cfg.coeff_params == {k: v for k, v in coefficients.items() if k != "family"}
    assert parse_config(benchmark_doc()).coeff_params == {"G": [[0.05]], "B": [[0.05]],
                                                          "S": [[0.05]]}


@pytest.mark.parametrize("command", ["check", "simulate", "convergence"])
def test_unknown_key_exits_1_without_output(tmp_path, capsys, command):
    doc = benchmark_doc()
    doc["criteria"]["epsilom"] = 0.01
    out = tmp_path / "out"
    assert main([command, "--config", write_doc(tmp_path, doc), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "config error: criteria.epsilom: unknown key\n"
    assert not out.exists()


def test_additive_family_simulates_without_a_delta(tmp_path):
    # the family fails the vanishing-at-zero hypothesis, which the
    # certificate reports; the run itself is not refused
    doc = benchmark_doc()
    doc["system"]["coefficients"] = {"family": "additive", "sigma": 0.3}
    path = write_doc(tmp_path, doc)
    assert main(["simulate", "--config", path, "--out", str(tmp_path)]) == 0
    text = (tmp_path / "verdict.txt").read_text()
    values = dict(line.split(" = ") for line in text.strip().splitlines())
    assert values["delta"] == "nan"
    assert values["delta_hypothesis_met"] == "false"


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


# the stability verdict and delta(epsilon) stand only under the theorem's
# hypotheses: coefficients that vanish at zero and a spectrum in the sector
@pytest.mark.parametrize("system, note", [
    ({"coefficients": {"family": "additive", "sigma": 0.5}},
     "coefficients not verified to vanish at zero"),
    ({"matrix": [[0.5]], "coefficients": {"family": "linear", "G": [[0.01]],
                                          "B": [[0.01]], "S": [[0.01]]}},
     "spectrum outside the stability sector"),
])
def test_check_withholds_delta_outside_the_hypotheses(tmp_path, system, note):
    doc = benchmark_doc()
    doc["system"].update(system)
    path = write_doc(tmp_path, doc)
    assert main(["check", "--config", path, "--out", str(tmp_path)]) == 0
    text = (tmp_path / "certificate.txt").read_text()
    values = dict(line.split(" = ") for line in text.strip().splitlines())
    assert float(values["k_stab"]) < 1.0
    assert values["verdict_stability"] == "false"
    assert values["delta"] == "nan"
    assert values["delta_note"].startswith(note)


def test_check_strong_neutral_term_exits_2(tmp_path, capsys):
    doc = benchmark_doc()
    doc["system"]["coefficients"]["G"] = [[0.6]]
    path = write_doc(tmp_path, doc)
    code = main(["check", "--config", path, "--out", str(tmp_path)])
    assert code == 2
    assert "neutral term too strong" in capsys.readouterr().err


def test_check_names_a_contraction_constant_not_below_1(tmp_path, capsys):
    # the neutral gate holds (4 * 0.1^2 < 1), but Theta is large
    doc = benchmark_doc(grid={"T": 50.0, "N": 64})
    doc["system"]["coefficients"].update(G=[[0.1]], B=[[3.0]], S=[[3.0]])
    path = write_doc(tmp_path, doc)
    assert main(["check", "--config", path, "--out", str(tmp_path)]) == 2
    text = (tmp_path / "certificate.txt").read_text()
    values = dict(line.split(" = ") for line in text.strip().splitlines())
    assert float(values["neutral_gate"]) < 1.0 <= float(values["contraction"])
    assert values["verdict_existence"] == "false"
    err = capsys.readouterr().err.splitlines()
    assert err == [f"contraction constant {float(values['contraction']):.6g} is not below 1"]


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


@pytest.mark.parametrize("z", ["nan", "nan+1j", "1+nanj"])
def test_ml_command_refuses_nan(capsys, z):
    assert main(["ml", "0.75", "0.75", "--", z]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "NaN" in captured.err


# a NaN order used to print inf (beta) or a float-conversion error (alpha),
# and an infinite argument printed a limit after numpy warnings
@pytest.mark.parametrize("argv, name", [
    (["0.75", "nan", "1"], "beta"),
    (["nan", "0.75", "1"], "alpha"),
    (["0.75", "inf", "1"], "beta"),
    (["0.75", "0.75", "--", "-inf"], "infinite"),
    (["0.75", "0.75", "--", "inf"], "infinite"),
])
def test_ml_command_refuses_nan_order_and_infinite_argument(capsys, argv, name):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["ml", *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and name in captured.err


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


@pytest.mark.parametrize("command", ["simulate", "convergence"])
def test_seed_override_is_refused_like_the_config_seed(tmp_path, capsys, command):
    path = write_doc(tmp_path, benchmark_doc())
    out = tmp_path / "out"
    assert main([command, "--config", path, "--out", str(out), "--seed", "-1"]) == 1
    assert capsys.readouterr().err == "config error: --seed: must be >= 0, got -1\n"
    assert not out.exists()
    # any non-negative integer seeds the generator, past 64 bits too
    assert main(["simulate", "--config", path, "--out", str(out), "--seed", str(2**65)]) == 0


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


def test_simulate_plain_moments_rescale_the_weighted_curve(tmp_path):
    # ||X||^p = t^(p(a-1)) ||t^(1-a) X||^p on every path, so moments.csv is
    # the weighted curve's nodes 1..N rescaled, and the moment of the
    # emitted plain states
    doc = benchmark_doc()
    doc["system"]["p"] = 3
    doc["monte_carlo"]["n_paths"] = 30
    doc["output"]["emit_paths"] = True
    path = write_doc(tmp_path, doc)
    out = tmp_path / "p3"
    assert main(["simulate", "--config", path, "--out", str(out)]) == 0
    plain = np.loadtxt(out / "moments.csv", delimiter=",", skiprows=1)
    weighted = np.loadtxt(out / "moments_weighted.csv", delimiter=",", skiprows=1)
    t = weighted[1:, 0]
    np.testing.assert_array_equal(plain[:, 0], t)
    scale = t ** (3 * (0.75 - 1.0))
    np.testing.assert_allclose(plain[:, 1], weighted[1:, 1] * scale, rtol=1e-13)
    np.testing.assert_allclose(plain[:, 2], weighted[1:, 2] * scale, rtol=1e-13)
    paths = np.genfromtxt(out / "paths.csv", delimiter=",", skip_header=1).reshape(30, 65, 5)
    np.testing.assert_allclose(paths[:, 1:, 4], paths[:, 1:, 3] * t ** (0.75 - 1.0), rtol=1e-15)
    np.testing.assert_allclose(plain[:, 1], np.mean(np.abs(paths[:, 1:, 4]) ** 3, axis=0),
                               rtol=1e-13)


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


# Removed schemes: Picard solves one path (picard_path_solve) and is no
# scheme of an ensemble, and the literal integral form, with A g(s, X(s))
# under the integral, solved another equation than the mild form.  The flag
# and the config both name them in a configuration error, and the literal
# form's old flag is no option.  Their names are split, so that a search
# for them finds no code that uses them.
LITERAL = "integral_form_as" "_printed"


@pytest.mark.parametrize("command", ["simulate", "convergence"])
@pytest.mark.parametrize("source,value", [
    ("flag", "picard"), ("config", "picard"), ("flag", LITERAL), ("config", LITERAL),
    ("old_flag", "--as" "-printed")], ids=["flag-picard", "config-picard", "flag-literal",
                                         "config-literal", "old_flag"])
def test_removed_schemes_are_refused(tmp_path, capsys, command, source, value):
    doc = benchmark_doc()
    if source == "config":
        doc["monte_carlo"]["scheme"] = value
    argv = [command, "--config", write_doc(tmp_path, doc), "--out", str(tmp_path / "out")]
    extra = {"flag": ["--scheme", value], "config": [],
             "old_flag": ["--scheme", "integral_form", value]}[source]
    assert main(argv + extra) == 1
    err = capsys.readouterr().err
    named = value if source == "old_flag" else f"'{value}'"
    assert err.startswith("config error: ") and named in err, err
    assert not (tmp_path / "out").exists()


# A budget of one 64-path block splits P = 200 into four chunks, the last of
# 8 paths: every file keeps the bytes of the one-chunk run, and the run's
# peak, without paths.csv, stays below two chunks' buffers (the whole
# ensemble's are 3.1).  The far field's FFT scratch, about 0.9 MB whatever
# N and P, is below one chunk's buffers from N = 1024 on, so the bound
# holds there.
@pytest.mark.parametrize("scheme", ["mild", "integral_form"])
def test_simulate_in_chunks_keeps_the_bytes_of_one_chunk(tmp_path, monkeypatch, scheme):
    doc = benchmark_doc(grid={"T": 1.0, "N": 1024})
    doc["monte_carlo"]["n_paths"] = 200
    doc["output"]["emit_paths"] = True
    argv = ["simulate", "--config", write_doc(tmp_path, doc), "--scheme", scheme, "--out"]
    names = ["moments.csv", "moments_weighted.csv", "verdict.txt", "meta.txt"]
    assert simulator._chunk_edges(200, 1024, 1) == [0, 200]
    assert main([*argv, str(tmp_path / "whole")]) == 0
    # increments, states and two rings of 512 rows per path
    chunk_bytes = 64 * 8 * (1024 + 1025 + 2 * 512)
    monkeypatch.setattr(simulator, "_CHUNK_BYTES", chunk_bytes)
    assert simulator._chunk_edges(200, 1024, 1) == [0, 64, 128, 192, 200]
    assert main([*argv, str(tmp_path / "chunks")]) == 0
    assert (digests(tmp_path / "chunks", [*names, "paths.csv"])
            == digests(tmp_path / "whole", [*names, "paths.csv"]))
    doc["output"]["emit_paths"] = False
    argv[2] = write_doc(tmp_path, doc, "no_paths.json")
    tracemalloc.start()
    try:
        assert main([*argv, str(tmp_path / "traced")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert digests(tmp_path / "traced", names) == digests(tmp_path / "whole", names)
    assert peak < 2 * chunk_bytes, peak / chunk_bytes


def strong_neutral_doc(tmp_path):
    doc = benchmark_doc()
    doc["system"]["coefficients"]["G"] = [[0.95]]
    doc["grid"]["N"] = 16
    doc["monte_carlo"]["n_paths"] = 2
    return write_doc(tmp_path, doc)


# G = 0.95 is admissible: the marches and every Picard sweep solve the
# linear neutral term exactly
@pytest.mark.parametrize("argv", [["simulate", "--scheme", "mild"],
                                  ["convergence", "--scheme", "mild"],
                                  ["simulate", "--scheme", "integral_form"]])
def test_strong_neutral_term_runs(tmp_path, argv):
    path = strong_neutral_doc(tmp_path)
    assert main([*argv, "--config", path, "--out", str(tmp_path / "out")]) == 0


def picard_on_path_0(path):
    """picard_path_solve on path 0 of the ensemble of the config ``path``."""
    cfg = load_config(path)
    grid = cfg.grid()
    return picard_path_solve(cfg.system(), grid,
                             brownian_increments(grid, 1, cfg.master_seed).increments[0])


def test_strong_neutral_term_converges_by_picard(tmp_path):
    res = picard_on_path_0(strong_neutral_doc(tmp_path))
    assert res.contraction_ratio < 1.0
    assert np.all(np.isfinite(res.weighted))


# a march that fails to converge is forced, since the exact solves always do
@pytest.mark.parametrize("argv", [["simulate", "--scheme", "mild"],
                                  ["simulate", "--scheme", "integral_form"],
                                  ["convergence", "--scheme", "mild"]])
def test_convergence_failure_is_a_numeric_failure(tmp_path, capsys, monkeypatch, argv):
    def stalled(*args, **kwargs):
        raise ConvergenceError("neutral-term fixed point did not converge")

    monkeypatch.setattr(simulator, "_march", stalled)
    path = strong_neutral_doc(tmp_path)
    assert main([*argv, "--config", path, "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err.startswith("numeric failure:")


# E_{a,a}(t^a 40) overflows on [0, 50]; the integral-form march needs no
# kernel and stays finite, so simulate reaches the certificate step
@pytest.mark.parametrize("argv", [["check"], ["simulate", "--scheme", "integral_form"]])
def test_overflowed_kernel_is_refused_before_any_output(tmp_path, capsys, argv):
    doc = benchmark_doc(grid={"T": 50.0, "N": 64})
    doc["system"]["matrix"] = [[40.0]]
    out = tmp_path / "out"
    assert main([*argv, "--config", write_doc(tmp_path, doc), "--out", str(out)]) == 1
    assert "overflowed" in capsys.readouterr().err
    assert not out.exists()


# four steps leave two nodes in the decay-fit window: the run refuses the
# window before any file is written
def test_refused_verdict_leaves_no_output(tmp_path, capsys):
    doc = benchmark_doc(grid={"T": 1.0, "N": 4})
    out = tmp_path / "out"
    assert main(["simulate", "--config", write_doc(tmp_path, doc), "--out", str(out)]) == 1
    assert capsys.readouterr().err == ("config error: criteria.window_fraction: "
                                       "degenerate fit: only 2 window nodes\n")
    assert not out.exists()


# six steps at window_fraction 0.5 leave three window nodes: simulate names
# the field and refuses before the march, while check and convergence, which
# fit no window, still run
def test_degenerate_fit_window_is_refused_before_the_march(tmp_path, capsys, monkeypatch):
    def unreached(*args):
        raise AssertionError("the march ran")

    doc = benchmark_doc(grid={"T": 1.0, "N": 6})
    doc["criteria"]["window_fraction"] = 0.5
    path = write_doc(tmp_path, doc)
    monkeypatch.setattr(simulator, "_march", unreached)
    assert main(["simulate", "--config", path, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: criteria.window_fraction: "), err
    assert "3 window nodes" in err
    assert not (tmp_path / "out").exists()
    monkeypatch.undo()
    assert main(["check", "--config", path, "--out", str(tmp_path / "check")]) == 0
    assert main(["convergence", "--config", path, "--out", str(tmp_path / "conv")]) == 0


# C_p = (p(p-1)/2)^(p/2) overflows a double at p = 200: a one-line refusal
def test_check_refuses_an_overflowing_moment_order(tmp_path, capsys):
    doc = benchmark_doc()
    doc["system"]["p"] = 200
    out = tmp_path / "out"
    assert main(["check", "--config", write_doc(tmp_path, doc), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: C_p overflows a double at p = 200\n"
    assert not out.exists()


# the kernel overflows from node 7 on: Picard stops before its first sweep,
# with no numpy warning
def test_overflowed_kernel_stops_picard_before_any_sweep(tmp_path, monkeypatch):
    def unreached(*args):
        raise AssertionError("a Picard sweep ran")

    doc = benchmark_doc(grid={"T": 50.0, "N": 64})
    doc["system"]["matrix"] = [[40.0]]
    path = write_doc(tmp_path, doc)
    monkeypatch.setattr(simulator, "_picard", unreached)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SimulationNumericError, match="^the mild kernel .* at node 7 "):
            picard_on_path_0(path)


def overflowing_doc(tmp_path):
    """A drift so large that the states overflow within a few steps or sweeps."""
    doc = benchmark_doc()
    doc["system"]["coefficients"]["B"] = [[1e200]]
    doc["grid"]["N"] = 16
    doc["monte_carlo"]["n_paths"] = 2
    return write_doc(tmp_path, doc)


# Picard stops at the first non-finite iterate, not at its sweep cap
def test_non_finite_picard_iterate_is_a_numeric_failure(tmp_path):
    with np.errstate(all="ignore"):
        with pytest.raises(SimulationNumericError,
                           match="^picard: non-finite iterate at node 1 ") as info:
            picard_on_path_0(overflowing_doc(tmp_path))
    assert info.value.path_indices == (0,)


# the same overflow under warnings turned into errors: a numpy warning would
# raise before the refusal, so the run must reach it with none
@pytest.mark.parametrize("scheme", ["picard", "mild"])
def test_overflowing_run_refuses_without_numpy_warnings(tmp_path, capsys, scheme):
    path = overflowing_doc(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if scheme == "picard":
            with pytest.raises(SimulationNumericError, match="^picard: non-finite "):
                picard_on_path_0(path)
            return
        argv = ["simulate", "--config", path, "--out", str(tmp_path / "out"), "--scheme", scheme]
        assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"numeric failure: {scheme}: non-finite ")
    assert err.count("\n") == 1


# ||t^(1-a) X||^150 ~ 816^150 overflows a double: simulate refuses the
# moment curve with exit 3 and writes nothing, instead of NaN curves
def test_overflowing_moment_curve_is_a_numeric_failure(tmp_path, capsys):
    doc = benchmark_doc()
    doc["system"]["rho"] = [1000.0]
    doc["system"]["p"] = 150
    doc["monte_carlo"]["n_paths"] = 40
    doc["output"]["emit_paths"] = True
    out = tmp_path / "out"
    assert main(["simulate", "--config", write_doc(tmp_path, doc), "--out", str(out)]) == 3
    assert capsys.readouterr().err == (
        "numeric failure: the p-th moment (p = 150) overflows a double: its mean is not "
        "finite at node 0 (t = 0)\n")
    assert not out.exists()


COLD_START = """
import json, sys
sys.modules["scipy"] = None  # blocked: any import of scipy now fails
import numpy as np
import fracstab.cli

codes = [fracstab.cli.main(argv) for argv in json.loads(sys.argv[1])]
report = fracstab.kernel_bounds_profile(np.array([[-1.0]]), 0.75)
print(json.dumps({"codes": codes, "conv_sup": report.conv_sup}))
"""


def test_cold_start_loads_no_scipy(tmp_path):
    # a fresh interpreter in which scipy cannot be imported: check, every
    # scheme, a convergence study and the kernel profile still run
    doc = benchmark_doc()
    doc["grid"]["N"] = 32
    doc["monte_carlo"]["n_paths"] = 4
    path = write_doc(tmp_path, doc)
    runs = [["check", "--config", path, "--out", str(tmp_path / "c")],
            ["simulate", "--config", path, "--out", str(tmp_path / "m")],
            ["simulate", "--config", path, "--out", str(tmp_path / "i"),
             "--scheme", "integral_form"],
            ["convergence", "--config", path, "--out", str(tmp_path / "v")]]
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    done = subprocess.run([sys.executable, "-c", COLD_START, json.dumps(runs)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    assert result["codes"] == [0] * len(runs)
    assert math.isfinite(result["conv_sup"]) and result["conv_sup"] > 0


def test_output_digest_runs():
    # the digest stops with exit status 1 on a call that does not fit the API
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(root / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
    done = subprocess.run([sys.executable, str(root / "tools" / "output_digest.py")], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("vector_neutral mild: weighted ")


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
