#!/usr/bin/env python3
"""Print one SHA-256 line per package output, so that two builds can be
compared for byte identity with ``diff``.

    PYTHONPATH=src python tools/output_digest.py > after.txt

Covered outputs:

* the weighted states of the mild and integral-form schemes, and of two
  one-path Picard solves, on four systems:
  the dim-4 non-normal matrix of the ``vector_neutral`` benchmark (seed 1,
  N = 300), the ``scalar_long`` system (N = 2048), the rotation
  [[0.5, 0.3], [-0.2, 0.2]] and diag(1, 0.3), all at alpha = 0.75 and
  T = 50;
* the weighted states of the mild and integral-form marches on the same
  systems at N = 64 (one base block) and N = 1088 (a history ring of
  1024 rows, ending on a partial far-field block);
* ``rl_integral_grid`` on 1-D and three-column samples of several lengths
  for a in {0.3, 0.75, 1};
* every field of ``kernel_bounds_profile``'s report, ``conv_running``
  included, with its grid (t_max = 100, n_nodes = 1000), at alpha = 0.75 on
  the ``certify_sweep`` benchmark's matrices: -1, -10, an upper-triangular
  3 x 3 with diagonal (-1, -2, -3), the complex pair [[-1, 3], [-3, -1]]
  and the Jordan block [[-1, 1], [0, -1]];
* the numbers and verdicts of ``certify`` (linear G = B = S = 0.05 I,
  p = 2), each field hashed by name so that builds whose certificates
  differ in other fields still compare, and ``ml_norm_sup``, at alpha in
  {0.6, 0.75, 0.9} and T = 50 on the same matrices;
* exit code, stderr and every written file of ``check``, ``simulate`` (both
  schemes, and ``--seed``), ``convergence`` (both schemes) and
  ``ml`` on seven configurations: linear, dim-2 sine, a neutral term too
  strong for the certificate, a neutral term near the
  solvable limit (G = 0.95, N = 16), an unstable matrix, a matrix whose
  states overflow (exit code 3) and an invalid file.  ``simulate`` marches
  its ensemble in chunks of paths and streams the moment curves over
  blocks of 64 paths; these configurations have 20 paths, so each runs in
  one chunk, and the scheme lines above are the states every chunk must
  reproduce (the tests check that a run split into chunks writes the
  bytes of the one-chunk run).

A failure (an exception of a library call) is printed as its type and
message, and the warnings of a command as their categories and messages
(their source lines name the checkout).  A ``TypeError``,
``AttributeError`` or ``NameError`` is not an output but a call that does
not fit the library's API: it stops the tool with a traceback and exit
status 1.  The tool stores no hashes; it takes a few seconds.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

from fracstab import (FractionalOrder, SystemSpec, TimeGrid, brownian_increments, certify,
                      kernel_bounds_profile, make_bounded_smooth, make_linear, ml_norm_sup,
                      picard_path_solve, rl_integral_grid, simulate_integral_form,
                      simulate_mild)
from fracstab.cli import main

ORDER = FractionalOrder(0.75, 2)
# a call that does not fit the API, never an output
API_ERRORS = (TypeError, AttributeError, NameError)


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def vector_neutral_matrix(seed=1):
    """Upper-triangular, spectrum (-1, -1.5, -2, -3), seeded off-diagonal."""
    rng = np.random.default_rng(seed)
    mat = np.diag([-1.0, -1.5, -2.0, -3.0])
    mat[np.triu_indices(4, 1)] = rng.uniform(-1.0, 1.0, 6)
    return mat


def systems():
    """(name, system, N, n_paths) of the four digest systems."""
    sine = make_bounded_smooth(0.2, 0.1, 0.2)
    lin1 = make_linear([[0.05]], [[0.05]], [[0.05]])
    lin2 = make_linear(0.05 * np.eye(2), 0.05 * np.eye(2), 0.05 * np.eye(2))
    return [
        ("vector_neutral", SystemSpec(vector_neutral_matrix(), np.ones(4), sine, ORDER), 300, 16),
        ("scalar_long", SystemSpec(np.array([[-1.0]]), np.array([0.5]), lin1, ORDER), 2048, 40),
        ("rotation", SystemSpec(np.array([[0.5, 0.3], [-0.2, 0.2]]), np.array([1.0, -0.5]),
                                sine, ORDER), 300, 8),
        ("diag", SystemSpec(np.diag([1.0, 0.3]), np.array([1.0, 1.0]), lin2, ORDER), 512, 8),
    ]


def outcome(fn, *args, **kwargs):
    """The arrays of a scheme's result, or its failure."""
    try:
        res = fn(*args, **kwargs)
    except API_ERRORS:
        raise
    except Exception as exc:  # a failure is an output too
        return f"{type(exc).__name__}: {exc}"
    return f"weighted {sha(res.weighted.tobytes())}"


def scheme_lines():
    for name, system, n_steps, n_paths in systems():
        grid = TimeGrid(T=50.0, N=n_steps)
        ens = brownian_increments(grid, n_paths, 1)
        yield f"{name} mild", outcome(simulate_mild, system, grid, ens)
        yield f"{name} integral_form", outcome(simulate_integral_form, system, grid, ens)
        for i in range(2):
            yield f"{name} picard[{i}]", outcome(picard_path_solve, system, grid,
                                                 ens.increments[i])


def ring_lines():
    for name, system, _, n_paths in systems():
        for n_steps in (64, 1088):
            grid = TimeGrid(T=50.0, N=n_steps)
            ens = brownian_increments(grid, n_paths, 1)
            yield f"{name} N={n_steps} mild", outcome(simulate_mild, system, grid, ens)
            yield (f"{name} N={n_steps} integral_form",
                   outcome(simulate_integral_form, system, grid, ens))


def rl_lines():
    rng = np.random.default_rng(0)
    for alpha in (0.3, 0.75, 1.0):
        for length in (2, 3, 17, 64, 65, 1000):
            for shape in ((length,), (length, 3)):
                f = rng.standard_normal(shape)
                out = rl_integral_grid(f, alpha, 0.01)
                yield f"rl_integral_grid a={alpha} shape={shape}", sha(out.tobytes())


PROFILE_MATRICES = {
    "scalar_m1": [[-1.0]],
    "scalar_m10": [[-10.0]],
    "triangular_3x3": [[-1.0, 0.6, -0.4], [0.0, -2.0, 0.8], [0.0, 0.0, -3.0]],
    "complex_pair": [[-1.0, 3.0], [-3.0, -1.0]],
    "jordan": [[-1.0, 1.0], [0.0, -1.0]],
}


def profile_lines():
    for name, mat in PROFILE_MATRICES.items():
        try:
            rep = kernel_bounds_profile(np.array(mat), 0.75)
        except API_ERRORS:
            raise
        except Exception as exc:  # a failure is an output too
            yield f"profile {name}", f"{type(exc).__name__}: {exc}"
            continue
        scalars = np.array([rep.kernel_sup, rep.t0, rep.tail_coefficient, rep.conv_sup,
                            100.0, 1000.0, rep.conv_tail_change])
        yield f"profile {name}", sha(scalars.tobytes() + rep.conv_running.tobytes())


# the Certificate fields that carry its numbers and verdicts
CERTIFICATE_FIELDS = ("theta", "c_p", "contraction", "k_stab", "neutral_gate", "sector",
                      "verdict_existence", "verdict_stability", "inputs")


def outcome_repr(fn, *args, fields=None):
    """The repr of a call's result, or of the named fields of it, or its
    failure."""
    try:
        res = fn(*args)
    except API_ERRORS:
        raise
    except Exception as exc:  # a failure is an output too
        return f"{type(exc).__name__}: {exc}"
    if fields is not None:
        res = [(name, getattr(res, name)) for name in fields]
    return sha(repr(res).encode())


def certificate_lines():
    for name, mat in PROFILE_MATRICES.items():
        mat = np.array(mat)
        eye = 0.05 * np.eye(mat.shape[0])
        coeffs = make_linear(eye, eye, eye)
        for alpha in (0.6, 0.75, 0.9):
            # a dataclass repr holds each float to its last bit
            yield (f"certify {name} a={alpha}",
                   outcome_repr(certify, mat, coeffs, FractionalOrder(alpha, 2), 50.0,
                                fields=CERTIFICATE_FIELDS))
            yield f"ml_norm_sup {name} a={alpha}", outcome_repr(ml_norm_sup, mat, alpha, 50.0)


def config_docs():
    base = {
        "system": {"matrix": [[-1.0]], "rho": [1.0], "alpha": 0.75, "p": 2,
                   "coefficients": {"family": "linear",
                                    "G": [[0.05]], "B": [[0.05]], "S": [[0.05]]}},
        "grid": {"T": 5.0, "N": 64},
        "monte_carlo": {"n_paths": 20, "master_seed": 3, "scheme": "mild"},
        "criteria": {"epsilon": 1.0, "window_fraction": 0.5, "tail_tol": 0.01},
        "output": {"directory": ".", "emit_paths": True},
    }

    def variant(system=None, **over):
        doc = json.loads(json.dumps(base))
        doc["system"].update(system or {})
        doc.update(over)
        return doc

    return {
        "linear": base,
        "sine_dim2": variant({"matrix": [[-1.0, 0.5], [0.0, -2.0]], "rho": [1.0, -0.5],
                              "coefficients": {"family": "bounded_smooth", "c_g": 0.2,
                                               "c_b": 0.1, "c_s": 0.2}}),
        "neutral_too_strong": variant({"coefficients": {"family": "linear", "G": [[0.6]],
                                                        "B": [[0.05]], "S": [[0.05]]}}),
        "neutral_near_one": variant({"coefficients": {"family": "linear", "G": [[0.95]],
                                                      "B": [[0.05]], "S": [[0.05]]}},
                                    grid={"T": 5.0, "N": 16}),
        "unstable": variant({"matrix": [[0.5]]}),
        "overflow": variant({"matrix": [[40.0]]}, grid={"T": 50.0, "N": 64}),
        "invalid": variant({"alpha": 0.3}),
    }


COMMANDS = [
    ["check"],
    ["simulate"],
    ["simulate", "--scheme", "integral_form"],
    ["simulate", "--seed", "7"],
    ["convergence"],
    ["convergence", "--scheme", "integral_form"],
]


def run_cli(argv, out):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    notes = "".join(f"{w.category.__name__}: {w.message}\n" for w in caught)
    files = sorted(out.iterdir()) if out.exists() else None
    listing = "no output directory" if files is None else " ".join(
        f"{p.name}:{sha(p.read_bytes())[:16]}" for p in files)
    return (f"exit {code} stderr {sha(err.getvalue().encode())[:16]} "
            f"warnings {sha(notes.encode())[:16]} {listing}")


def cli_lines():
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name, doc in config_docs().items():
            cfg = tmp / f"{name}.json"
            cfg.write_text(json.dumps(doc))
            for k, command in enumerate(COMMANDS):
                out = tmp / f"{name}_{k}"
                argv = [command[0], "--config", str(cfg), "--out", str(out), *command[1:]]
                yield f"cli {name} {' '.join(command)}", run_cli(argv, out)
        for z in ("-2.5", "-30+30j"):
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = main(["ml", "0.75", "0.75", "--", z])
            yield f"cli ml {z}", f"exit {code} stdout {stdout.getvalue().strip()}"


def main_digest():
    for section in (scheme_lines, ring_lines, rl_lines, profile_lines, certificate_lines,
                    cli_lines):
        for label, line in section():
            print(f"{label}: {line}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main_digest())
