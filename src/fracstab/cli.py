"""Command-line front end: certificate checks, Monte Carlo runs, scalar
Mittag-Leffler evaluation, and self-convergence studies.

Commands
    check        validate a config and write certificate.txt
    simulate     run an ensemble, write moment curves / verdict / metadata
    ml           print E_{a,b}(z) to 15 significant digits (complex z: both parts)
    convergence  N, 2N, 4N against a 16N reference on shared noise

Exit codes: 0 ok / verdict passed, 1 configuration error, 2 criterion
failed, 3 numeric failure during simulation.

All emitted files use '.' decimals, LF line endings and 17 significant
digits, so identical configs produce byte-identical outputs on the same
build.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import math
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import __version__
from .config import RunConfig, _integer, load_config
from .criteria import certify, delta_for_epsilon
from .errors import ConfigError, ConvergenceError, FracstabError, SimulationNumericError
from .fraccalc import ML_TOL, ml_scalar
from .moments import _MomentSums, _fit_window, stability_verdict
from .simulator import _SCHEMES, TimeGrid, _ensemble_chunks, _solve, brownian_increments

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_CRITERION = 2
EXIT_NUMERIC = 3


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if x is None:
        return "nan"
    return format(float(x), ".17g")


def _write_text(path: Path, text: str) -> None:
    """Write one output file, making the output directory with the first
    one, so a refused run leaves no directory behind."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8", newline="\n")


def _write_kv(path: Path, pairs) -> None:
    _write_text(path, "".join(f"{k} = {v if isinstance(v, str) else _fmt(v)}\n"
                              for k, v in pairs))


def _write_csv(path: Path, header, rows) -> None:
    """Write the rows of Python strings, ints and floats (an array's taken
    with ``.tolist()``), each number formatted as ``format(v, ".17g")``,
    as :func:`_fmt` formats it."""
    out = [",".join(header) + "\n"]
    out += [",".join([v if isinstance(v, str) else format(v, ".17g") for v in row]) + "\n"
            for row in rows]
    _write_text(path, "".join(out))


def _out_dir(args, cfg: RunConfig) -> Path:
    return Path(args.out) if args.out else Path(cfg.out_dir)


def _run_config(args):
    """(config with the ``--seed`` override, scheme, output directory) of
    ``simulate`` and ``convergence``; a negative seed is refused here.  The
    directory is made with the first file written, so a run refused before
    then leaves none."""
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, master_seed=_integer(args.seed, "--seed", minimum=0))
    return cfg, args.scheme or cfg.scheme, _out_dir(args, cfg)


def _certificate(cfg: RunConfig):
    """The certificate of a config, its delta(epsilon) and a note on it.
    delta is None unless the stability verdict holds, and the note then
    names the hypothesis that failed."""
    cert = certify(np.asarray(cfg.matrix), cfg.coefficients(), cfg.order(), cfg.T,
                   m_override=cfg.m_override)
    if not cert.verdict_stability:
        return cert, None, f"{cert.stability_note}: no admissible delta"
    return cert, delta_for_epsilon(cert.inputs, cfg.epsilon), "ok"


def cmd_check(args) -> int:
    cfg = load_config(args.config)
    out = _out_dir(args, cfg)
    cert, delta, delta_note = _certificate(cfg)
    pairs = [
        ("theta", cert.theta),
        ("contraction", cert.contraction),
        ("k_stab", cert.k_stab),
        ("neutral_gate", cert.neutral_gate),
        ("c_p", cert.c_p),
        ("m", cert.inputs.M),
        ("a_norm", cert.inputs.A_norm),
        ("epsilon", cfg.epsilon),
        ("delta", delta),
        ("delta_note", delta_note),
        ("sector_margin", cert.sector.margin),
        ("sector_in", cert.sector.in_sector),
        ("verdict_existence", cert.verdict_existence),
        ("verdict_stability", cert.verdict_stability),
        ("ml_tol", ML_TOL),
    ]
    _write_kv(out / "certificate.txt", pairs)
    if not cert.verdict_existence:
        if cert.neutral_gate >= 1.0:
            print("neutral term too strong", file=sys.stderr)
        else:
            print(f"contraction constant {cert.contraction:.6g} is not below 1", file=sys.stderr)
        return EXIT_CRITERION
    return EXIT_OK


def _write_meta(path: Path, cfg: RunConfig, scheme: str) -> None:
    grid = cfg.grid()
    pairs = [
        ("package_version", __version__),
        ("master_seed", cfg.master_seed),
        ("n_paths", cfg.n_paths),
        ("scheme", scheme),
        ("T", grid.T),
        ("N", grid.N),
        ("dt", grid.dt),
        ("alpha", cfg.alpha),
        ("p", cfg.p),
        ("coefficient_family", cfg.family),
        ("system_digest", cfg.system_digest()),
        ("ml_tol", ML_TOL),
        ("suprema_note", "all suprema are over the simulated horizon [0,T]"),
    ]
    _write_kv(path, pairs)


def _path_lines(first, weighted, nodes, alpha):
    """The paths.csv lines of the weighted states (paths, N+1, dim) of the
    paths first, first + 1, ...: the weighted and the plain state at every
    node, the plain one left empty at t = 0."""
    unweight = nodes[1:, None] ** (alpha - 1.0)
    heads = [f"{j},{format(t, '.17g')}," for j, t in enumerate(nodes.tolist())]
    blank = "," * weighted.shape[2]
    for i, path in enumerate(weighted, start=first):
        yield (f"{i},{heads[0]}" + ",".join([format(v, ".17g") for v in path[0].tolist()])
               + blank + "\n")
        cells = np.concatenate([path[1:], path[1:] * unweight], axis=1).tolist()
        for head, row in zip(heads[1:], cells):
            yield f"{i},{head}" + ",".join([format(v, ".17g") for v in row]) + "\n"


def _ensemble_curve(cfg: RunConfig, scheme: str, paths):
    """The weighted moment curve of the run's ensemble, which is drawn,
    marched and reduced chunk by chunk; with a text file ``paths``, each
    chunk's paths.csv lines are written to it."""
    grid = cfg.grid()
    sums = _MomentSums(grid.N + 1, cfg.p)
    if paths:
        dim = len(cfg.rho)
        paths.write(",".join(["path", "node", "t"] + [f"weighted_{k}" for k in range(dim)]
                             + [f"value_{k}" for k in range(dim)]) + "\n")
    for first, weighted in _ensemble_chunks(cfg.system(), grid, cfg.n_paths, cfg.master_seed,
                                            scheme):
        sums.add(weighted)
        if paths:
            paths.writelines(_path_lines(first, weighted, grid.nodes, cfg.alpha))
    return sums.curve(grid.nodes)


def cmd_simulate(args) -> int:
    cfg, scheme, out = _run_config(args)
    # refuse a fit window the verdict cannot take before any path is marched
    try:
        _fit_window(cfg.window_fraction, cfg.N)
    except ValueError as exc:
        raise ConfigError("criteria.window_fraction", str(exc)) from None
    # the run holds one chunk of the ensemble at a time, so its peak memory
    # does not grow with P past one chunk; paths.csv goes to a temporary
    # file first, and a refused certificate or verdict leaves no files behind
    emit = tempfile.TemporaryFile("w+", encoding="utf-8", newline="\n") if cfg.emit_paths else None
    with emit or contextlib.nullcontext():
        curve = _ensemble_curve(cfg, scheme, emit)
        # the flags are judged on the weighted (H-norm) curve
        cert, delta, _ = _certificate(cfg)
        verdict = stability_verdict(curve, cfg.epsilon, cfg.tail_tol, cfg.window_fraction)
        if emit:
            out.mkdir(parents=True, exist_ok=True)
            emit.seek(0)
            with open(out / "paths.csv", "w", encoding="utf-8", newline="\n") as fh:
                shutil.copyfileobj(emit, fh)
    # ||X||^p = t^(p(a-1)) ||t^(1-a) X||^p on every path: the plain curve
    # is the weighted one rescaled, from node 1 as X diverges at t -> 0+
    t = curve.nodes[1:]
    scale = t ** (cfg.p * (cfg.alpha - 1.0))
    m_u = curve.m[1:] * scale
    _write_csv(out / "moments.csv", ("t", "m", "ci_half_width"),
               zip(t.tolist(), m_u.tolist(), (curve.half_width[1:] * scale).tolist()))
    _write_csv(out / "moments_weighted.csv", ("t", "m", "ci_half_width"),
               zip(curve.nodes.tolist(), curve.m.tolist(), curve.half_width.tolist()))

    rho_norm = float(np.linalg.norm(cfg.rho))
    pairs = [
        ("scheme", scheme),
        ("p", cfg.p),
        ("epsilon", cfg.epsilon),
        ("delta", delta),
        ("rho_norm", rho_norm),
        ("delta_hypothesis_met", delta is not None and rho_norm < delta),
        ("weighted_sup", verdict.sup),
        ("unweighted_sup_from_node1", float(np.max(m_u))),
        ("stable_p", verdict.stable_p),
        ("asymptotically_stable_p", verdict.asymptotically_stable_p),
        ("tail_slope", verdict.slope),
        ("tail_slope_ci_low", verdict.slope_ci[0]),
        ("tail_slope_ci_high", verdict.slope_ci[1]),
        ("tail_mean", verdict.tail_mean),
        ("tail_tol", cfg.tail_tol),
        ("fit_window_lo", verdict.window[0]),
        ("fit_window_hi", verdict.window[1]),
        ("sup_basis", "weighted"),
        ("sector_in", cert.sector.in_sector),
        ("k_stab", cert.k_stab),
    ]
    _write_kv(out / "verdict.txt", pairs)
    _write_meta(out / "meta.txt", cfg, scheme)
    return EXIT_OK


def cmd_ml(args) -> int:
    value = ml_scalar(args.alpha, args.beta, args.z)
    if isinstance(value, complex):
        print(f"{value.real:.15g}{value.imag:+.15g}j")
    else:
        print(format(value, ".15g"))
    return EXIT_OK


def _real_or_complex(text):
    """A real number, else a complex one in Python's notation (-30+30j)."""
    try:
        return float(text)
    except ValueError:
        return complex(text)


def cmd_convergence(args) -> int:
    cfg, scheme, out = _run_config(args)
    system = cfg.system()
    base_n = cfg.N
    fine_n = 16 * base_n
    fine_grid = TimeGrid(T=cfg.T, N=fine_n)
    fine = brownian_increments(fine_grid, cfg.n_paths, cfg.master_seed).increments
    # the reference is one ensemble-sized array, held with the fine increments
    ref = _solve(system, fine_grid, scheme, fine.T)
    scale = float(max(np.nanmax(ref), -np.nanmin(ref)))
    floor = 1e-11 * max(scale, 1.0)
    rows = []
    prev_err = None
    for n_steps in (base_n, 2 * base_n, 4 * base_n):
        factor = fine_n // n_steps
        grid = TimeGrid(T=cfg.T, N=n_steps)
        coarse = fine.reshape(cfg.n_paths, n_steps, factor).sum(axis=2)
        weighted = _solve(system, grid, scheme, coarse.T)
        err = float(np.mean(np.max(np.abs(weighted - ref[:, ::factor]), axis=(1, 2))))
        if err <= floor or (prev_err is not None and prev_err <= floor):
            order = "saturated"
        elif prev_err is None:
            order = ""
        else:
            order = math.log2(prev_err / err)
        rows.append([n_steps, err, order])
        prev_err = err
    _write_csv(out / "convergence.csv", ("N", "weighted_sup_error", "observed_order"), rows)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError("<args>", message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="fracstab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, seed=False, scheme=False):
        p.add_argument("--config", required=True, help="path to the JSON run configuration")
        p.add_argument("--out", default=None, help="output directory (overrides config)")
        if seed:
            p.add_argument("--seed", type=int, default=None,
                           help="master seed override (a non-negative integer)")
        if scheme:
            p.add_argument("--scheme", choices=_SCHEMES, default=None, help="scheme override")

    add_common(sub.add_parser("check", help="evaluate the stability certificate"))
    add_common(sub.add_parser("simulate", help="run a Monte Carlo ensemble"),
               seed=True, scheme=True)
    p_ml = sub.add_parser("ml", help="evaluate E_{a,b}(z)")
    p_ml.add_argument("alpha", type=float)
    p_ml.add_argument("beta", type=float)
    p_ml.add_argument("z", type=_real_or_complex,
                      help="real or complex argument, e.g. -- -30+30j")
    add_common(sub.add_parser("convergence", help="self-convergence study"),
               seed=True, scheme=True)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "check":
            return cmd_check(args)
        if args.command == "simulate":
            return cmd_simulate(args)
        if args.command == "ml":
            return cmd_ml(args)
        return cmd_convergence(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (SimulationNumericError, ConvergenceError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (FracstabError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
