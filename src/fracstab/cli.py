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
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import RunConfig, load_config
from .criteria import certify, delta_for_epsilon
from .errors import (ConfigError, ConvergenceError, CriterionError, FracstabError,
                     SimulationNumericError)
from .fraccalc import ML_TOL, ml_scalar
from .moments import pth_moment_curve, stability_verdict
from .simulator import (
    BrownianEnsemble,
    PathEnsemble,
    TimeGrid,
    brownian_increments,
    picard_path_solve,
    simulate_integral_form,
    simulate_mild,
)

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


def _write_kv(path: Path, pairs) -> None:
    lines = [f"{k} = {v if isinstance(v, str) else _fmt(v)}\n" for k, v in pairs]
    path.write_text("".join(lines), encoding="utf-8", newline="\n")


def _write_csv(path: Path, header, rows) -> None:
    out = [",".join(header) + "\n"]
    for row in rows:
        out.append(",".join(cell if isinstance(cell, str) else _fmt(cell) for cell in row) + "\n")
    path.write_text("".join(out), encoding="utf-8", newline="\n")


def _out_dir(args, cfg: RunConfig) -> Path:
    out = Path(args.out) if args.out else Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_check(args) -> int:
    cfg = load_config(args.config)
    out = _out_dir(args, cfg)
    cert = certify(np.asarray(cfg.matrix), cfg.coefficients(), cfg.order(), cfg.T,
                   m_override=cfg.m_override)
    try:
        delta = delta_for_epsilon(cert.inputs, cfg.epsilon)
        delta_note = "ok"
    except CriterionError:
        delta = None
        delta_note = "criterion fails: no admissible delta"
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
        ("assumption_note", cert.assumption_note),
        ("ml_tol", ML_TOL),
    ]
    _write_kv(out / "certificate.txt", pairs)
    if not cert.verdict_existence:
        if cert.neutral_gate >= 1.0:
            print("neutral term too strong", file=sys.stderr)
        return EXIT_CRITERION
    return EXIT_OK


def _run_march(system, grid, ens, scheme: str, as_printed: bool):
    """One marching scheme, ``mild`` or ``integral_form``, over the ensemble."""
    if scheme == "mild":
        return simulate_mild(system, grid, ens)
    return simulate_integral_form(system, grid, ens, as_printed=as_printed)


def _run_scheme(cfg: RunConfig, scheme: str, as_printed: bool):
    system = cfg.system()
    grid = cfg.grid()
    ens = brownian_increments(grid, cfg.n_paths, cfg.master_seed)
    if scheme != "picard":
        return _run_march(system, grid, ens, scheme, as_printed)
    # picard: per-path whole-path solves stitched into one ensemble
    vals = np.empty((cfg.n_paths, grid.N + 1, system.n))
    wgt = np.empty_like(vals)
    for i in range(cfg.n_paths):
        res = picard_path_solve(system, grid, ens.increments[i])
        vals[i] = res.values
        wgt[i] = res.weighted
    return PathEnsemble(values=vals, weighted=wgt, grid=grid, scheme_tag="picard",
                        master_seed=cfg.master_seed, n_paths=cfg.n_paths)


def _write_meta(path: Path, cfg: RunConfig, scheme: str, as_printed: bool) -> None:
    grid = cfg.grid()
    pairs = [
        ("package_version", __version__),
        ("master_seed", cfg.master_seed),
        ("n_paths", cfg.n_paths),
        ("scheme", scheme + ("_as_printed" if as_printed else "")),
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


def cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = RunConfig(**{**cfg.__dict__, "master_seed": args.seed})
    scheme = args.scheme or cfg.scheme
    out = _out_dir(args, cfg)

    try:
        ensemble = _run_scheme(cfg, scheme, args.as_printed)
    except (SimulationNumericError, ConvergenceError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC

    p = cfg.p
    rho_norm = float(np.linalg.norm(cfg.rho))
    curve_w = pth_moment_curve(ensemble, p, weighted=True, rho_norm=rho_norm)
    curve_u = pth_moment_curve(ensemble, p, weighted=False, rho_norm=rho_norm)
    _write_csv(out / "moments.csv", ("t", "m", "ci_half_width"),
               zip(curve_u.nodes, curve_u.m, curve_u.half_width))
    _write_csv(out / "moments_weighted.csv", ("t", "m", "ci_half_width"),
               zip(curve_w.nodes, curve_w.m, curve_w.half_width))

    cert = certify(np.asarray(cfg.matrix), cfg.coefficients(), cfg.order(), cfg.T,
                   m_override=cfg.m_override)
    try:
        delta = delta_for_epsilon(cert.inputs, cfg.epsilon)
    except CriterionError:
        delta = None
    hypothesis_met = delta is not None and rho_norm < delta
    # empirical flags are computed on the weighted (H-norm) curve; the
    # unweighted moment diverges at t -> 0+ for any rho != 0
    verdict = stability_verdict([curve_w], cfg.epsilon,
                                delta if hypothesis_met else math.inf,
                                cfg.tail_tol, cfg.window_fraction)
    tail_sel = curve_w.nodes >= curve_w.nodes[-1] / 10.0
    pairs = [
        ("scheme", ensemble.scheme_tag),
        ("p", p),
        ("epsilon", cfg.epsilon),
        ("delta", delta),
        ("rho_norm", rho_norm),
        ("delta_hypothesis_met", hypothesis_met),
        ("weighted_sup", float(np.max(curve_w.m))),
        ("unweighted_sup_from_node1", float(np.max(curve_u.m))),
        ("stable_p", verdict.stable_p),
        ("asymptotically_stable_p", verdict.asymptotically_stable_p),
        ("tail_slope", verdict.slope),
        ("tail_slope_ci_low", verdict.slope_ci[0]),
        ("tail_slope_ci_high", verdict.slope_ci[1]),
        ("tail_mean", float(np.mean(curve_w.m[tail_sel]))),
        ("tail_tol", cfg.tail_tol),
        ("fit_window_lo", verdict.window[0]),
        ("fit_window_hi", verdict.window[1]),
        ("sup_basis", "weighted"),
        ("sector_in", cert.sector.in_sector),
        ("k_stab", cert.k_stab),
    ]
    _write_kv(out / "verdict.txt", pairs)

    if cfg.emit_paths:
        dim = ensemble.values.shape[2]
        header = (["path", "node", "t"]
                  + [f"weighted_{k}" for k in range(dim)]
                  + [f"value_{k}" for k in range(dim)])
        nodes = ensemble.grid.nodes
        rows = []
        for i in range(ensemble.n_paths):
            for j in range(ensemble.grid.N + 1):
                vals = ["" if j == 0 else _fmt(v) for v in ensemble.values[i, j]]
                rows.append([i, j, nodes[j], *ensemble.weighted[i, j], *vals])
        _write_csv(out / "paths.csv", header, rows)

    _write_meta(out / "meta.txt", cfg, scheme, args.as_printed)
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
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = RunConfig(**{**cfg.__dict__, "master_seed": args.seed})
    scheme = args.scheme or cfg.scheme
    if scheme == "picard":
        raise ConfigError("monte_carlo.scheme", "convergence studies use the marching schemes")
    out = _out_dir(args, cfg)
    system = cfg.system()
    base_n = cfg.N
    fine_n = 16 * base_n
    fine_grid = TimeGrid(T=cfg.T, N=fine_n)
    fine = brownian_increments(fine_grid, cfg.n_paths, cfg.master_seed)

    try:
        ref = _run_march(system, fine_grid, fine, scheme, args.as_printed)
        scale = float(np.nanmax(np.abs(ref.weighted)))
        floor = 1e-11 * max(scale, 1.0)
        rows = []
        prev_err = None
        for n_steps in (base_n, 2 * base_n, 4 * base_n):
            factor = fine_n // n_steps
            grid = TimeGrid(T=cfg.T, N=n_steps)
            coarse = BrownianEnsemble(
                increments=fine.increments.reshape(cfg.n_paths, n_steps, factor).sum(axis=2),
                master_seed=cfg.master_seed,
                n_paths=cfg.n_paths,
            )
            ens = _run_march(system, grid, coarse, scheme, args.as_printed)
            ref_nodes = ref.weighted[:, ::factor, :]
            err = float(np.mean(np.max(np.abs(ens.weighted - ref_nodes), axis=(1, 2))))
            if err <= floor:
                order = "saturated"
            elif prev_err is None:
                order = ""
            elif prev_err <= floor:
                order = "saturated"
            else:
                order = math.log2(prev_err / err)
            rows.append([n_steps, err, order])
            prev_err = err
        _write_csv(out / "convergence.csv", ("N", "weighted_sup_error", "observed_order"), rows)
    except (SimulationNumericError, ConvergenceError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
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
                           help="master seed override (unsigned 64-bit)")
        if scheme:
            p.add_argument("--scheme", choices=("mild", "integral_form", "picard"),
                           default=None, help="scheme override")
            p.add_argument("--as-printed", action="store_true", dest="as_printed",
                           help="use the literal memory term A g(s, X(s)) in the "
                                "integral-form scheme")

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
    except FracstabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
