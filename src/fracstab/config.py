"""Run configuration: a single JSON document validated field by field.

Every module precondition that can be checked statically is checked here,
with dotted field paths in error messages so a malformed file points at the
offending entry.  Parsing and emission round-trip exactly (floats are kept
as parsed; emission uses repr-faithful formatting), which is what makes
byte-identical reruns possible.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

from .coefficients import CoefficientSet, make_additive_noise, make_bounded_smooth, make_linear
from .errors import ConfigError
from .fraccalc import FractionalOrder
from .simulator import SystemSpec, TimeGrid

__all__ = ["RunConfig", "load_config", "parse_config", "dump_config"]

_SCHEMES = ("mild", "integral_form", "picard")
_FAMILIES = ("zero", "linear", "bounded_smooth", "additive")


@dataclass(frozen=True)
class RunConfig:
    matrix: list
    rho: list
    alpha: float
    p: int
    family: str
    coeff_params: dict
    T: float
    N: int
    n_paths: int
    master_seed: int
    scheme: str
    epsilon: float
    window_fraction: float
    tail_tol: float
    m_override: float | None
    out_dir: str
    emit_paths: bool

    def order(self) -> FractionalOrder:
        return FractionalOrder(alpha=self.alpha, p=self.p)

    def grid(self) -> TimeGrid:
        return TimeGrid(T=self.T, N=self.N)

    def coefficients(self) -> CoefficientSet:
        dim = len(self.rho)
        if self.family == "zero":
            z = np.zeros((dim, dim))
            return make_linear(z, z, z)
        if self.family == "linear":
            return make_linear(self.coeff_params["G"], self.coeff_params["B"],
                               self.coeff_params["S"])
        if self.family == "bounded_smooth":
            return make_bounded_smooth(self.coeff_params["c_g"],
                                       self.coeff_params["c_b"],
                                       self.coeff_params["c_s"])
        return make_additive_noise(self.coeff_params["sigma"], dim)

    def system(self) -> SystemSpec:
        return SystemSpec(A=np.asarray(self.matrix, dtype=float),
                          rho=np.asarray(self.rho, dtype=float),
                          coeffs=self.coefficients(),
                          order=self.order())

    def system_digest(self) -> str:
        payload = json.dumps(
            {"matrix": self.matrix, "rho": self.rho, "alpha": self.alpha,
             "p": self.p, "family": self.family, "coeff_params": self.coeff_params,
             "T": self.T, "N": self.N},
            sort_keys=True, separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode()).hexdigest()


def _get(block, key, path, required=True, default=None):
    if key not in block:
        if required:
            raise ConfigError(f"{path}.{key}", "missing required field")
        return default
    return block[key]


def _number(value, path, positive=False):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(path, f"expected a number, got {value!r}")
    if not math.isfinite(value):
        raise ConfigError(path, f"must be finite, got {value!r}")
    if positive and value <= 0:
        raise ConfigError(path, f"must be positive, got {value}")
    return float(value)


def _integer(value, path, minimum=None):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(path, f"expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(path, f"must be >= {minimum}, got {value}")
    return value


def _matrix(value, path, dim=None):
    if not isinstance(value, list) or not value:
        raise ConfigError(path, "expected a non-empty list of rows")
    n = len(value)
    for i, row in enumerate(value):
        if not isinstance(row, list):
            raise ConfigError(f"{path}[{i}]", "expected a list of numbers")
        if len(row) != n:
            raise ConfigError(f"{path}[{i}]", f"row length {len(row)} != {n} (matrix must be square)")
        for j, x in enumerate(row):
            _number(x, f"{path}[{i}][{j}]")
    if dim is not None and n != dim:
        raise ConfigError(path, f"dimension {n} does not match rho length {dim}")
    return [[float(x) for x in row] for row in value]


def parse_config(doc: dict) -> RunConfig:
    if not isinstance(doc, dict):
        raise ConfigError("<root>", "top level must be an object")
    system = _get(doc, "system", "<root>")
    grid = _get(doc, "grid", "<root>")
    mc = _get(doc, "monte_carlo", "<root>")
    crit = doc.get("criteria", {})
    out = doc.get("output", {})

    rho = _get(system, "rho", "system")
    if not isinstance(rho, list) or not rho:
        raise ConfigError("system.rho", "expected a non-empty list of numbers")
    rho = [_number(x, f"system.rho[{i}]") for i, x in enumerate(rho)]
    dim = len(rho)
    matrix = _matrix(_get(system, "matrix", "system"), "system.matrix", dim)

    alpha = _number(_get(system, "alpha", "system"), "system.alpha")
    if not 0.5 < alpha <= 1.0:
        raise ConfigError(
            "system.alpha",
            f"alpha={alpha} outside (1/2, 1]: the fractional order must satisfy "
            "1/2 < alpha < 1, with alpha = 1 admitted as the classical limit",
        )
    p = _integer(_get(system, "p", "system", required=False, default=2), "system.p", minimum=2)

    coeff = _get(system, "coefficients", "system")
    family = _get(coeff, "family", "system.coefficients")
    if family not in _FAMILIES:
        raise ConfigError("system.coefficients.family",
                          f"unknown family {family!r}; expected one of {_FAMILIES}")
    params = {}
    if family == "linear":
        for key in ("G", "B", "S"):
            params[key] = _matrix(_get(coeff, key, "system.coefficients"),
                                  f"system.coefficients.{key}", dim)
    elif family == "bounded_smooth":
        for key in ("c_g", "c_b", "c_s"):
            params[key] = _number(_get(coeff, key, "system.coefficients"),
                                  f"system.coefficients.{key}")
    elif family == "additive":
        params["sigma"] = _number(_get(coeff, "sigma", "system.coefficients"),
                                  "system.coefficients.sigma")
        if not coeff.get("allow_nonvanishing", False):
            raise ConfigError(
                "system.coefficients.allow_nonvanishing",
                "the additive family violates the vanishing-at-zero assumption; "
                "set allow_nonvanishing=true to simulate it anyway",
            )

    T = _number(_get(grid, "T", "grid"), "grid.T", positive=True)
    N = _integer(_get(grid, "N", "grid"), "grid.N", minimum=2)

    n_paths = _integer(_get(mc, "n_paths", "monte_carlo"), "monte_carlo.n_paths", minimum=1)
    master_seed = _integer(_get(mc, "master_seed", "monte_carlo"),
                           "monte_carlo.master_seed", minimum=0)
    scheme = _get(mc, "scheme", "monte_carlo", required=False, default="mild")
    if scheme not in _SCHEMES:
        raise ConfigError("monte_carlo.scheme",
                          f"unknown scheme {scheme!r}; expected one of {_SCHEMES}")

    epsilon = _number(crit.get("epsilon", 1.0), "criteria.epsilon", positive=True)
    window_fraction = _number(crit.get("window_fraction", 0.5), "criteria.window_fraction")
    if not 0.0 < window_fraction < 1.0:
        raise ConfigError("criteria.window_fraction",
                          f"must lie in (0, 1), got {window_fraction}")
    tail_tol = _number(crit.get("tail_tol", 1e-2), "criteria.tail_tol", positive=True)
    m_override = crit.get("m_override")
    if m_override is not None:
        m_override = _number(m_override, "criteria.m_override", positive=True)

    out_dir = out.get("directory", ".")
    if not isinstance(out_dir, str):
        raise ConfigError("output.directory", "expected a string path")
    emit_paths = out.get("emit_paths", False)
    if not isinstance(emit_paths, bool):
        raise ConfigError("output.emit_paths", "expected a boolean")

    return RunConfig(
        matrix=matrix, rho=rho, alpha=alpha, p=p, family=family, coeff_params=params,
        T=T, N=N, n_paths=n_paths, master_seed=master_seed, scheme=scheme,
        epsilon=epsilon, window_fraction=window_fraction, tail_tol=tail_tol,
        m_override=m_override, out_dir=out_dir, emit_paths=emit_paths,
    )


def load_config(path) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise ConfigError("<file>", f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError("<file>", f"invalid JSON at line {exc.lineno}: {exc.msg}")
    return parse_config(doc)


def dump_config(cfg: RunConfig) -> dict:
    """Inverse of :func:`parse_config`; parse(dump(cfg)) == cfg."""
    coeff: dict = {"family": cfg.family, **cfg.coeff_params}
    if cfg.family == "additive":
        coeff["allow_nonvanishing"] = True
    doc = {
        "system": {
            "matrix": cfg.matrix,
            "rho": cfg.rho,
            "alpha": cfg.alpha,
            "p": cfg.p,
            "coefficients": coeff,
        },
        "grid": {"T": cfg.T, "N": cfg.N},
        "monte_carlo": {
            "n_paths": cfg.n_paths,
            "master_seed": cfg.master_seed,
            "scheme": cfg.scheme,
        },
        "criteria": {
            "epsilon": cfg.epsilon,
            "window_fraction": cfg.window_fraction,
            "tail_tol": cfg.tail_tol,
        },
        "output": {"directory": cfg.out_dir, "emit_paths": cfg.emit_paths},
    }
    if cfg.m_override is not None:
        doc["criteria"]["m_override"] = cfg.m_override
    return doc
