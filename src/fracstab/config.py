"""Run configuration: a single JSON document validated field by field.

Every module precondition that can be checked statically is checked here,
with dotted field paths in error messages so a malformed file points at the
offending entry.  Numbers are kept exactly as parsed, so a rerun of the
same file reproduces its outputs byte for byte.
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
from .simulator import _SCHEMES, SystemSpec, TimeGrid

__all__ = ["RunConfig", "load_config", "parse_config"]

# each family with the parameters it reads
_FAMILIES = {"zero": (), "linear": ("G", "B", "S"), "bounded_smooth": ("c_g", "c_b", "c_s"),
             "additive": ("sigma",)}


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


def _fields(block, path, known):
    """``block`` if it is an object whose keys are all in ``known``; a key
    that is not read (a misspelling, another family's parameter) would
    otherwise leave its field at the default without a word."""
    if not isinstance(block, dict):
        raise ConfigError(path, "expected an object")
    for key in block:
        if key not in known:
            raise ConfigError(f"{path}.{key}", "unknown key")
    return block


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
    _fields(doc, "<root>", ("system", "grid", "monte_carlo", "criteria", "output"))
    system = _fields(_get(doc, "system", "<root>"), "system",
                     ("matrix", "rho", "alpha", "p", "coefficients"))
    grid = _fields(_get(doc, "grid", "<root>"), "grid", ("T", "N"))
    mc = _fields(_get(doc, "monte_carlo", "<root>"), "monte_carlo",
                 ("n_paths", "master_seed", "scheme"))
    crit = _fields(doc.get("criteria", {}), "criteria",
                   ("epsilon", "window_fraction", "tail_tol", "m_override"))
    out = _fields(doc.get("output", {}), "output", ("directory", "emit_paths"))

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

    coeff = _fields(_get(system, "coefficients", "system"), "system.coefficients",
                    ("family", *{key for keys in _FAMILIES.values() for key in keys}))
    family = _get(coeff, "family", "system.coefficients")
    if family not in _FAMILIES:
        raise ConfigError("system.coefficients.family",
                          f"unknown family {family!r}; expected one of {tuple(_FAMILIES)}")
    _fields(coeff, "system.coefficients", ("family", *_FAMILIES[family]))
    params = {}
    for key in _FAMILIES[family]:
        value, path = _get(coeff, key, "system.coefficients"), f"system.coefficients.{key}"
        params[key] = _matrix(value, path, dim) if family == "linear" else _number(value, path)

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

