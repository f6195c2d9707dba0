"""The three benchmark workloads: inputs, one timed iteration, and checks.

Each workload calls the package through module attributes
(``fracstab.simulator.simulate_mild``, not a name bound at import), so the
trace wrappers see every call.  ``run`` is the timed part and returns one
``Op`` per checked operation; ``collect`` reads outputs after the timer has
stopped; ``check`` takes (iteration index, ops) pairs and marks every op
right or wrong against the references in ``reference.py``; a wrong result
never raises.
"""

import dataclasses
import json
import math
import os
from dataclasses import dataclass

import numpy as np

import fracstab
import fracstab.cli
import fracstab.coefficients
import fracstab.criteria
import fracstab.simulator
import fracstab.spectral
from fracstab.errors import CriterionError, ProfileDivergenceError
from fracstab.fraccalc import FractionalOrder

import spec


@dataclass
class Op:
    name: str
    value: object            # the result, or the exception the call raised
    work: float = 0.0        # goodput units credited when the op is right
    ok: bool | None = None
    known_defect: bool = False


def _call(name, fn, *args, work=0.0, **kwargs):
    # an exception is a failed operation, not a failed benchmark run
    try:
        value = fn(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001
        value = exc
    return Op(name, value, work)


def _close(got, want, rtol, atol=0.0):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return got.shape == want.shape and bool(
        np.all(np.isfinite(got)) and np.all(np.abs(got - want) <= atol + rtol * np.abs(want)))


def _iteration_seed(seed, i):
    return seed * 1000 + i


def _same(a, b):
    """Exact equality of two results: arrays bit for bit (NaN equal to NaN),
    dataclasses field by field, exceptions by type and message."""
    if isinstance(a, Exception) or isinstance(b, Exception):
        return type(a) is type(b) and str(a) == str(b)
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (isinstance(a, np.ndarray) and isinstance(b, np.ndarray) and a.shape == b.shape
                and np.array_equal(a, b, equal_nan=True))
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(
            _same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a))
    if isinstance(a, (tuple, list)):
        return type(a) is type(b) and len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, dict):
        return type(a) is type(b) and a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, float) and isinstance(b, float) and math.isnan(a) and math.isnan(b):
        return True
    return a == b


def same_outputs(ops_a, ops_b):
    """True when two runs of one iteration returned identical results."""
    return len(ops_a) == len(ops_b) and all(_same(x.value, y.value) for x, y in zip(ops_a, ops_b))


class Workload:
    def collect(self, i, ops, counters):
        """Post-process an iteration's ops after the timer has stopped."""


# -------------------------------------------------------------- scalar_long

class ScalarLong(Workload):
    """`fracstab simulate` through ``cli.main`` on the scalar linear system."""

    name = "scalar_long"
    files = ("moments.csv", "moments_weighted.csv", "verdict.txt", "meta.txt")

    def __init__(self, seed, workdir):
        c = spec.SCALAR
        self.seed = seed
        self.config = os.path.join(workdir, "scalar_long.json")
        self.out = os.path.join(workdir, "scalar_long_out")
        coef = [[c["coef"]]]
        doc = {
            "system": {"matrix": [[c["A"]]], "rho": [c["rho"]], "alpha": c["alpha"], "p": 2,
                       "coefficients": {"family": "linear", "G": coef, "B": coef, "S": coef}},
            "grid": {"T": c["T"], "N": c["N"]},
            "monte_carlo": {"n_paths": c["n_paths"], "master_seed": 0, "scheme": "mild"},
            "criteria": {"epsilon": spec.CERT_EPSILON, "window_fraction": 0.5, "tail_tol": 0.01},
            "output": {"directory": self.out, "emit_paths": False},
        }
        with open(self.config, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)

    def run(self, i):
        argv = ["simulate", "--config", self.config, "--out", self.out,
                "--seed", str(_iteration_seed(self.seed, i))]
        c = spec.SCALAR
        return [_call("simulate", fracstab.cli.main, argv, work=c["n_paths"] * c["N"])]

    def collect(self, i, ops, counters):
        op = ops[0]
        if isinstance(op.value, Exception):
            return
        outputs = {}
        for name in self.files:
            # removed after reading, so a file the next run fails to write shows
            path = os.path.join(self.out, name)
            if os.path.exists(path):
                with open(path, "rb") as fh:
                    outputs[name] = fh.read()
                os.remove(path)
        counters["cli.bytes_written"] += sum(len(v) for v in outputs.values())
        op.value = (op.value, outputs)

    def check(self, iterations, tables, reference):
        c = spec.SCALAR
        alpha = c["alpha"]
        m_ref = float(np.max(reference.kernel_norms(tables, [[c["A"]]], alpha, profile=False)))
        cert = reference.certificate(m_ref, abs(c["A"]), alpha, spec.CERT_T, c["coef"],
                                     spec.CERT_EPSILON)
        for n, (i, ops) in enumerate(iterations):
            op = ops[0]
            op.ok = self._check_one(op.value, i, cert, tables, reference if n == 0 else None)

    def _check_one(self, value, i, cert, tables, reference):
        if not isinstance(value, tuple) or value[0] != 0 or set(value[1]) != set(self.files):
            return False
        outputs = value[1]
        c = spec.SCALAR
        alpha = c["alpha"]
        try:
            mu = np.loadtxt(outputs["moments.csv"].decode().splitlines(), delimiter=",", skiprows=1)
            mw = np.loadtxt(outputs["moments_weighted.csv"].decode().splitlines(), delimiter=",",
                            skiprows=1)
            verdict = dict(line.split(" = ", 1) for line in outputs["verdict.txt"].decode().splitlines())
        except ValueError:
            return False
        times = spec.scalar_times()
        ok = mu.shape == (c["N"], 3) and mw.shape == (c["N"] + 1, 3)
        ok = ok and _close(mw[:, 0], times, 0.0) and _close(mu[:, 0], times[1:], 0.0)
        if not ok:
            return False
        # p = 2: the weighted curve is t^(2(1-a)) times the plain one
        ok = _close(mw[1:, 1], times[1:] ** (2 * (1 - alpha)) * mu[:, 1], 1e-12)
        tail = mw[:, 0] >= times[-1] / 10.0
        ok = ok and float(verdict["weighted_sup"]) == float(np.max(mw[:, 1]))
        ok = ok and float(verdict["unweighted_sup_from_node1"]) == float(np.max(mu[:, 1]))
        ok = ok and _close(float(verdict["tail_mean"]), float(np.mean(mw[tail, 1])), 1e-14)
        ok = ok and _close(float(verdict["k_stab"]), cert["k_stab"], 1e-8)
        ok = ok and _close(float(verdict["delta"]), cert["delta"], 1e-8)
        ok = ok and verdict["sector_in"] == "true"
        if reference is not None and ok:
            # full re-run of the discrete scheme, independent of the package
            x, w = reference.scalar_mild(tables, _iteration_seed(self.seed, i))
            m_w, h_w = reference.moment_curve(w)
            m_u, h_u = reference.moment_curve(x[1:])
            scale = float(np.max(m_w))
            ok = (_close(mw[:, 1], m_w, 1e-9, 1e-12 * scale)
                  and _close(mw[:, 2], h_w, 1e-8, 1e-12 * scale)
                  and _close(mu[:, 1], m_u, 1e-9, 1e-12 * float(np.max(m_u)))
                  and _close(mu[:, 2], h_u, 1e-8, 1e-12 * float(np.max(m_u)))
                  and _close(float(verdict["tail_slope"]),
                             reference.decay_slope(times, m_w, 0.5), 1e-6))
        return bool(ok)


# ----------------------------------------------------------- vector_neutral

class VectorNeutral(Workload):
    """Both marches on one ensemble, then Picard on a few of its paths."""

    name = "vector_neutral"

    def __init__(self, seed, workdir):
        c = spec.VECTOR
        self.seed = seed
        self.A = spec.random_triangular(c["diag"], seed)
        self.rho = np.ones(len(c["diag"]))
        self.grid = fracstab.simulator.TimeGrid(T=c["T"], N=c["N"])

    def run(self, i):
        c = spec.VECTOR
        coeffs = fracstab.coefficients.make_bounded_smooth(c["c_g"], c["c_b"], c["c_s"])
        system = fracstab.simulator.SystemSpec(A=self.A, rho=self.rho, coeffs=coeffs,
                                               order=FractionalOrder(c["alpha"], 2))
        sim = fracstab.simulator
        ens = _call("brownian", sim.brownian_increments, self.grid, c["n_paths"],
                    _iteration_seed(self.seed, i))
        if isinstance(ens.value, Exception):
            return [ens]
        work = c["n_paths"] * c["N"]
        ops = [ens,
               _call("mild", sim.simulate_mild, system, self.grid, ens.value, work=work),
               _call("integral_form", sim.simulate_integral_form, system, self.grid, ens.value,
                     work=work)]
        for j in range(c["n_picard"]):
            ops.append(_call(f"picard[{j}]", sim.picard_path_solve, system, self.grid,
                             ens.value.increments[j], work=c["N"]))
        return ops

    def check(self, iterations, tables, reference):
        c = spec.VECTOR
        alpha = c["alpha"]
        w0 = self.rho / math.gamma(alpha)
        for i, ops in iterations:
            by = {op.name: op for op in ops}
            ens = by["brownian"]
            dw = reference.increments(_iteration_seed(self.seed, i), c["n_paths"], c["N"],
                                      self.grid.dt)
            ens.ok = not isinstance(ens.value, Exception) and np.array_equal(ens.value.increments, dw)
            if len(ops) == 1:
                continue
            mild, integ = by["mild"], by["integral_form"]
            picards = [op for op in ops if op.name.startswith("picard")]
            good = not isinstance(mild.value, Exception)
            good = good and bool(np.all(np.isfinite(mild.value.weighted)))
            good = good and _close(mild.value.weighted[:, 0], np.broadcast_to(w0, (c["n_paths"], 4)), 1e-14)
            agree = []
            for j, op in enumerate(picards):
                v = op.value
                agree.append(good and not isinstance(v, Exception) and v.contraction_ratio < 1.0
                             and float(np.max(np.abs(v.weighted[1:] - mild.value.weighted[j, 1:])))
                             <= 1e-9)
                op.ok = agree[-1]
            mild.ok = good and all(agree)
            if isinstance(integ.value, Exception):
                integ.ok = False
                continue
            ref = reference.vector_integral_form(self.A, self.rho, alpha, c["c_g"], c["c_b"],
                                                 c["c_s"], c["T"], dw)
            scale = max(1.0, float(np.max(np.abs(ref))))
            integ.ok = _close(integ.value.weighted, ref, 0.0, 1e-9 * scale)


# ------------------------------------------------------------ certify_sweep

class CertifySweep(Workload):
    """Certificates, deltas and Caputo criteria over in-sector matrices, plus
    one kernel profile per matrix; no simulation."""

    name = "certify_sweep"
    # the ROADMAP defects: expected to fail until the evaluator is fixed
    known_defects = ("complex_pair", "jordan")

    def __init__(self, seed, workdir):
        self.matrices = {
            "scalar_m1": np.array([[-1.0]]),
            "scalar_m10": np.array([[-10.0]]),
            "random_3x3": spec.random_triangular(spec.RANDOM_DIAG, seed),
            "complex_pair": np.array(spec.COMPLEX_PAIR),
            "jordan": np.array(spec.JORDAN),
        }

    def run(self, i):
        crit = fracstab.criteria
        ops = []
        for key, mat in self.matrices.items():
            first = len(ops)
            eye = spec.CERT_COEF * np.eye(mat.shape[0])
            coeffs = fracstab.coefficients.make_linear(eye, eye, eye)
            for alpha in spec.CERT_ALPHAS:
                tag = f"{key},{alpha}"
                cert = _call(f"certify[{tag}]", crit.certify, mat, coeffs,
                             FractionalOrder(alpha, 2), spec.CERT_T, work=1.0)
                ops.append(cert)
                if isinstance(cert.value, Exception):
                    ops.append(Op(f"delta[{tag}]", cert.value))
                    ops.append(Op(f"caputo[{tag}]", cert.value))
                    continue
                ops.append(_call(f"delta[{tag}]", crit.delta_for_epsilon, cert.value.inputs,
                                 spec.CERT_EPSILON))
                ops.append(_call(f"caputo[{tag}]", crit.caputo_ms_criterion, cert.value.inputs))
            ops.append(_call(f"profile[{key}]", fracstab.spectral.kernel_bounds_profile, mat,
                             spec.PROFILE_ALPHA, work=1.0))
            for op in ops[first:]:
                op.known_defect = key in self.known_defects
        return ops

    def _expected(self, tables, reference):
        want = {}
        for key, mat in self.matrices.items():
            a_norm = float(np.max(np.sum(np.abs(mat), axis=1)))
            for alpha in spec.CERT_ALPHAS:
                m = float(np.max(reference.kernel_norms(tables, mat, alpha, profile=False)))
                want[f"{key},{alpha}"] = reference.certificate(
                    m, a_norm, alpha, spec.CERT_T, spec.CERT_COEF, spec.CERT_EPSILON) | {"M": m}
            psi = reference.kernel_norms(tables, mat, spec.PROFILE_ALPHA, profile=True)
            try:
                want[key] = reference.profile(psi, spec.PROFILE_ALPHA)
            except reference.Diverges:
                want[key] = None
        return want

    def check(self, iterations, tables, reference):
        want = self._expected(tables, reference)
        for _, ops in iterations:
            for op in ops:
                kind, tag = op.name[:-1].split("[")
                op.ok = bool(getattr(self, f"_ok_{kind}")(op.value, want[tag]))

    @staticmethod
    def _ok_certify(v, w):
        if isinstance(v, Exception):
            return False
        near_one = abs(w["k_stab"] - 1.0) < 1e-6
        return (v.sector.in_sector
                and _close(v.inputs.M, w["M"], 1e-8)
                and _close([v.theta, v.contraction, v.k_stab],
                           [w["theta"], w["contraction"], w["k_stab"]], 1e-7)
                and (near_one or v.verdict_stability == (w["k_stab"] < 1.0)))

    @staticmethod
    def _ok_delta(v, w):
        if abs(w["k_stab"] - 1.0) < 1e-6:
            return isinstance(v, (CriterionError, float))
        if w["delta"] is None:
            return isinstance(v, CriterionError)
        return isinstance(v, float) and _close(v, w["delta"], 1e-7)

    @staticmethod
    def _ok_caputo(v, w):
        return isinstance(v, float) and _close(v, w["caputo"], 1e-7)

    @staticmethod
    def _ok_profile(v, w):
        if w is None:
            return isinstance(v, ProfileDivergenceError)
        if isinstance(v, Exception):
            return False
        return _close([v.kernel_sup, v.tail_coefficient, v.conv_sup],
                      [w["kernel_sup"], w["tail_coefficient"], w["conv_sup"]], 1e-7)


WORKLOADS = {w.name: w for w in (ScalarLong, VectorNeutral, CertifySweep)}
