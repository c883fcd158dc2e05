"""Seeded workloads of the depthrec benchmark and their oracle checks.

Inputs come from the seed alone (numpy's generator); the program sees only
the generated profiles.  The forward model is the oracle: a depth rho
gives the squared speed U = rho'^2 + rho^2, and rho is one solution of U.
Each workload cycles through a fixed pool of inputs, so later cycles repeat
earlier inputs and must reproduce their output bytes.  ``nominal_op_ms`` is
the mean op time on a 2-vCPU x86-64 VM; the runner sizes a run's passes
over the pool from it.  Inputs that fail
today stay in the pool; the failures are counted, never filtered out.

Why each workload, and which layer metrics (from the traced run) should
move which end-to-end metric on it (the op timings are gated in their
host-speed-adjusted form, ``op_ms_p50_adj`` and so on; see ``run.py``):

``roundtrip``
    Forward-inverse round trip on criterion-4 depths: almost all time is in
    ``ivp`` stepping and scalar ``modulus.value`` calls; nothing in
    ``criticals``, ``taylor``, ``solutions``, ``reports`` or ``svg`` runs.
    ``modulus.value.*`` and ``ivp.u_evals_per_node`` move ``op_ms_p50`` and
    ``ops_per_s`` here first.
``maximal``
    Critical scan plus depth-maximal solution on closed-form sine depths:
    drives ``criticals`` (U' scan), ``taylor`` (order-21 jets), chaining and
    shooting in ``solutions`` and the series handoff in ``ivp``; 1 to 8
    critical points, and today about 60% of the profiles fail (the maximal
    construction misses, truncates or undershoots).  ``modulus.value.*`` and
    ``ivp.u_evals_per_node`` move ``op_ms_p50``/``ops_per_s`` (after
    roundtrip); ``modulus.derivative.*``,
    ``criticals.find_critical_points.self_ms``, ``modulus.jet.order_sum``
    and ``taylor.*`` move ``op_ms_p50``; ``solutions.bvp.resolves_per_bvp``
    moves ``op_ms_p90`` (the shooting cases are the tail).
``cli``
    A session of CLI subcommands on a sampled profile read back from CSV:
    spline jets of order at most 2 instead of the expression tree, four
    critical scans per session, and the only workload that runs
    ``reports``, ``svg``, enumeration and cones.  ``reports.*``, ``svg.*``,
    ``ivp.branch_to_piece.kept_ratio``, ``modulus.derivative.*`` and
    ``criticals.find_critical_points.self_ms`` move ``op_ms_p50``.  An
    expression-compilation change should leave it nearly flat; a
    serialization or scan-caching change should move it most.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import xml.etree.ElementTree as ET
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass

import numpy as np

DOMAIN = (0.2, 2.9)


@dataclass(frozen=True)
class Outcome:
    """Oracle verdict of one op: ``reason`` is None when the result passes."""

    reason: str | None
    digest: str


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else np.ascontiguousarray(part).tobytes())
    return h.hexdigest()


def _strata(rng: np.random.Generator, n: int, lo: float, hi: float) -> np.ndarray:
    """One uniform draw from each of ``n`` equal strata of [lo, hi], shuffled.

    Stratifying keeps every seed's pool close to the family's distribution,
    so timings differ little from seed to seed.
    """
    return lo + (hi - lo) * (rng.permutation(n) + rng.random(n)) / n


def _sine_family(rng: np.random.Generator, n: int) -> list[dict]:
    """``c + a*sin(k*theta + phi)`` with k in {2,3,4} and a/c in [0.05, 0.12].

    Each k gets a third of the pool, stratified in c, a/c and phi on its own.
    """
    cases = []
    for k in (2, 3, 4):
        m = n // 3
        for c, ratio, phi in zip(_strata(rng, m, 1.0, 3.0).tolist(),
                                 _strata(rng, m, 0.05, 0.12).tolist(),
                                 _strata(rng, m, 0.0, 2.0 * math.pi).tolist()):
            a = ratio * c
            cases.append({"c": c, "a": a, "k": k, "phi": phi,
                          "text": f"{c!r} + {a!r}*sin({k}*theta + {phi!r})"})
    return [cases[i] for i in rng.permutation(len(cases))]


def _sine_rho(case: dict, theta):
    return case["c"] + case["a"] * np.sin(case["k"] * np.asarray(theta) + case["phi"])


# ---------------------------------------------------------------------------
# roundtrip
# ---------------------------------------------------------------------------

class Roundtrip:
    """Two ``solve_regular`` calls, forward and backward from an interior IC."""

    name = "roundtrip"
    pool_size = 200
    nominal_op_ms = 11.3
    rtol, atol = 1e-12, 1e-14
    tol_truth = 1e-6

    @staticmethod
    def _rho(coeffs, t, order=0):
        c0, a1, b1, a2, b2 = coeffs
        t = np.asarray(t, dtype=float)
        if order == 0:
            return c0 + a1 * np.cos(t) + b1 * np.sin(t) + a2 * np.cos(2 * t) + b2 * np.sin(2 * t)
        if order == 1:
            return (-a1 * np.sin(t) + b1 * np.cos(t)
                    - 2 * a2 * np.sin(2 * t) + 2 * b2 * np.cos(2 * t))
        return (-a1 * np.cos(t) - b1 * np.sin(t)
                - 4 * a2 * np.cos(2 * t) - 4 * b2 * np.sin(2 * t))

    def _amplification(self, coeffs, lo: float, hi: float) -> float:
        """Integral of rho/|rho'| over the span (log of the IVP's amplification)."""
        grid = np.linspace(lo, hi, 101)
        rates = self._rho(coeffs, grid) / np.maximum(np.abs(self._rho(coeffs, grid, 1)), 1e-3)
        return float(np.trapezoid(rates, grid))

    def generate(self, seed: int) -> list[dict]:
        """Criterion-4 depths on their longest span between critical points.

        The span filter looks only at rho: U' = 2 rho' (rho'' + rho) locates
        the critical points, then the span is trimmed clear of tangencies and
        under an amplification of 9, as criterion 4 does.
        """
        rng = np.random.default_rng([1, seed])
        lo_d, hi_d = DOMAIN
        grid = np.linspace(lo_d, hi_d, 2049)
        # c0 scales the harmonics, so the span filter barely depends on it: stratify it
        c0s = _strata(rng, self.pool_size, 1.0, 4.0).tolist()
        cases: list[dict] = []
        while len(cases) < self.pool_size:
            c0 = c0s[len(cases)]
            a1, b1 = (float(v) for v in rng.uniform(-0.2, 0.2, 2) * c0)
            a2, b2 = (float(v) for v in rng.uniform(-0.1, 0.1, 2) * c0)
            coeffs = (c0, a1, b1, a2, b2)
            du = self._rho(coeffs, grid, 1) * (self._rho(coeffs, grid, 2) + self._rho(coeffs, grid))
            flips = np.nonzero(du[:-1] * du[1:] < 0.0)[0]
            cuts = [lo_d] + [float(grid[i]) for i in flips] + [hi_d]
            spans = [(a, b) for a, b in zip(cuts, cuts[1:]) if b - a > 0.45]
            if not spans:
                continue
            lo, hi = max(spans, key=lambda ab: ab[1] - ab[0])
            while hi - lo > 0.35 and abs(self._rho(coeffs, lo, 1)) < 0.06 * self._rho(coeffs, lo):
                lo += 0.02
            while hi - lo > 0.35 and abs(self._rho(coeffs, hi, 1)) < 0.06 * self._rho(coeffs, hi):
                hi -= 0.02
            while hi - lo > 0.35 and self._amplification(coeffs, lo, hi) > 9.0:
                lo += 0.025
                hi -= 0.025
            if hi - lo < 0.35:
                continue
            theta0 = float(rng.uniform(lo + 0.1 * (hi - lo), hi - 0.1 * (hi - lo)))
            slope = float(self._rho(coeffs, theta0, 1))
            if abs(slope) < 0.05:
                continue
            text = (f"{c0!r} + {a1!r}*cos(theta) + {b1!r}*sin(theta) "
                    f"+ {a2!r}*cos(2*theta) + {b2!r}*sin(2*theta)")
            cases.append({"coeffs": list(coeffs), "text": text, "lo": lo, "hi": hi,
                          "theta0": theta0, "rho0": float(self._rho(coeffs, theta0)),
                          "sign": 1 if slope > 0 else -1})
        return cases

    def prepare(self, D, cases: list[dict], workdir: str) -> list:
        opts = D.ivp.IntegrationOptions(rtol=self.rtol, atol=self.atol)
        out = []
        for case in cases:
            rho = D.parametrization.DepthFunction.from_text(case["text"], (case["lo"], case["hi"]))
            u = D.modulus.from_depth(rho)
            out.append((case, u, D.ivp.RegularIC(case["theta0"], case["rho0"]), opts))
        return out

    def run(self, D, inp, workdir: str):
        case, u, ic, opts = inp
        fwd = D.ivp.solve_regular(u, ic, case["sign"], "forward", opts)
        back = D.ivp.solve_regular(u, ic, -case["sign"], "backward", opts)
        return fwd, back

    def check(self, inp, result, workdir: str) -> Outcome:
        case = inp[0]
        digest = _digest(*(a for p in result for a in (p.thetas, p.rhos, p.drhos)))
        if any(p.termination.kind.value != "domain_end" for p in result):
            return Outcome("truncated_span", digest)
        err = max(float(np.max(np.abs(p.rhos - self._rho(case["coeffs"], p.thetas))))
                  for p in result)
        return Outcome(None if err <= self.tol_truth else "off_truth", digest)


# ---------------------------------------------------------------------------
# maximal
# ---------------------------------------------------------------------------

class Maximal:
    """``find_critical_points`` then ``maximal_solution`` on a sine depth."""

    name = "maximal"
    pool_size = 240
    nominal_op_ms = 34.0
    tol_truth = 1e-6

    def generate(self, seed: int) -> list[dict]:
        return _sine_family(np.random.default_rng([2, seed]), self.pool_size)

    def prepare(self, D, cases: list[dict], workdir: str) -> list:
        make = D.parametrization.DepthFunction.from_text
        return [(case, D.modulus.from_depth(make(case["text"], DOMAIN))) for case in cases]

    def run(self, D, inp, workdir: str):
        _case, u = inp
        cs = D.criticals.find_critical_points(u)
        return D.solutions.maximal_solution(u, critical_set=cs)

    def check(self, inp, sol, workdir: str) -> Outcome:
        case = inp[0]
        digest = _digest(sol.thetas, sol.rhos, sol.drhos)
        lo, hi = DOMAIN
        if abs(sol.theta_start - lo) > 1e-9 or abs(sol.theta_end - hi) > 1e-9:
            return Outcome("truncated_span", digest)
        if not sol.c1:
            return Outcome("not_c1", digest)
        grid = np.linspace(lo, hi, 200)
        if np.any(sol.interp(grid) < _sine_rho(case, grid) - self.tol_truth):
            return Outcome("below_truth", digest)
        return Outcome(None, digest)


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------

class Cli:
    """One session of ``depthrec.cli.main`` calls on one sampled profile."""

    name = "cli"
    pool_size = 57   # 19 per k; two passes leave at least 10 samples above p90
    nominal_op_ms = 280.0
    outputs = ("u.csv", "critical.json", "maximal.json", "enumerate.json",
               "cone.json", "plot.svg")

    def generate(self, seed: int) -> list[dict]:
        rng = np.random.default_rng([3, seed])
        cases = _sine_family(rng, self.pool_size)
        for case in cases:
            # a regular IC on the true depth, away from its extrema
            while True:
                theta0 = float(rng.uniform(0.5, 2.6))
                if abs(math.cos(case["k"] * theta0 + case["phi"])) >= 0.3:
                    break
            case["theta0"] = theta0
            case["rho0"] = float(_sine_rho(case, theta0))
        return cases

    def prepare(self, D, cases: list[dict], workdir: str) -> list:
        path = {name: os.path.join(workdir, name) for name in self.outputs}
        lo, hi = (repr(v) for v in DOMAIN)
        inputs = []
        for case in cases:
            src = ["--u-csv", path["u.csv"]]
            argvs = [
                ["forward", "--rho", case["text"], "--domain", lo, hi,
                 "--samples", "801", "--out", path["u.csv"]],
                ["critical", *src, "--out", path["critical.json"]],
                ["maximal", *src, "--out", path["maximal.json"]],
                ["enumerate", *src, "--ic", repr(case["theta0"]), repr(case["rho0"]),
                 "--max-switches", "2", "--out", path["enumerate.json"]],
                ["cone", *src, "--out", path["cone.json"]],
                ["plot", *src, "--out", path["plot.svg"]],
            ]
            inputs.append((case, argvs))
        return inputs

    def run(self, D, inp, workdir: str):
        _case, argvs = inp
        sink = io.StringIO()
        with redirect_stderr(sink), redirect_stdout(sink):
            return [D.cli.main(argv) for argv in argvs]

    def check(self, inp, codes, workdir: str) -> Outcome:
        blobs = []
        for name in self.outputs:
            path = os.path.join(workdir, name)
            if os.path.exists(path):
                with open(path, "rb") as handle:
                    blobs.append(handle.read())
                os.unlink(path)  # a failing subcommand must not see a stale file
            else:
                blobs.append(b"")
        digest = _digest(json.dumps(codes).encode(), *blobs)
        if any(code != 0 for code in codes):
            return Outcome("nonzero_exit", digest)
        try:
            rows = list(csv.reader(io.StringIO(blobs[0].decode())))
            if rows[0] != ["theta", "u"] or len(rows) != 802:
                return Outcome("unparsable_output", digest)
            [float(v) for row in rows[1:] for v in row]
            for blob in blobs[1:5]:
                json.loads(blob)
            ET.fromstring(blobs[5])
        except (ValueError, IndexError, ET.ParseError):
            return Outcome("unparsable_output", digest)
        return Outcome(None, digest)


WORKLOADS = {w.name: w for w in (Roundtrip(), Maximal(), Cli())}
