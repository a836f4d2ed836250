"""Property-based fuzz suites behind the self-test command.

Each suite draws deterministic instances from a seed, checks one theorem-level
property, and reports violations with enough information (suite seed plus
instance index) to reproduce a failure in isolation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (MomentVector, ProblemDims, SymmetricQuadratic, abs_scale,
                   row_batches, scaled_tolerance)
from .halfdeg import count_distinct_points, full_bruteforce_min, reduced_global_min
from .measures import lemma_approx_construct
from .moment_cone import classify_rows, necessary_condition, witness_rows
from .sos_cone import sigma_rows
from .spin import (
    coherent_state,
    entanglement_witness,
    moments_from_spin,
    random_state,
    spin_moments,
)

EQUIVALENCE_TOL = 1e-8
HALFDEG_TOL = 1e-6
LEMMA_X_TOL = 1e-9
LEMMA_TOL = 1e-12


@dataclass
class FuzzResult:
    suite: str
    iterations: int
    violations: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        lines = [f"{self.suite}: {status} ({self.iterations} iterations, "
                 f"{len(self.violations)} violations)"]
        for v in self.violations[:10]:
            lines.append(f"  reproducer: {v}")
        return "\n".join(lines)


def random_quadratic(rng, n: int, d: int) -> SymmetricQuadratic:
    """A quadratic with standard normal coefficients a0, a, aa."""
    return SymmetricQuadratic(ProblemDims(n, d), float(rng.normal()),
                              rng.normal(size=d), rng.normal(size=d))


def random_atomic_moments(rng, block: int):
    """Random (n, d) and the moments z0 (B,), z, zz (B, d) of ``block`` atomic
    measures with 1-4 atoms of n points uniform in the unit d-ball."""
    n = int(rng.integers(2, 65))
    d = int(rng.integers(1, 5))
    max_atoms = 4
    pts = rng.normal(size=(block, max_atoms, n, d))
    pts /= np.linalg.norm(pts, axis=-1, keepdims=True)
    pts *= rng.uniform(size=(block, max_atoms, n, 1)) ** (1.0 / d)
    w = rng.exponential(size=(block, max_atoms))
    n_atoms = rng.integers(1, max_atoms + 1, size=block)
    w *= np.arange(max_atoms)[None, :] < n_atoms[:, None]
    s = pts.sum(axis=2)                      # (B, A, d)
    p = np.sum(pts * pts, axis=2)            # (B, A, d)
    z0 = w.sum(axis=1)
    z = np.einsum("ba,bad->bd", w, s)
    zz = np.einsum("ba,bad->bd", w, s * s - p)
    return n, d, z0, z, zz


def soundness_suite(iters: int = 1000, seed: int = 0) -> FuzzResult:
    """Moments of random atomic measures always pass the necessary condition:
    the package's batched verdict (``classify_rows(...).nec``) on blocks of
    up to 2048 measures sharing (n, d)."""
    rng = np.random.default_rng(seed)
    result = FuzzResult("soundness", iters)
    for block_idx, done in enumerate(range(0, iters, 2048)):
        n, d, z0, z, zz = random_atomic_moments(rng, min(iters - done, 2048))
        nec = classify_rows(z0, z, zz, n).nec
        result.violations += [
            {"seed": seed, "block": block_idx, "index": k, "n": n, "d": d,
             "residual": float(nec.residual[k])}
            for k in np.flatnonzero(~nec.ok).tolist()]
    return result


def route_disagreements(a0, a, aa, n):
    """The rows on which the arrow LMI's dual slack and the ellipsoid's primal
    minimum, read from one :func:`sigma_rows` call, disagree on SOS membership
    by more than EQUIVALENCE_TOL max(1, scale n²); and that call's result."""
    r = sigma_rows(a0, a, aa, n)
    t = scaled_tolerance(EQUIVALENCE_TOL, abs_scale(a0, a, aa), n)
    return np.flatnonzero((r.member & (r.min_value < -t)) | (~r.member & (r.min_value > t))), r


def equivalence_suite(iters: int = 1000, seed: int = 0) -> FuzzResult:
    """:func:`route_disagreements` on instances drawn one by one, then run
    once per d."""
    rng = np.random.default_rng(seed)
    result = FuzzResult("equivalence", iters)
    qs = [random_quadratic(rng, int(rng.integers(2, 11)), int(rng.integers(1, 5)))
          for _ in range(iters)]
    for b in row_batches(qs) if qs else ():
        bad, r = route_disagreements(b.x0, b.x, b.xx, b.n)
        result.violations += [
            {"seed": seed, "index": int(b.index[k]), "n": int(b.n[k]), "d": b.d,
             "lmi": "Member" if r.member[k] else "NonMember", "min": float(r.min_value[k])}
            for k in bad.tolist()]
    result.violations.sort(key=lambda v: v["index"])
    return result


def halfdeg_faults(q: SymmetricQuadratic, reduced, brute) -> dict:
    """The faults of a half-degree search's (value, configuration) ``reduced``
    against brute force's ``brute``: both values when they differ by more than
    HALFDEG_TOL scale n², the count of distinct points when it is over 2d."""
    (rv, rcfg), (bv, _), n = reduced, brute, q.dims.n
    gap = abs(rv - bv) > HALFDEG_TOL * q.coeff_scale() * n * n
    faults = {"reduced": rv, "bruteforce": bv} if gap else {}
    if count_distinct_points(rcfg) > 2 * q.dims.d:
        faults["distinct"] = count_distinct_points(rcfg)
    return faults


def halfdeg_suite(iters: int = 20, seed: int = 0) -> FuzzResult:
    """Pattern-reduced minimization matches brute force and lands on
    configurations with at most 2d distinct points (:func:`halfdeg_faults`)."""
    rng = np.random.default_rng(seed)
    result = FuzzResult("halfdeg", iters)
    for i in range(iters):
        n = int(rng.integers(3, 7))
        d = int(rng.integers(2, 4))
        q = random_quadratic(rng, n, d)
        faults = halfdeg_faults(q, reduced_global_min(q, seed=seed + 7919 * i),
                                full_bruteforce_min(q, samples=3000, seed=seed + 7919 * i + 1))
        if faults:
            result.violations.append({"seed": seed, "index": i, "n": n, "d": d, **faults})
    return result


def random_lemma_target(rng):
    """Random (n, d) and a target X uniform in the d-ball of radius √n."""
    n = int(rng.integers(2, 65))
    d = int(rng.integers(1, 5))
    u = rng.normal(size=d)
    u /= np.linalg.norm(u)
    return n, d, u * math.sqrt(n) * rng.uniform() ** (1.0 / d)


def lemma_suite(iters: int = 1000, seed: int = 0) -> FuzzResult:
    """The explicit ellipsoid-target construction meets its guarantees:
    exact X match (to LEMMA_X_TOL max(1, √n)), Y zero off the last
    coordinate, last-coordinate defect at most 1/n, all points in the ball
    (each to LEMMA_TOL)."""
    rng = np.random.default_rng(seed)
    result = FuzzResult("lemma", iters)
    for i in range(iters):
        n, d, x = random_lemma_target(rng)
        pts = lemma_approx_construct(x, n).points
        s = pts.sum(axis=0) / math.sqrt(n)
        y2 = np.sum(pts * pts, axis=0) / n - s * s / n
        x_err = float(np.max(np.abs(s - x)))
        defect = abs(y2[d - 1] - (1.0 - float(x @ x) / n))
        if (x_err > LEMMA_X_TOL * max(1.0, math.sqrt(n))
                or (d > 1 and float(np.max(np.abs(y2[:d - 1]))) > LEMMA_TOL)
                or defect > 1.0 / n + LEMMA_TOL
                or float(np.max(np.linalg.norm(pts, axis=1))) > 1.0 + LEMMA_TOL):
            result.violations.append({"seed": seed, "index": i, "n": n, "d": d,
                                      "x_err": x_err, "defect": defect})
    return result


def spin_suite(iters: int = 200, seed: int = 0) -> FuzzResult:
    """Random valid states never violate the two universal inequalities and
    satisfy the Casimir identity; product coherent states always pass the
    necessary moment condition and are never flagged as entangled."""
    rng = np.random.default_rng(seed)
    result = FuzzResult("spin", iters)
    for i in range(iters):
        n = int(rng.integers(2, 17))
        state = random_state(n, seed=seed + 104729 * i)
        sm = spin_moments(state)
        casimir = sm.jx2 + sm.jy2 + sm.jz2 - (n / 2.0) * (n / 2.0 + 1.0)
        if abs(casimir) > 1e-9 * n * n:
            result.violations.append({"seed": seed, "index": i, "n": n,
                                      "casimir_defect": casimir})
            continue
        try:
            entanglement_witness(state)
        except ValueError as exc:
            result.violations.append({"seed": seed, "index": i, "n": n,
                                      "error": str(exc)})
            continue
        theta = math.acos(2.0 * rng.uniform() - 1.0)
        phi = 2.0 * math.pi * rng.uniform()
        coh = coherent_state(n, theta, phi)
        report = entanglement_witness(coh)
        m = moments_from_spin(spin_moments(coh), n)
        ok, nec = necessary_condition(m)
        if report.verdict == "EntanglementDetected" or not ok:
            result.violations.append({"seed": seed, "index": i, "n": n,
                                      "theta": theta, "phi": phi,
                                      "verdict": report.verdict,
                                      "necessary_residual": nec.max_form_residual})
    return result


def random_moment_probe(rng):
    """Random (n, d), n in 2..32 and d in 1..4, and a moment vector with z0
    standard normal and z, zz normal of standard deviation n; most of these
    are NonMember."""
    n = int(rng.integers(2, 33))
    d = int(rng.integers(1, 5))
    return n, d, MomentVector(ProblemDims(n, d), float(rng.normal()),
                              n * rng.normal(size=d), n * rng.normal(size=d))


def witness_suite(iters: int = 200, seed: int = 0) -> FuzzResult:
    """NonMember moment verdicts ship a genuine separating polynomial:
    q in the SOS cone with pair(q, m) < 0.  The probes are classified per d."""
    rng = np.random.default_rng(seed)
    result = FuzzResult("witness", 0)
    ms = [random_moment_probe(rng)[2] for _ in range(iters)]
    for b in row_batches(ms) if ms else ():
        rows = classify_rows(b.x0, b.x, b.xx, b.n)
        w = witness_rows(rows, b.x0, b.x, b.xx, b.n)
        for k in np.flatnonzero(rows.status == 1).tolist():
            result.iterations += 1
            if not w.in_sigma[k] or w.pairing[k] >= 0.0:
                result.violations.append(
                    {"seed": seed, "index": int(b.index[k]), "n": int(b.n[k]), "d": b.d,
                     "pairing": float(w.pairing[k]), "q_in_sigma": bool(w.in_sigma[k])})
    result.violations.sort(key=lambda v: v["index"])
    return result


SUITES = {
    "soundness": soundness_suite,
    "equivalence": equivalence_suite,
    "halfdeg": halfdeg_suite,
    "lemma": lemma_suite,
    "spin": spin_suite,
    "witness": witness_suite,
}


def run_suite(name: str, iters: int | None = None, seed: int = 0) -> FuzzResult:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    fn = SUITES[name]
    if iters is None:
        return fn(seed=seed)
    return fn(iters=iters, seed=seed)
