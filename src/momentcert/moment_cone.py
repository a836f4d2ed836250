"""Necessary and sufficient membership tests for the separable-moment cone.

Both sides exist in two equivalent forms: a closed-form max-type inequality
and an explicit PSD witness matrix obtained by Schur-complement elimination.
The two forms agree exactly (the elimination is algebraic); the LMI route
re-validates its witness with a dense eigenvalue check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import (
    ConeVerdict,
    MomentVector,
    ProblemDims,
    RescaledMomentVector,
    Status,
    SymmetricQuadratic,
    moment_tolerance,
    pair,
)
from .sos_cone import sigma_membership_lmi

DEFAULT_TOL = 1e-9

NECESSARY = "necessary"
SUFFICIENT = "sufficient"


@dataclass(frozen=True)
class InequalityReport:
    side: str
    max_form_residual: float
    worst_pattern: tuple[int, ...]
    z0_ok: bool


@dataclass(frozen=True)
class MomentWitnessMatrix:
    matrix: np.ndarray
    xdiag: np.ndarray
    x0: float


class MaxFormTerms(NamedTuple):
    """One side's 2^d inequalities base >= Σ_α (term1[α] if bit α else term0[α])."""

    z0e: np.ndarray
    base: np.ndarray
    term0: np.ndarray
    term1: np.ndarray

    def residual(self) -> np.ndarray:
        """Max-form residual: the smallest rhs - lhs over all patterns."""
        return self.base - np.maximum(self.term1, self.term0).sum(axis=-1)

    def pattern(self) -> np.ndarray:
        """The sign pattern achieving the max-form residual."""
        return self.term1 >= self.term0


def max_form_terms(z0, z, zz, n: int, side: str = NECESSARY) -> MaxFormTerms:
    """Inequality terms for z0 of shape (B,) and z, zz of shape (B, d), or for
    one row (shapes () and (d,)).  The sufficient side uses z0e = z0(n-1)/n
    in place of z0; base = z0e² + z0e Σ z_αα/n, term0 = z_α²/n and
    term1 = z0e z_αα/(n-1)."""
    z0 = np.asarray(z0, dtype=float)
    z = np.asarray(z, dtype=float)
    zz = np.asarray(zz, dtype=float)
    if side == NECESSARY:
        z0e = z0
    elif side == SUFFICIENT:
        z0e = z0 * (n - 1) / n
    else:
        raise ValueError(f"unknown side {side!r}")
    return MaxFormTerms(z0e, z0e * z0e + z0e * zz.sum(axis=-1) / n,
                        z * z / n, z0e[..., None] * zz / (n - 1))


def max_form_residual_batch(z0, z, zz, n: int, side: str = NECESSARY) -> np.ndarray:
    """Vectorized max-form residual; z0 shape (B,), z and zz shape (B, d)."""
    return max_form_terms(z0, z, zz, n, side).residual()


def _condition(m: MomentVector, side: str, tol: float
               ) -> tuple[bool, InequalityReport]:
    terms = max_form_terms(m.z0, m.z, m.zz, m.dims.n, side)
    residual = float(terms.residual())
    pattern = tuple(terms.pattern().astype(int).tolist())
    if m.is_zero():
        return True, InequalityReport(side, residual, pattern, True)
    s = m.moment_scale()
    z0_ok = m.z0 > tol * s
    ok = z0_ok and residual >= -moment_tolerance(tol, s)
    return ok, InequalityReport(side, residual, pattern, z0_ok)


def necessary_condition(m: MomentVector, tol: float = DEFAULT_TOL
                        ) -> tuple[bool, InequalityReport]:
    """Violation implies the vector has no representing measure."""
    return _condition(m, NECESSARY, tol)


def sufficient_condition(m: MomentVector, tol: float = DEFAULT_TOL
                         ) -> tuple[bool, InequalityReport]:
    """Passing guarantees a representing measure exists."""
    return _condition(m, SUFFICIENT, tol)


def expand_inequalities(m: MomentVector, side: str = NECESSARY
                        ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All 2^d sign-pattern inequalities as (residual, lhs, rhs) arrays.

    The residual is rhs - lhs; its minimum is the max-form residual.
    Index is the pattern read as a binary number, bit α (LSB first) set when
    the z0 z_αα/(n-1) term is chosen for coordinate α.
    """
    d = m.dims.d
    if d > 20:
        raise ValueError(f"2^d expansion refused for d={d} > 20")
    terms = max_form_terms(m.z0, m.z, m.zz, m.dims.n, side)
    res = np.full(1, terms.base)
    lhs = np.zeros(1)
    for alpha in range(d):
        res = np.concatenate([res - terms.term0[alpha], res - terms.term1[alpha]])
        lhs = np.concatenate([lhs + terms.term0[alpha], lhs + terms.term1[alpha]])
    return res, lhs, np.full(res.size, terms.base)


def pattern_of_index(idx: int, d: int) -> tuple[int, ...]:
    return tuple((idx >> alpha) & 1 for alpha in range(d))


def lmi_dual_feasibility(m: MomentVector, side: str = NECESSARY,
                         tol: float = DEFAULT_TOL
                         ) -> tuple[ConeVerdict, MomentWitnessMatrix | None]:
    """Construct the explicit PSD witness matrix for the chosen side.

    Off-diagonals of the inner block zero the Schur complement's off-diagonal;
    each diagonal x_αα sits at the max of its lower bounds; the corner entry
    x0 absorbs the trace constraint and decides feasibility by its sign.
    """
    n, d = m.dims.n, m.dims.d
    s = m.moment_scale()
    t = moment_tolerance(tol, s)
    if m.is_zero():
        size = 2 * d + 2
        zero = MomentWitnessMatrix(np.zeros((size, size)), np.zeros(d), 0.0)
        return ConeVerdict(Status.MEMBER, witness={"matrix": zero}), zero
    if m.z0 <= tol * s:
        return ConeVerdict(Status.NON_MEMBER,
                           witness={"reason": "z0 not positive", "z0": m.z0}), None
    z0 = float(max_form_terms(m.z0, m.z, m.zz, n, side).z0e)
    xdiag = np.maximum.reduce([m.zz / (n - 1), m.z * m.z / (n * z0), np.zeros(d)])
    x0 = z0 + float(m.zz.sum()) / n - float(xdiag.sum())
    size = 2 * d + 2
    x = np.zeros((size, size))
    x[0, 0] = z0
    x[0, 1:d + 1] = m.z / math.sqrt(n)
    x[1:d + 1, 0] = m.z / math.sqrt(n)
    inner = np.outer(m.z, m.z) / (n * z0)
    inner[np.arange(d), np.arange(d)] = xdiag
    x[1:d + 1, 1:d + 1] = inner
    lower = ((n - 1) * xdiag - m.zz) / n
    x[np.arange(d + 1, 2 * d + 1), np.arange(d + 1, 2 * d + 1)] = lower
    x[size - 1, size - 1] = max(x0, 0.0)
    witness = MomentWitnessMatrix(x, xdiag, x0)
    if x0 >= -t:
        eig_min = float(np.linalg.eigvalsh(x)[0])
        return ConeVerdict(Status.MEMBER,
                           witness={"matrix": witness, "min_eigenvalue": eig_min},
                           boundary=x0 < t), witness
    return ConeVerdict(Status.NON_MEMBER,
                       witness={"matrix": witness, "x0": x0}), witness


def separating_polynomial(m: MomentVector, tol: float = DEFAULT_TOL) -> SymmetricQuadratic:
    """A quadratic in the SOS cone with pair(q, m) < 0, for m failing the
    necessary condition.

    The main branch linearizes the violated max-form inequality: each
    quadratic-over-linear term z_α²/(n z0) is replaced by its tangent plane at
    m, which preserves validity on the whole cone by convexity.
    """
    n, d = m.dims.n, m.dims.d
    scale = m.moment_scale()
    if m.z0 < -tol * scale:
        return SymmetricQuadratic(m.dims, 1.0, np.zeros(d), np.zeros(d))
    if m.z0 <= tol * scale:
        alpha = int(np.argmax(np.abs(m.z)))
        if abs(m.z[alpha]) > tol * scale:
            a = np.zeros(d)
            a[alpha] = -math.copysign(1.0, m.z[alpha])
            return SymmetricQuadratic(m.dims, float(n), a, np.zeros(d))
        alpha = int(np.argmax(np.abs(m.zz)))
        aa = np.zeros(d)
        if m.zz[alpha] > 0:
            aa[alpha] = -1.0
            return SymmetricQuadratic(m.dims, float(n * (n - 1)), np.zeros(d), aa)
        aa[alpha] = 1.0
        return SymmetricQuadratic(m.dims, float(n), np.zeros(d), aa)
    t = max_form_terms(m.z0, m.z, m.zz, n, NECESSARY).pattern().astype(float)
    a0 = 1.0 + float(((1 - t) * m.z * m.z).sum()) / (n * m.z0 * m.z0)
    a = -(1 - t) * 2.0 * m.z / (n * m.z0)
    aa = np.where(t == 1.0, -1.0 / (n * (n - 1)), 1.0 / n)
    return SymmetricQuadratic(m.dims, a0, a, aa)


def classify(m: MomentVector, tol: float = DEFAULT_TOL) -> ConeVerdict:
    """Member / NonMember / Indeterminate with independently checkable witnesses."""
    suff_ok, suff_report = sufficient_condition(m, tol=tol)
    nec_ok, nec_report = necessary_condition(m, tol=tol)
    if suff_ok:
        verdict, witness = lmi_dual_feasibility(m, SUFFICIENT, tol=tol)
        return ConeVerdict(Status.MEMBER,
                           witness={"report": suff_report, "matrix": witness},
                           boundary=verdict.boundary)
    if not nec_ok:
        q = separating_polynomial(m, tol=tol)
        q_verdict, _ = sigma_membership_lmi(q, tol=tol)
        return ConeVerdict(Status.NON_MEMBER,
                           witness={"report": nec_report,
                                    "separating_polynomial": q,
                                    "pairing": pair(q, m),
                                    "witness_in_sigma": q_verdict.is_member})
    return ConeVerdict(Status.INDETERMINATE,
                       witness={"necessary_residual": nec_report.max_form_residual,
                                "sufficient_residual": suff_report.max_form_residual})


def limit_cone_membership(rm: RescaledMomentVector, tol: float = DEFAULT_TOL) -> ConeVerdict:
    """Membership in the common large-n limit of both condition families."""
    z0, zt, zzt = rm.z0, rm.zt, rm.zzt
    scale = max(1.0, abs(z0), float(np.max(np.abs(zt))), float(np.max(np.abs(zzt))))
    if z0 == 0.0 and not zt.any() and not zzt.any():
        return ConeVerdict(Status.MEMBER, witness={"residual": 0.0})
    if z0 <= tol * scale:
        return ConeVerdict(Status.NON_MEMBER, witness={"reason": "z0 not positive"})
    residual = (z0 * z0 + z0 * float(zzt.sum())
                - float(np.maximum(z0 * zzt, zt * zt).sum()))
    t = moment_tolerance(tol, scale)
    if residual >= -t:
        return ConeVerdict(Status.MEMBER, witness={"residual": residual},
                           boundary=residual < t)
    return ConeVerdict(Status.NON_MEMBER, witness={"residual": residual})


def ray_crossing(direction: RescaledMomentVector, n: int, side: str,
                 tol: float = 1e-12) -> float:
    """Largest t >= 0 with (1, t z̃, t z̃z̃) passing the chosen side's test.

    Both condition sets are convex and contain the ray base point strictly, so
    membership along the ray is an interval and bisection applies.
    """
    ProblemDims(n, direction.zt.size)  # rejects n < 2 before any division
    rt = math.sqrt(n)

    def residual(t: float) -> float:
        return float(max_form_terms(1.0, t * direction.zt * rt,
                                    t * direction.zzt * n, n, side).residual())

    hi = 1.0
    for _ in range(80):
        if residual(hi) < 0.0:
            break
        hi *= 2.0
    else:
        raise ValueError("direction never leaves the cone")
    lo = 0.0
    while hi - lo > tol * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        if residual(mid) >= 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
