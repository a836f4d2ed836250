"""Necessary and sufficient membership tests for the separable-moment cone.

Both sides exist in two equivalent forms: a closed-form max-type inequality
and an explicit PSD witness matrix obtained by Schur-complement elimination.
The two forms agree exactly (the elimination is algebraic); the LMI route
re-validates its witness with a dense eigenvalue check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import (
    DEFAULT_TOL,
    ConeVerdict,
    MomentVector,
    ProblemDims,
    Status,
    SymmetricQuadratic,
    abs_max,
    abs_scale,
    margin_verdict,
    moment_tolerance,
)
from .sos_cone import sigma_membership_lmi  # noqa: F401  (bench/tracing.py wraps this binding)
from .sos_cone import sigma_rows

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


def max_form_terms(z0, z, zz, n, side: str = NECESSARY) -> MaxFormTerms:
    """Inequality terms for z0 of shape (B,) and z, zz of shape (B, d), or for
    one row (shapes () and (d,)); n is a scalar or of shape (B,).  The
    sufficient side uses z0e = z0(n-1)/n in place of z0;
    base = z0e² + z0e Σ z_αα/n, term0 = z_α²/n and term1 = z0e z_αα/(n-1)."""
    z0 = np.asarray(z0, dtype=float)
    z = np.asarray(z, dtype=float)
    zz = np.asarray(zz, dtype=float)
    if side == NECESSARY:
        z0e = z0
    elif side == SUFFICIENT:
        z0e = z0 * (n - 1) / n
    else:
        raise ValueError(f"unknown side {side!r}")
    nc = np.asarray(n)[..., None]
    return MaxFormTerms(z0e, z0e * z0e + z0e * zz.sum(axis=-1) / n,
                        z * z / nc, z0e[..., None] * zz / (nc - 1))


def max_form_residual_batch(z0, z, zz, n, side: str = NECESSARY) -> np.ndarray:
    """Vectorized max-form residual; z0 shape (B,), z and zz shape (B, d), n an
    int or shape (B,)."""
    return max_form_terms(z0, z, zz, n, side).residual()


class ConditionRows(NamedTuple):
    """One side's test per row: verdict, max-form residual, its sign pattern
    (B, d), z0 > tol·scale (true for the zero vector), the side's z0, and
    boundary: a nonzero passing row with residual < tol·scale²."""

    ok: np.ndarray
    residual: np.ndarray
    pattern: np.ndarray
    z0_ok: np.ndarray
    z0e: np.ndarray
    boundary: np.ndarray


def _scale_and_zero(z0, z, zz):
    """Per row, ``moment_scale`` and whether the vector is zero."""
    size = abs_max(z0, z, zz)
    return np.maximum(1.0, size), size == 0.0


def condition_rows(z0, z, zz, n, side: str, tol: float, scale, zero) -> ConditionRows:
    """The chosen side over rows: the zero vector passes; any other row needs
    z0 > tol·scale and a max-form residual >= -tol·scale²."""
    terms = max_form_terms(z0, z, zz, n, side)
    residual = terms.residual()
    z0_ok = zero | (z0 > tol * scale)
    member, edge = margin_verdict(residual, moment_tolerance(tol, scale))
    ok = z0_ok & (zero | member)
    return ConditionRows(ok, residual, terms.pattern(), z0_ok, terms.z0e, ok & ~zero & edge)


def _report(side: str, rows: ConditionRows, k: int) -> InequalityReport:
    return InequalityReport(side, float(rows.residual[k]),
                            tuple(rows.pattern[k].astype(int).tolist()),
                            bool(rows.z0_ok[k]))


def _one_row(m: MomentVector):
    return np.array([m.z0]), m.z[None], m.zz[None]


def _condition(m: MomentVector, side: str, tol: float
               ) -> tuple[bool, InequalityReport]:
    z0, z, zz = _one_row(m)
    rows = condition_rows(z0, z, zz, m.dims.n, side, tol, *_scale_and_zero(z0, z, zz))
    return bool(rows.ok[0]), _report(side, rows, 0)


def necessary_condition(m: MomentVector, tol: float = DEFAULT_TOL
                        ) -> tuple[bool, InequalityReport]:
    """Violation implies the vector has no representing measure."""
    return _condition(m, NECESSARY, tol)


def sufficient_condition(m: MomentVector, tol: float = DEFAULT_TOL
                         ) -> tuple[bool, InequalityReport]:
    """Passing guarantees a representing measure exists."""
    return _condition(m, SUFFICIENT, tol)


def _witness_diagonal(z0e, z, zz, n):
    """Per row, the inner diagonal x_αα = max(z_αα/(n-1), z_α²/(n z0e), 0) of
    the witness matrix and its corner x0 = z0e + Σ z_αα/n - Σ x_αα."""
    nc = np.asarray(n)[..., None]
    with np.errstate(divide="ignore", invalid="ignore"):
        xdiag = np.maximum.reduce([zz / (nc - 1), z * z / (nc * z0e[..., None]),
                                   np.zeros(z.shape)])
    return xdiag, z0e + zz.sum(axis=-1) / n - xdiag.sum(axis=-1)


def _witness_matrices(z0e, z, zz, n, xdiag, x0) -> np.ndarray:
    """The (B, 2d+2, 2d+2) witness matrices; only rows with z0e > 0 are
    meaningful (the zero vector's witness is the zero matrix)."""
    b, d = z.shape
    nc = np.asarray(n)[..., None]
    diag = np.arange(d)
    x = np.zeros((b, 2 * d + 2, 2 * d + 2))
    x[:, 0, 0] = z0e
    x[:, 0, 1:d + 1] = x[:, 1:d + 1, 0] = z / np.sqrt(nc)
    with np.errstate(divide="ignore", invalid="ignore"):
        x[:, 1:d + 1, 1:d + 1] = z[:, :, None] * z[:, None, :] / (nc * z0e[:, None])[..., None]
    x[:, diag + 1, diag + 1] = xdiag
    x[:, diag + d + 1, diag + d + 1] = ((nc - 1) * xdiag - zz) / nc
    x[:, -1, -1] = np.where(0.0 > x0, 0.0, x0)
    return x


def _zero_witness(d: int) -> MomentWitnessMatrix:
    return MomentWitnessMatrix(np.zeros((2 * d + 2, 2 * d + 2)), np.zeros(d), 0.0)


def lmi_dual_feasibility(m: MomentVector, side: str = NECESSARY,
                         tol: float = DEFAULT_TOL
                         ) -> tuple[ConeVerdict, MomentWitnessMatrix | None]:
    """Construct the explicit PSD witness matrix for the chosen side.

    Off-diagonals of the inner block zero the Schur complement's off-diagonal;
    each diagonal x_αα sits at the max of its lower bounds; the corner entry
    x0 absorbs the trace constraint and decides feasibility by its sign.
    """
    s = m.moment_scale()
    if m.is_zero():
        zero = _zero_witness(m.dims.d)
        return ConeVerdict(Status.MEMBER, witness={"matrix": zero}), zero
    if m.z0 <= tol * s:
        return ConeVerdict(Status.NON_MEMBER,
                           witness={"reason": "z0 not positive", "z0": m.z0}), None
    z0, z, zz = _one_row(m)
    z0e = max_form_terms(z0, z, zz, m.dims.n, side).z0e
    xdiag, x0 = _witness_diagonal(z0e, z, zz, m.dims.n)
    matrix = _witness_matrices(z0e, z, zz, m.dims.n, xdiag, x0)[0]
    x0 = float(x0[0])
    witness = MomentWitnessMatrix(matrix, xdiag[0], x0)
    member, boundary = margin_verdict(x0, moment_tolerance(tol, s))
    if member:
        eig_min = float(np.linalg.eigvalsh(witness.matrix)[0])
        return ConeVerdict(Status.MEMBER,
                           witness={"matrix": witness, "min_eigenvalue": eig_min},
                           boundary=boundary), witness
    return ConeVerdict(Status.NON_MEMBER,
                       witness={"matrix": witness, "x0": x0}), witness


def separating_rows(z0, z, zz, n, scale, pattern, tol: float = DEFAULT_TOL):
    """Coefficients (a0 (B,), a, aa (B, d)) of :func:`separating_polynomial`
    for each row, given its moment scale and necessary-side sign pattern."""
    b, d = z.shape
    nc = np.asarray(n)[..., None]
    rows = np.arange(b)
    onehot = np.arange(d)
    tz = tol * scale
    # z0 <= tol·scale: the largest |z_α| > tol·scale gives a linear
    # separator, else the largest |z_αα| a quadratic one
    ia = np.argmax(np.abs(z), axis=-1)
    za = z[rows, ia]
    lin = np.abs(za) > tz
    ib = np.argmax(np.abs(zz), axis=-1)
    up = zz[rows, ib] > 0.0
    a0 = np.where(lin, n, np.where(up, n * (n - 1), n))
    a = np.where(lin[:, None] & (onehot == ia[:, None]), -np.copysign(1.0, za)[:, None], 0.0)
    aa = np.where(~lin[:, None] & (onehot == ib[:, None]),
                  np.where(up, -1.0, 1.0)[:, None], 0.0)
    # z0 > tol·scale: the tangent plane of the violated max-form inequality
    t = pattern.astype(float)
    main = z0 > tz
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a0 = np.where(main, 1.0 + ((1 - t) * z * z).sum(axis=-1) / (n * z0 * z0), a0)
        a = np.where(main[:, None], -(1 - t) * 2.0 * z / (nc * z0[:, None]), a)
    aa = np.where(main[:, None], np.where(t == 1.0, -1.0 / (nc * (nc - 1)), 1.0 / nc), aa)
    # z0 < -tol·scale: the constant 1
    neg = z0 < -tz
    return (np.where(neg, 1.0, a0), np.where(neg[:, None], 0.0, a),
            np.where(neg[:, None], 0.0, aa))


def separating_polynomial(m: MomentVector, tol: float = DEFAULT_TOL) -> SymmetricQuadratic:
    """A quadratic in the SOS cone with pair(q, m) < 0, for m failing the
    necessary condition: :func:`separating_rows` on one row.

    The main branch linearizes the violated max-form inequality: each
    quadratic-over-linear term z_α²/(n z0) is replaced by its tangent plane at
    m, which preserves validity on the whole cone by convexity.
    """
    z0, z, zz = _one_row(m)
    pattern = max_form_terms(z0, z, zz, m.dims.n, NECESSARY).pattern()
    a0, a, aa = separating_rows(z0, z, zz, m.dims.n, abs_scale(z0, z, zz), pattern, tol)
    return SymmetricQuadratic(m.dims, float(a0[0]), a[0], aa[0])


class MomentRows(NamedTuple):
    """Per-row result of :func:`classify_rows`."""

    status: np.ndarray    # index into STATUSES
    boundary: np.ndarray
    scale: np.ndarray
    zero: np.ndarray
    suf: ConditionRows
    nec: ConditionRows


STATUSES = (Status.MEMBER, Status.NON_MEMBER, Status.INDETERMINATE)


def classify_rows(z0, z, zz, n, tol: float = DEFAULT_TOL) -> MomentRows:
    """Member where the sufficient side holds, NonMember where the necessary
    side fails, else Indeterminate, over z0 (B,), z and zz (B, d) and n a
    scalar or (B,).  A nonzero Member lies on the boundary when the
    sufficient residual that decides it is in [-tol·scale², tol·scale²)."""
    z0, z, zz = (np.asarray(v, dtype=float) for v in (z0, z, zz))
    scale, zero = _scale_and_zero(z0, z, zz)
    suf = condition_rows(z0, z, zz, n, SUFFICIENT, tol, scale, zero)
    nec = condition_rows(z0, z, zz, n, NECESSARY, tol, scale, zero)
    status = ~suf.ok * (1 + nec.ok)  # 0 Member, 1 NonMember, 2 Indeterminate
    return MomentRows(status, suf.boundary, scale, zero, suf, nec)


def _row_dot(x, y):
    """Row-wise dot products of (B, d) arrays, rounded as ``x[k] @ y[k]`` is."""
    return (x[:, None, :] @ y[:, :, None])[:, 0, 0]


class MomentWitnessRows(NamedTuple):
    """The witness columns of :func:`classify_rows`' verdicts.  Member: the
    witness matrix (M, 2d+2, 2d+2), its inner diagonal (M, d) and corner x0
    (M,), one per Member row in row order (its Member rank), all zero for
    the zero vector.  NonMember: the separating polynomial a0 (B,), a and aa
    (B, d), its pairing with the row and whether it lies in Sigma, set on
    the NonMember rows and zero elsewhere."""

    matrix: np.ndarray
    xdiag: np.ndarray
    x0: np.ndarray
    a0: np.ndarray
    a: np.ndarray
    aa: np.ndarray
    pairing: np.ndarray
    in_sigma: np.ndarray


def witness_rows(rows: MomentRows, z0, z, zz, n, tol: float = DEFAULT_TOL) -> MomentWitnessRows:
    """The witnesses of each row's verdict, each kind computed over the rows
    of its verdict at once.  A separating polynomial that is not finite
    raises the ValueError of the SymmetricQuadratic it would make."""
    b, d = z.shape
    n = np.broadcast_to(np.asarray(n, dtype=float), (b,))
    member = np.flatnonzero(rows.status == 0)
    m = member.size
    matrix, xdiag, x0 = np.zeros((m, 2 * d + 2, 2 * d + 2)), np.zeros((m, d)), np.zeros(m)
    r = np.flatnonzero(~rows.zero[member])  # the Member ranks of nonzero rows
    k = member[r]
    z0e = rows.suf.z0e[k]
    xdiag[r], x0[r] = _witness_diagonal(z0e, z[k], zz[k], n[k])
    matrix[r] = _witness_matrices(z0e, z[k], zz[k], n[k], xdiag[r], x0[r])
    a0, a, aa, pairing = np.zeros(b), np.zeros((b, d)), np.zeros((b, d)), np.zeros(b)
    in_sigma = np.zeros(b, dtype=bool)
    k = np.flatnonzero(rows.status == 1)
    if k.size:
        a0[k], a[k], aa[k] = separating_rows(z0[k], z[k], zz[k], n[k], rows.scale[k],
                                             rows.nec.pattern[k], tol)
        bad = k[~np.isfinite(abs_max(a0[k], a[k], aa[k]))]
        if bad.size:  # raises the constructor's error for the first such row
            j = bad[0]
            SymmetricQuadratic(ProblemDims(int(n[j]), d), a0[j], a[j], aa[j])
        in_sigma[k] = sigma_rows(a0[k], a[k], aa[k], n[k], tol).member
        pairing[k] = a0[k] * z0[k] + _row_dot(a[k], z[k]) + _row_dot(aa[k], zz[k])
    return MomentWitnessRows(matrix, xdiag, x0, a0, a, aa, pairing, in_sigma)


def classify(m: MomentVector, tol: float = DEFAULT_TOL) -> ConeVerdict:
    """Member / NonMember / Indeterminate with independently checkable
    witnesses: :func:`classify_rows` and :func:`witness_rows` on one row.

    Member: the sufficient-side report and witness matrix.  NonMember: the
    necessary-side report, the separating polynomial, its pairing with the
    row and its SOS-cone verdict.  Indeterminate: both residuals.
    """
    z0, z, zz = _one_row(m)
    rows = classify_rows(z0, z, zz, m.dims.n, tol)
    w = witness_rows(rows, z0, z, zz, m.dims.n, tol)
    status = int(rows.status[0])
    if status == 0:
        witness = {"report": _report(SUFFICIENT, rows.suf, 0),
                   "matrix": MomentWitnessMatrix(w.matrix[0], w.xdiag[0], float(w.x0[0]))}
    elif status == 1:
        witness = {"report": _report(NECESSARY, rows.nec, 0),
                   "separating_polynomial": SymmetricQuadratic(m.dims, float(w.a0[0]),
                                                               w.a[0], w.aa[0]),
                   "pairing": float(w.pairing[0]), "witness_in_sigma": bool(w.in_sigma[0])}
    else:
        witness = {"necessary_residual": float(rows.nec.residual[0]),
                   "sufficient_residual": float(rows.suf.residual[0])}
    return ConeVerdict(STATUSES[status], witness=witness, boundary=bool(rows.boundary[0]))

