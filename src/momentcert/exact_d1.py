"""Exact polyhedral membership tests for the d=1 cones.

These are the ground-truth oracles at d=1: the facets of the nonnegativity
and moment cones (at most four decide a row) and the 2x2 PSD limit cone.
"""

from __future__ import annotations

import numpy as np

from .core import (
    DEFAULT_TOL,
    ConeVerdict,
    Configuration,
    MomentVector,
    ProblemDims,
    Status,
    SymmetricQuadratic,
    abs_scale,
    margin_verdict,
    scaled_tolerance,
)


def _require_d1(dims: ProblemDims):
    if dims.d != 1:
        raise ValueError(f"d=1 required, got d={dims.d}")


def hypercube_points(n: int, k) -> np.ndarray:
    """The points of the hypercube configurations with k entries -1 and n-k
    entries +1: shape (n, 1) for an int k, (B, n, 1) for k of shape (B,)."""
    return np.where(np.arange(n)[:, None] < np.asarray(k)[..., None, None], -1.0, 1.0)


def hypercube_point(n: int, k: int) -> Configuration:
    """The hypercube configuration with k entries -1 and n-k entries +1."""
    return Configuration(ProblemDims(n, 1), hypercube_points(n, k))


def _first_min(residual, k_vertex, top):
    """The first k in 0..top minimizing ``residual(k)``, a quadratic in k
    with its real minimum at ``k_vertex`` (0 where it is concave or linear),
    and that minimum; scalars or (B,) arrays.  Only k = 0, floor(k_vertex),
    floor(k_vertex)+1 and top, clipped, are evaluated: the k and bits of
    ``argmin`` over all of them, except where rounding flattens the minimum
    across more facets (it is then within rounding of the full minimum)."""
    lo = np.clip(np.floor(k_vertex), 0, top)
    ks = np.stack(np.broadcast_arrays(0, lo, np.minimum(lo + 1, top), top)).astype(np.intp)
    r = residual(ks)
    i = np.argmin(r, axis=0)[None]
    return np.take_along_axis(ks, i, 0)[0], np.take_along_axis(r, i, 0)[0]


def p_n1_rows(a0, a1, a11, n, tol: float = DEFAULT_TOL):
    """Facet test for the d=1 nonnegativity cone over rows (B,), n an int or
    (B,): facet k's residual A0 + A1 u + A11 (u² - n), u = n-2k, is Q at the
    hypercube point with k entries -1.  Returns the first minimizing facet k,
    its residual, member (residual >= -t) and boundary (member and residual
    < t) per row, t = ``scaled_tolerance(tol, coeff_scale, n)``."""
    a0, a1, a11 = (np.asarray(v, dtype=float) for v in (a0, a1, a11))
    with np.errstate(divide="ignore", invalid="ignore"):  # a11 <= 0 rows take 0
        k_vertex = np.where(a11 > 0.0, 0.5 * (n + a1 / (2.0 * a11)), 0.0)

    def residual(k):
        u = n - 2.0 * k
        return a0 + u * a1 + (u * u - n) * a11

    kmin, rmin = _first_min(residual, k_vertex, n)
    t = scaled_tolerance(tol, abs_scale(a0, a1[:, None], a11[:, None]), n)
    return (kmin, rmin, *margin_verdict(rmin, t))


def p_n1_membership(q: SymmetricQuadratic, tol: float = DEFAULT_TOL) -> ConeVerdict:
    """Facet test for the d=1 nonnegativity cone: :func:`p_n1_rows` on one
    row; a NonMember carries the hypercube point where Q is negative."""
    _require_d1(q.dims)
    n = q.dims.n
    k, r, member, boundary = (v[0].item() for v in p_n1_rows([q.a0], q.a, q.aa, n, tol))
    witness = ({"min_k": k, "min_residual": r} if member
               else {"k": k, "residual": r, "point": hypercube_point(n, k)})
    return ConeVerdict(Status.MEMBER if member else Status.NON_MEMBER, witness, boundary)


def c_n1_rows(m0, m1, m11, n, tol: float = DEFAULT_TOL):
    """Facet test for the d=1 moment cone over rows (B,), n an int or (B,).

    Facet k < n pairs m with the extreme quadratic of the nonnegativity cone
    vanishing at the adjacent hypercube values n-2k and n-2k-2:
    m0(n-1+(n-1-2k)^2) - 2 m1 (n-1-2k) + m11.  Facet k = n pairs with the
    concave extreme quadratic vanishing at both endpoints: (n^2-n) m0 - m11,
    minimizing only when strictly lower.  Returns as :func:`p_n1_rows` does.
    """
    m0, m1, m11 = (np.asarray(v, dtype=float) for v in (m0, m1, m11))
    with np.errstate(divide="ignore", invalid="ignore"):  # m0 <= 0 rows take 0
        k_vertex = np.where(m0 > 0.0, 0.5 * (n - 1 - m1 / m0), 0.0)

    def residual(k):
        v = n - 1 - 2.0 * k
        return (n - 1 + v * v) * m0 - 2.0 * (v * m1) + m11

    kmin, rmin = _first_min(residual, k_vertex, n - 1)
    last = (n * n - n) * m0 - m11
    win = last < rmin
    kmin, rmin = np.where(win, n, kmin).astype(np.intp), np.where(win, last, rmin)
    t = scaled_tolerance(tol, abs_scale(m0, m1[:, None], m11[:, None]), n)
    return (kmin, rmin, *margin_verdict(rmin, t))


def facet_polynomial(n: int, k: int) -> SymmetricQuadratic:
    """The separating quadratic behind the k-th moment-cone facet."""
    if k == n:
        return SymmetricQuadratic(ProblemDims(n, 1), float(n * n - n), [0.0], [-1.0])
    v = float(n - 1 - 2 * k)
    return SymmetricQuadratic(ProblemDims(n, 1), n - 1 + v * v, [-2.0 * v], [1.0])


def c_n1_membership(m: MomentVector, tol: float = DEFAULT_TOL) -> ConeVerdict:
    """Facet test for the d=1 moment cone: :func:`c_n1_rows` on one row; a
    NonMember carries the facet's separating polynomial."""
    _require_d1(m.dims)
    n = m.dims.n
    k, r, member, boundary = (v[0].item() for v in c_n1_rows([m.z0], m.z, m.zz, n, tol))
    witness = ({"min_k": k, "min_residual": r} if member
               else {"k": k, "residual": r, "separating_polynomial": facet_polynomial(n, k)})
    return ConeVerdict(Status.MEMBER if member else Status.NON_MEMBER, witness, boundary)


def limit_cone_rows(b0, b1, b11, tol: float = DEFAULT_TOL):
    """PSD test for [[B0-B11, B1/2], [B1/2, B11]], the large-n d=1 limit cone,
    over rows (B,): the corner B0-B11 and det per row, and member and boundary
    of min(B0-B11, B11, det/scale) against t = tol·scale."""
    b0, b1, b11 = (np.asarray(v, dtype=float) for v in (b0, b1, b11))
    scale = abs_scale(b0, b1[:, None], b11[:, None])
    with np.errstate(over="ignore", invalid="ignore"):  # as float arithmetic: inf, NaN
        m00 = b0 - b11
        det = m00 * b11 - 0.25 * b1 * b1
    margin = np.minimum(np.minimum(m00, b11), det / scale)
    return (m00, det, *margin_verdict(margin, tol * scale))

