"""Exact polyhedral membership tests for the d=1 cones.

These are the ground-truth oracles at d=1: the n+1 hypercube facets of the
nonnegativity cone, the dual facets of the moment cone, the closed-form
interval minimum behind the sum-of-squares cone, and the 2x2 PSD limit cone.
"""

from __future__ import annotations

import math

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


def facet_residuals(a0, a1, a11, n: int) -> np.ndarray:
    """Residuals A0 + A1(n-2k) + A11((n-2k)^2 - n) for k = 0..n.

    Accepts scalars or batch arrays for the coefficients; with arrays of shape
    (B,) the result has shape (n+1, B).
    """
    u = (n - 2 * np.arange(n + 1, dtype=float))
    return a0 + np.multiply.outer(u, a1) + np.multiply.outer(u * u - n, a11)


def p_n1_rows(a0, a1, a11, n: int, tol: float = DEFAULT_TOL):
    """Facet test for the d=1 nonnegativity cone over rows (B,) of one n: the
    (n+1, B) facet residuals, the first minimizing facet k (B,), its residual,
    and per row member (residual >= -t) and boundary (member and residual < t)
    with t = ``scaled_tolerance(tol, coeff_scale, n)``."""
    a0, a1, a11 = (np.asarray(v, dtype=float) for v in (a0, a1, a11))
    r = facet_residuals(a0, a1, a11, n)
    kmin = np.argmin(r, axis=0)
    rmin = r[kmin, np.arange(r.shape[1])]
    t = scaled_tolerance(tol, abs_scale(a0, a1[:, None], a11[:, None]), n)
    return (r, kmin, rmin, *margin_verdict(rmin, t))


def p_n1_witness(n: int, kmin: int, rmin: float, member: bool) -> dict:
    """The witness of one facet-test row: the minimizing facet, and for a
    NonMember the hypercube point where Q is negative."""
    if member:
        return {"min_k": kmin, "min_residual": rmin}
    return {"k": kmin, "residual": rmin, "point": hypercube_point(n, kmin)}


def p_n1_membership(q: SymmetricQuadratic, tol: float = DEFAULT_TOL
                    ) -> tuple[ConeVerdict, np.ndarray]:
    """Facet test for the d=1 nonnegativity cone (:func:`p_n1_rows` on one
    row); also returns the (n+1,) facet residuals."""
    _require_d1(q.dims)
    n = q.dims.n
    r, kmin, rmin, member, boundary = p_n1_rows(np.array([q.a0]), q.a, q.aa, n, tol)
    m = bool(member[0])
    verdict = ConeVerdict(Status.MEMBER if m else Status.NON_MEMBER,
                          witness=p_n1_witness(n, int(kmin[0]), float(rmin[0]), m),
                          boundary=bool(boundary[0]))
    return verdict, r[:, 0]


def c_n1_residuals(m0, m1, m11, n: int) -> np.ndarray:
    """Facet residuals of the d=1 moment cone, k = 0..n.

    Facet k < n pairs m with the extreme quadratic of the nonnegativity cone
    vanishing at the adjacent hypercube values n-2k and n-2k-2:
    m0(n-1+(n-1-2k)^2) - 2 m1 (n-1-2k) + m11.  Facet k = n pairs with the
    concave extreme quadratic vanishing at both endpoints: (n^2-n) m0 - m11.
    Scalar moments give shape (n+1,); arrays of shape (B,) give (n+1, B).
    """
    v = (n - 1 - 2 * np.arange(n, dtype=float))
    m0, m1, m11 = np.asarray(m0, dtype=float), np.asarray(m1, dtype=float), np.asarray(m11, dtype=float)
    quad = np.multiply.outer(n - 1 + v * v, m0) - 2.0 * np.multiply.outer(v, m1) + m11
    return np.concatenate([quad, ((n * n - n) * m0 - m11)[None]])


def facet_polynomial(n: int, k: int) -> SymmetricQuadratic:
    """The separating quadratic behind the k-th moment-cone facet."""
    if k == n:
        return SymmetricQuadratic(ProblemDims(n, 1), float(n * n - n), [0.0], [-1.0])
    v = float(n - 1 - 2 * k)
    return SymmetricQuadratic(ProblemDims(n, 1), n - 1 + v * v, [-2.0 * v], [1.0])


def c_n1_membership(m: MomentVector, tol: float = DEFAULT_TOL) -> ConeVerdict:
    """Facet test for the d=1 moment cone."""
    _require_d1(m.dims)
    n = m.dims.n
    r = c_n1_residuals(m.z0, float(m.z[0]), float(m.zz[0]), n)
    kmin = int(np.argmin(r))
    rmin = float(r[kmin])
    member, boundary = margin_verdict(rmin, scaled_tolerance(tol, m.moment_scale(), n))
    if member:
        return ConeVerdict(Status.MEMBER, witness={"min_k": kmin, "min_residual": rmin},
                           boundary=boundary)
    return ConeVerdict(Status.NON_MEMBER,
                       witness={"k": kmin, "residual": rmin,
                                "separating_polynomial": facet_polynomial(n, kmin)})


def sigma_n1_min(a0, a1, a11, n: int, expanded: bool = False):
    """Minimum of P_Q(X) = A0 - n A11 + √n A1 X + n A11 X² over [-√n, √n] and
    an attaining X (the lower endpoint on ties).

    Scalars or arrays of shape (B,) in, the same shapes out.  With
    expanded=True A0 is scaled by n/(n-1), which gives the outer companion
    cone Sigma'.
    """
    a0 = np.asarray(a0, dtype=float) * (n / (n - 1) if expanded else 1.0)
    a1 = np.asarray(a1, dtype=float)
    a11 = np.asarray(a11, dtype=float)
    rt = math.sqrt(n)
    c0 = a0 - n * a11
    c1 = rt * a1
    c2 = n * a11
    lo_val = c0 - c1 * rt + c2 * n
    hi_val = c0 + c1 * rt + c2 * n
    best = np.minimum(lo_val, hi_val)
    with np.errstate(divide="ignore", invalid="ignore"):
        xv = np.where(c2 > 0.0, -c1 / (2.0 * c2), 0.0)
    vert = c0 + c1 * xv + c2 * xv * xv
    use_vert = (c2 > 0.0) & (np.abs(xv) < rt) & (vert < best)
    x = np.where(use_vert, xv, np.where(hi_val < lo_val, rt, -rt))
    return np.where(use_vert, vert, best), x


def sigma_n1_membership(q: SymmetricQuadratic, expanded: bool = False,
                        tol: float = DEFAULT_TOL) -> ConeVerdict:
    """Closed-form d=1 test for the SOS cone (expanded=True gives its outer
    companion with A0 scaled by n/(n-1)): :func:`sigma_n1_min` on one row."""
    _require_d1(q.dims)
    n = q.dims.n
    val, x = (float(v) for v in sigma_n1_min(q.a0, q.a[0], q.aa[0], n, expanded))
    member, boundary = margin_verdict(val, scaled_tolerance(tol, q.coeff_scale(), n))
    return ConeVerdict(Status.MEMBER if member else Status.NON_MEMBER,
                       witness={"min_value": val, "argmin_x": x}, boundary=boundary)


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


def limit_cone_d1(b: tuple[float, float, float], tol: float = DEFAULT_TOL) -> ConeVerdict:
    """PSD test for the large-n d=1 limit cone: :func:`limit_cone_rows` on one row."""
    m00, det, member, boundary = (v[0].item()
                                  for v in limit_cone_rows(*([x] for x in b), tol=tol))
    return ConeVerdict(Status.MEMBER if member else Status.NON_MEMBER,
                       witness={"top_left": m00, "bottom_right": float(b[2]), "det": det},
                       boundary=boundary)
