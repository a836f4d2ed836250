"""The paper's reference forms that the suite checks the package against:
every d=1 facet of both cones as one array (the ``momentcert.exact_d1``
kernels evaluate at most four per row), the closed-form d=1 Sigma minimum,
the Lagrange critical-point algebra of the half-degree principle, the
large-n limit (rescaled moments, the limit cone and the ray crossings of the
1/n convergence claim), the expanded cone Sigma', P_Q on the ellipsoid, the
2^d expansion of the moment inequalities and their spin form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from momentcert.core import (
    DEFAULT_TOL,
    ConeVerdict,
    Configuration,
    MomentVector,
    ProblemDims,
    Status,
    SymmetricQuadratic,
    _frozen_vector,
    abs_scale,
    margin_verdict,
    moment_tolerance,
    scaled_tolerance,
)
from momentcert.exact_d1 import _require_d1, limit_cone_rows
from momentcert.moment_cone import NECESSARY, max_form_terms
from momentcert.sos_cone import EllipsoidPoint, sigma_membership_lmi
from momentcert.spin import SpinMoments

JITTER = 1e-10


def facet_residuals(a0, a1, a11, n: int) -> np.ndarray:
    """Residuals A0 + A1(n-2k) + A11((n-2k)^2 - n) for k = 0..n.

    Accepts scalars or batch arrays for the coefficients; with arrays of shape
    (B,) the result has shape (n+1, B).
    """
    u = (n - 2 * np.arange(n + 1, dtype=float))
    return a0 + np.multiply.outer(u, a1) + np.multiply.outer(u * u - n, a11)


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


def sigma_prime_membership(q: SymmetricQuadratic, tol: float = DEFAULT_TOL) -> ConeVerdict:
    """Expanded-cone test: the LMI applied to (n/(n-1) A0, A_α, A_αα)."""
    n = q.dims.n
    scaled = SymmetricQuadratic(q.dims, q.a0 * n / (n - 1), q.a, q.aa)
    verdict, _ = sigma_membership_lmi(scaled, tol=tol)
    return verdict


def lagrange_residual(q: SymmetricQuadratic, config: Configuration) -> float:
    """Stationarity residual with per-point multipliers solved by least squares."""
    pts = config.points
    s = pts.sum(axis=0)
    r = q.a + 2.0 * q.aa * s
    worst = 0.0
    for xi in pts:
        rhs = r - 2.0 * q.aa * xi
        lam = float(xi @ rhs) / float(xi @ xi)
        worst = max(worst, float(np.max(np.abs(rhs - lam * xi))))
    return worst


def critical_r(q: SymmetricQuadratic, config: Configuration) -> np.ndarray:
    """R_α = A_α + 2 A_αα s_α at the configuration."""
    s = config.points.sum(axis=0)
    return np.asarray(q.a + 2.0 * q.aa * s, dtype=float)


def _distinct_aa(q: SymmetricQuadratic, seed: int = 0) -> np.ndarray:
    aa = np.array(q.aa, dtype=float)
    gaps = np.abs(aa[:, None] - aa[None, :])
    np.fill_diagonal(gaps, np.inf)
    scale = max(1.0, float(np.max(np.abs(aa))))
    if float(gaps.min()) > JITTER * scale:
        return aa
    rng = np.random.default_rng(seed)
    return aa + JITTER * scale * rng.standard_normal(aa.size)


def critical_polynomial(q: SymmetricQuadratic, r: np.ndarray, seed: int = 0
                        ) -> np.ndarray:
    """Coefficients (ascending, length 2d+1) of the degree-2d polynomial whose
    roots contain every first coordinate of a critical configuration."""
    r = np.asarray(r, dtype=float)
    d = q.dims.d
    if r.shape != (d,):
        raise ValueError("R must have length d")
    aa = _distinct_aa(q, seed=seed)
    r1 = float(r[0])
    rscale = float(np.max(np.abs(r)))
    if rscale == 0.0 or abs(r1) <= 1e-12 * rscale:
        raise ValueError("R_1 vanishes: minima lie on coordinate axes "
                         "(degenerate branch, no critical polynomial)")
    # linear factors f_α(t) = R_1 + 2(A_αα - A_11) t, ascending coefficients
    factors = [np.array([r1, 2.0 * (aa[alpha] - aa[0])]) for alpha in range(d)]
    sq = [np.polynomial.polynomial.polymul(f, f) for f in factors]
    total = np.array([1.0])
    for f2 in sq:
        total = np.polynomial.polynomial.polymul(total, f2)
    poly = -total
    for beta in range(d):
        term = np.array([0.0, 0.0, r[beta] * r[beta]])  # (R_β t)^2
        for alpha in range(d):
            if alpha != beta:
                term = np.polynomial.polynomial.polymul(term, sq[alpha])
        poly = np.polynomial.polynomial.polyadd(poly, term)
    out = np.zeros(2 * d + 1)
    out[:poly.size] = poly
    return out


def recover_point(q: SymmetricQuadratic, r: np.ndarray, t: float,
                  seed: int = 0) -> list[np.ndarray]:
    """Candidate points with first coordinate t, from the quotient formula.

    A near-zero denominator at one coordinate (there can be at most one) is
    resolved by the unit-norm constraint with both signs.
    """
    r = np.asarray(r, dtype=float)
    d = q.dims.d
    aa = _distinct_aa(q, seed=seed)
    r1 = float(r[0])
    dens = r1 + 2.0 * (aa - aa[0]) * t
    den_scale = max(abs(r1), float(np.max(np.abs(2.0 * (aa - aa[0]) * t))), 1e-300)
    degenerate = np.abs(dens) <= 1e-9 * den_scale
    xi = np.zeros(d)
    xi[0] = t
    for alpha in range(1, d):
        if not degenerate[alpha]:
            xi[alpha] = r[alpha] * t / dens[alpha]
    if not degenerate[1:].any():
        return [xi]
    alpha0 = 1 + int(np.argmax(degenerate[1:]))
    rest = float(np.sum(xi ** 2)) - xi[alpha0] ** 2
    fill = math.sqrt(max(0.0, 1.0 - rest))
    plus, minus = xi.copy(), xi.copy()
    plus[alpha0], minus[alpha0] = fill, -fill
    return [plus, minus]


@dataclass(frozen=True)
class RescaledMomentVector:
    """Moments in the large-n coordinates z̃_α = z_α/√n, z̃_αα = z_αα/n."""

    z0: float
    zt: np.ndarray
    zzt: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "z0", float(self.z0))
        if not math.isfinite(self.z0):
            raise ValueError("z0 must be finite")
        d = np.asarray(self.zt, dtype=float).size
        _frozen_vector(self, "zt", self.zt, d)
        _frozen_vector(self, "zzt", self.zzt, d)


def rescale_moments(m: MomentVector) -> RescaledMomentVector:
    n = m.dims.n
    return RescaledMomentVector(m.z0, m.z / math.sqrt(n), m.zz / n)


def unrescale_moments(rm: RescaledMomentVector, dims: ProblemDims) -> MomentVector:
    n = dims.n
    return MomentVector(dims, rm.z0, rm.zt * math.sqrt(n), rm.zzt * n)


def limit_cone_membership(rm: RescaledMomentVector, tol: float = DEFAULT_TOL) -> ConeVerdict:
    """Membership in the common large-n limit of both condition families."""
    z0, zt, zzt = rm.z0, rm.zt, rm.zzt
    scale = float(abs_scale(z0, zt, zzt))
    if z0 == 0.0 and not zt.any() and not zzt.any():
        return ConeVerdict(Status.MEMBER, witness={"residual": 0.0})
    if z0 <= tol * scale:
        return ConeVerdict(Status.NON_MEMBER, witness={"reason": "z0 not positive"})
    residual = (z0 * z0 + z0 * float(zzt.sum())
                - float(np.maximum(z0 * zzt, zt * zt).sum()))
    member, boundary = margin_verdict(residual, moment_tolerance(tol, scale))
    return ConeVerdict(Status.MEMBER if member else Status.NON_MEMBER,
                       witness={"residual": residual}, boundary=boundary)


def limit_cone_d1(b: tuple[float, float, float], tol: float = DEFAULT_TOL) -> ConeVerdict:
    """PSD test for the large-n d=1 limit cone: ``exact_d1.limit_cone_rows`` on one row."""
    m00, det, member, boundary = (v[0].item()
                                  for v in limit_cone_rows(*([x] for x in b), tol=tol))
    return ConeVerdict(Status.MEMBER if member else Status.NON_MEMBER,
                       witness={"top_left": m00, "bottom_right": float(b[2]), "det": det},
                       boundary=boundary)


def ray_crossing(direction: RescaledMomentVector, n: int, side: str) -> float:
    """Largest t >= 0 with (1, t z̃, t z̃z̃) passing the chosen side's test.

    Both condition sets are convex and contain the ray base point strictly, so
    membership along the ray is an interval: it is bracketed by the first
    t = 2^k (k < 80) that fails and bisected to rtol 1e-12.
    """
    ProblemDims(n, direction.zt.size)  # rejects n < 2 before any division
    rt = math.sqrt(n)

    def residual(t: np.ndarray) -> np.ndarray:
        return max_form_terms(np.ones(t.shape), t[:, None] * direction.zt * rt,
                              t[:, None] * direction.zzt * n, n, side).residual()

    with np.errstate(over="ignore", invalid="ignore"):  # t up to 2^79
        out = residual(2.0 ** np.arange(80)) < 0.0
    if not out.any():
        raise ValueError("direction never leaves the cone")
    lo, hi = 0.0, 2.0 ** int(np.argmax(out))
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if residual(np.array([mid]))[0] >= 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-12 * max(1.0, abs(hi)):
            break
    return 0.5 * (lo + hi)


def pq_evaluate(q: SymmetricQuadratic, pt: EllipsoidPoint) -> float:
    """P_Q(X,Y) = A0 + Σ √n A_α X_α + (n-1) Σ A_αα X_α² - n Σ A_αα Y_α²."""
    n, d = q.dims.n, q.dims.d
    if pt.x.shape != (d,):
        raise ValueError("point dimension mismatch")
    return (q.a0 + math.sqrt(n) * float(q.a @ pt.x)
            + (n - 1) * float(q.aa @ (pt.x * pt.x))
            - n * float(q.aa @ (pt.y * pt.y)))


def config_to_ellipsoid(config: Configuration) -> EllipsoidPoint:
    """The (X, Y) coordinates induced by a configuration."""
    n = config.dims.n
    pts = config.points
    x = pts.sum(axis=0) / math.sqrt(n)
    y2 = np.sum(pts * pts, axis=0) / n - x * x / n
    return EllipsoidPoint(x, np.sqrt(np.maximum(y2, 0.0)))


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


def spin_form_residuals(sm: SpinMoments, n: int) -> dict[tuple[int, ...], float]:
    """The eight necessary inequalities written directly in spin language,
    as (LHS - RHS) residuals of the 'separable implies >=' forms."""
    vx = sm.jx2 - sm.jx ** 2
    vy = sm.jy2 - sm.jy ** 2
    vz = sm.jz2 - sm.jz ** 2
    s2 = sm.jx2 + sm.jy2 + sm.jz2
    return {
        (0, 0, 0): 2.0 * (vx + vy + vz) - n,
        (1, 0, 0): 4.0 * (n - 1) * (vy + vz) - n * (n - 2) - 4.0 * sm.jx2,
        (0, 1, 0): 4.0 * (n - 1) * (vx + vz) - n * (n - 2) - 4.0 * sm.jy2,
        (0, 0, 1): 4.0 * (n - 1) * (vy + vx) - n * (n - 2) - 4.0 * sm.jz2,
        (0, 1, 1): 4.0 * (n - 1) * vx - 4.0 * (sm.jy2 + sm.jz2) + 2.0 * n,
        (1, 0, 1): 4.0 * (n - 1) * vy - 4.0 * (sm.jx2 + sm.jz2) + 2.0 * n,
        (1, 1, 0): 4.0 * (n - 1) * vz - 4.0 * (sm.jy2 + sm.jx2) + 2.0 * n,
        (1, 1, 1): n * (n + 2) - 4.0 * s2,
    }


def coeffs_from_rescaled(b: tuple[float, float, float], n: int) -> SymmetricQuadratic:
    """The d=1 quadratic with rescaled coefficients (B0, B1, B11)."""
    b0, b1, b11 = b
    return SymmetricQuadratic(ProblemDims(n, 1), b0,
                              [b1 / math.sqrt(n)], [b11 / n])
