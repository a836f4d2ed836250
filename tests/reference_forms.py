"""The paper's reference forms that the suite checks the package against:
every d=1 facet of both cones as one array (the ``momentcert.exact_d1``
kernels evaluate at most four per row), the Lagrange critical-point algebra
of the half-degree principle, the ray crossings of the 1/n convergence
claim, P_Q on the ellipsoid and the spin form of the moment inequalities.
"""

from __future__ import annotations

import math

import numpy as np

from momentcert.core import Configuration, ProblemDims, RescaledMomentVector, SymmetricQuadratic
from momentcert.moment_cone import max_form_terms
from momentcert.sos_cone import EllipsoidPoint
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
