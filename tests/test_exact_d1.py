import itertools
import math

import numpy as np

from momentcert.core import (
    MomentVector,
    ProblemDims,
    Status,
    SymmetricQuadratic,
    moments_of_configuration,
    pair,
)
from momentcert.exact_d1 import (
    c_n1_membership,
    c_n1_residuals,
    facet_polynomial,
    facet_residuals,
    hypercube_point,
    limit_cone_d1,
    p_n1_membership,
    sigma_n1_membership,
    sigma_n1_min,
)
from momentcert.sos_cone import ellipsoid_quadratic_min


def q1(n, a0, a1, a11):
    return SymmetricQuadratic(ProblemDims(n, 1), a0, [a1], [a11])


def test_p_membership_trivial():
    v, residuals = p_n1_membership(q1(5, 1.0, 0.0, 0.0))
    assert v.status is Status.MEMBER
    assert residuals.shape == (6,)


def test_p_membership_negative_square():
    # -s11 is negative at the all-ones vertex: residual -(n^2 - n)
    v, _ = p_n1_membership(q1(2, 0.0, 0.0, -1.0))
    assert v.status is Status.NON_MEMBER
    assert v.witness["residual"] == -(4.0 - 2.0)


def test_p_membership_derived_minimum():
    # q = (n, 0, -1): residual 2n - (n-2k)^2, min at k=0 equals -3 for n=3
    v, residuals = p_n1_membership(q1(3, 3.0, 0.0, -1.0))
    assert v.status is Status.NON_MEMBER
    assert residuals.min() == -3.0 and v.witness["k"] == 0


def test_facet_residuals_match_hypercube_evaluation():
    n = 6
    rng = np.random.default_rng(3)
    q = q1(n, rng.normal(), rng.normal(), rng.normal())
    r = facet_residuals(q.a0, float(q.a[0]), float(q.aa[0]), n)
    from momentcert.core import evaluate
    for k in range(n + 1):
        assert abs(r[k] - evaluate(q, hypercube_point(n, k))) < 1e-12 * max(1, abs(r[k]))


def test_facet_residuals_batch_shape():
    r = facet_residuals(np.zeros(7), np.ones(7), np.zeros(7), 4)
    assert r.shape == (5, 7)
    assert np.allclose(r[0], 4.0)  # k=0: s1 = n


def test_residuals_batch_columns_equal_scalar_calls():
    rng = np.random.default_rng(4)
    for n in (2, 3, 7, 16):
        a0, a1, a11 = rng.normal(size=(3, 9)) * 10.0 ** rng.uniform(-3, 3, size=(3, 9))
        for fn in (facet_residuals, c_n1_residuals):
            batch = fn(a0, a1, a11, n)
            assert batch.shape == (n + 1, 9)
            for b in range(9):
                col = batch[:, b]
                assert np.array_equal(col, fn(a0[b], a1[b], a11[b], n))
                assert np.array_equal(col, fn(float(a0[b]), float(a1[b]), float(a11[b]), n))


def test_c_membership_cases():
    assert c_n1_membership(MomentVector(ProblemDims(5, 1), 1.0, [0.0], [0.0])).is_member
    v = c_n1_membership(MomentVector(ProblemDims(3, 1), 1.0, [6.0], [0.0]))
    assert v.status is Status.NON_MEMBER
    # NonMember ships the facet's separating polynomial
    q = v.witness["separating_polynomial"]
    m = MomentVector(ProblemDims(3, 1), 1.0, [6.0], [0.0])
    assert pair(q, m) < 0.0


def test_c_membership_hypercube_moments():
    """Moments of every hypercube configuration lie in the cone (n <= 10)."""
    for n in range(2, 11):
        for k in range(n + 1):
            m = moments_of_configuration(hypercube_point(n, k))
            assert c_n1_membership(m).is_member, (n, k)


def test_c_facet_duality():
    """Membership equals nonnegative pairing with every facet polynomial."""
    rng = np.random.default_rng(11)
    n = 6
    for _ in range(300):
        m = MomentVector(ProblemDims(n, 1), abs(rng.normal()) + 0.1,
                         [3 * rng.normal()], [3 * rng.normal()])
        facet_ok = all(pair(facet_polynomial(n, k), m) >= -1e-9 * m.moment_scale() * n * n
                       for k in range(n + 1))
        assert c_n1_membership(m).is_member == facet_ok


def test_sigma_membership_cases():
    assert sigma_n1_membership(q1(4, 1.0, 0.0, 0.0)).is_member
    v = sigma_n1_membership(q1(4, 0.0, 0.0, 1.0))
    assert v.status is Status.NON_MEMBER
    assert v.witness["min_value"] == -4.0  # P = -n + nX^2, min at X=0


def test_sigma_n1_min_branches():
    # n = 4, so P_Q(X) = A0 - 4 A11 + 2 A1 X + 4 A11 X^2 on [-2, 2]
    # convex with interior vertex: P = -4 + 4X^2, min at X=0
    v = sigma_n1_membership(q1(4, 0.0, 0.0, 1.0))
    assert v.witness == {"min_value": -4.0, "argmin_x": 0.0}
    # linear: P = 2X, min at the lower endpoint
    v = sigma_n1_membership(q1(4, 0.0, 1.0, 0.0))
    assert v.witness == {"min_value": -4.0, "argmin_x": -2.0}
    # concave: P = 4 - 4X^2, endpoints only, the lower one on the tie
    v = sigma_n1_membership(q1(4, 0.0, 0.0, -1.0))
    assert v.witness == {"min_value": -12.0, "argmin_x": -2.0}


def test_sigma_n1_min_matches_trust_region():
    """The closed form equals the ellipsoid (trust-region) minimum at d=1,
    for Sigma and for Sigma' (the ellipsoid route on A0 n/(n-1))."""
    rng = np.random.default_rng(5)
    for n in (2, 3, 7, 16, 64):
        a0, a1, a11 = rng.normal(size=(3, 64))
        for expanded in (False, True):
            vals, xs = sigma_n1_min(a0, a1, a11, n, expanded)
            for i in range(64):
                a0_i = a0[i] * n / (n - 1) if expanded else a0[i]
                ref, _ = ellipsoid_quadratic_min(q1(n, a0_i, a1[i], a11[i]))
                scale = max(1.0, abs(a0_i), abs(a1[i]), abs(a11[i])) * n
                assert abs(vals[i] - ref) <= 1e-10 * scale
                # the returned X attains the minimum
                p_at_x = (a0_i - n * a11[i] + math.sqrt(n) * a1[i] * xs[i]
                          + n * a11[i] * xs[i] ** 2)
                assert abs(p_at_x - vals[i]) <= 1e-12 * scale
                assert abs(xs[i]) <= math.sqrt(n)


def test_nesting_chain_random():
    """Sigma -> P -> Sigma' on random d=1 quadratics."""
    rng = np.random.default_rng(7)
    for _ in range(500):
        n = int(rng.integers(2, 12))
        q = q1(n, rng.normal(), rng.normal(), rng.normal())
        in_sigma = sigma_n1_membership(q).is_member
        in_p = p_n1_membership(q)[0].is_member
        in_prime = sigma_n1_membership(q, expanded=True).is_member
        if in_sigma:
            assert in_p
        if in_p:
            assert in_prime


def test_extreme_rays_of_p_in_sigma_prime():
    """Rays active on two adjacent facets belong to the expanded SOS cone."""
    for n in range(2, 10):
        for k in range(n):
            # quadratic vanishing at hypercube values u_k = n-2k and u_{k+1}
            r1, r2 = n - 2 * k, n - 2 * (k + 1)
            a11 = 1.0
            a1 = -(r1 + r2) * a11
            a0 = r1 * r2 * a11 + n * a11
            q = q1(n, a0, a1, a11)
            assert p_n1_membership(q)[0].is_member, (n, k)
            assert sigma_n1_membership(q, expanded=True).is_member, (n, k)


def test_sigma_strictly_inside_p():
    """The SOS cone is a proper subset: an explicit certificate at n=3."""
    q = q1(3, 2.0, 0.0, 1.0)
    assert p_n1_membership(q)[0].is_member
    assert not sigma_n1_membership(q).is_member


def test_limit_cone_d1():
    assert limit_cone_d1((1.0, 0.0, 0.0)).is_member
    assert limit_cone_d1((0.0, 0.0, 1.0)).status is Status.NON_MEMBER
    # det = (1-1)*1 - 1 = -1
    assert limit_cone_d1((1.0, 2.0, 1.0)).status is Status.NON_MEMBER


def _limit_cone_three_comparisons(b, tol):
    """Reference: the limit-cone rule as three separate comparisons,
    (member, boundary)."""
    b0, b1, b11 = (float(x) for x in b)
    scale = max(1.0, abs(b0), abs(b1), abs(b11))
    t = tol * scale
    m00 = b0 - b11
    det = m00 * b11 - 0.25 * b1 * b1
    if m00 >= -t and b11 >= -t and det >= -t * scale:
        return True, min(m00, b11, det / scale) < t
    return False, False


def test_limit_cone_d1_matches_three_comparison_rule():
    """margin_verdict on min(m00, b11, det/scale) decides as the three
    comparisons do: integer and half-integer ties (tol a power of two makes
    -t exact), signed zeros, wide scales and points on the PSD boundary."""
    rng = np.random.default_rng(7)
    corpus = [(b, tol) for tol in (1e-9, 0.25, 0.5)
              for b in itertools.product(np.arange(-3.0, 3.5, 0.5), repeat=3)]
    corpus += [(b, 1e-9) for b in itertools.product((0.0, -0.0, 1.0, -1.0), repeat=3)]
    corpus.append(((3e200, 1e200, 1e200), 1e-9))  # det = inf - inf = NaN
    for s in (1e-12, 1e-6, 1.0, 1e6, 1e150):
        corpus += [(tuple(b), 1e-9) for b in rng.normal(size=(1000, 3)) * s]
    for b0, b11 in rng.normal(size=(2000, 2)):
        b11 = abs(b11)
        b1 = 2.0 * math.sqrt(max((b0 - b11) * b11, 0.0)) * (1.0 + 1e-9 * rng.normal())
        corpus.append(((b0, b1, b11), 1e-9))
    for b, tol in corpus:
        v = limit_cone_d1(b, tol)
        assert (v.is_member, v.boundary) == _limit_cone_three_comparisons(b, tol), (b, tol)


def test_limit_cone_is_large_n_limit_of_sigma():
    """A strictly PSD rescaled point is accepted by sigma for large n."""
    b = (1.0, 0.5, 0.4)  # [[0.6, .25], [.25, .4]]: det = 0.1775 > 0
    assert limit_cone_d1(b).is_member
    from momentcert.core import coeffs_from_rescaled
    for n in (64, 256, 1024):
        assert sigma_n1_membership(coeffs_from_rescaled(b, n)).is_member
