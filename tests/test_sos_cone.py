import math
from dataclasses import replace

import numpy as np
import pytest
from reference_forms import (
    config_to_ellipsoid,
    pq_evaluate,
    sigma_n1_membership,
    sigma_prime_membership,
)

from momentcert.core import (
    Configuration,
    ProblemDims,
    Status,
    SymmetricQuadratic,
    evaluate,
)
from momentcert.exact_d1 import p_n1_membership
from momentcert.sos_cone import (
    EllipsoidPoint,
    SosWitness,
    ellipsoid_quadratic_min,
    sigma_membership_lmi,
    sigma_rows,
    sos_witness,
    verify_sos_witness,
)


def rand_config(rng, n, d):
    pts = rng.normal(size=(n, d))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    pts *= rng.uniform(size=(n, 1)) ** (1.0 / d)
    return Configuration(ProblemDims(n, d), pts)


def test_pq_evaluate_basic():
    dims = ProblemDims(5, 2)
    q = SymmetricQuadratic(dims, 1.0, np.zeros(2), np.zeros(2))
    assert pq_evaluate(q, EllipsoidPoint([0.3, 0.1], [0.2, 0.0])) == 1.0
    q = SymmetricQuadratic(dims, 0.0, np.zeros(2), [1.0, 0.0])
    assert pq_evaluate(q, EllipsoidPoint([0.0, 0.0], [1.0, 0.0])) == -5.0


def test_pq_matches_evaluate_through_change_of_variables():
    rng = np.random.default_rng(2)
    for _ in range(200):
        n, d = int(rng.integers(2, 8)), int(rng.integers(1, 4))
        c = rand_config(rng, n, d)
        q = SymmetricQuadratic(ProblemDims(n, d), rng.normal(),
                               rng.normal(size=d), rng.normal(size=d))
        pt = config_to_ellipsoid(c)
        assert pt.check_inside(n, tol=1e-9)
        assert abs(pq_evaluate(q, pt) - evaluate(q, c)) < 1e-9 * max(1.0, n * n)


def test_ellipsoid_min_linear_and_quadratic():
    dims = ProblemDims(4, 1)
    val, pt = ellipsoid_quadratic_min(SymmetricQuadratic(dims, 0.0, [1.0], [0.0]))
    assert abs(val + 4.0) < 1e-9 and abs(pt.x[0] + 2.0) < 1e-7
    val, pt = ellipsoid_quadratic_min(SymmetricQuadratic(dims, 0.0, [0.0], [1.0]))
    assert abs(val + 4.0) < 1e-9 and abs(abs(pt.y[0]) - 1.0) < 1e-9
    val, _ = ellipsoid_quadratic_min(SymmetricQuadratic(dims, 1.0, [0.0], [0.0]))
    assert val == 1.0


def test_ellipsoid_min_attained_inside_domain():
    rng = np.random.default_rng(9)
    for _ in range(300):
        n, d = int(rng.integers(2, 9)), int(rng.integers(1, 5))
        q = SymmetricQuadratic(ProblemDims(n, d), rng.normal(),
                               rng.normal(size=d), rng.normal(size=d))
        val, pt = ellipsoid_quadratic_min(q)
        assert pt.check_inside(n, tol=1e-9)
        assert pq_evaluate(q, pt) <= val + 1e-8 * max(1.0, abs(val))


def test_lmi_trivial_cases():
    dims = ProblemDims(4, 1)
    v, feas = sigma_membership_lmi(SymmetricQuadratic(dims, 1.0, [0.0], [0.0]))
    assert v.is_member
    v, _ = sigma_membership_lmi(SymmetricQuadratic(dims, 0.0, [0.0], [1.0]))
    assert v.status is Status.NON_MEMBER  # needs c >= n but c <= A0 = 0
    v, feas = sigma_membership_lmi(SymmetricQuadratic(dims, 4.0, [0.0], [1.0]))
    assert v.is_member and abs(feas.c - 4.0) < 1e-9
    val, _ = ellipsoid_quadratic_min(SymmetricQuadratic(dims, 4.0, [0.0], [1.0]))
    assert abs(val) < 1e-9


def test_route_equivalence_random():
    rng = np.random.default_rng(4)
    for _ in range(400):
        n, d = int(rng.integers(2, 11)), int(rng.integers(1, 5))
        q = SymmetricQuadratic(ProblemDims(n, d), rng.normal(),
                               rng.normal(size=d), rng.normal(size=d))
        v, _ = sigma_membership_lmi(q)
        val, _ = ellipsoid_quadratic_min(q)
        t = 1e-8 * max(1.0, q.coeff_scale() * n * n)
        if v.is_member:
            assert val >= -t
        else:
            assert val <= t


def test_lmi_agrees_with_d1_interval_test():
    rng = np.random.default_rng(6)
    for _ in range(500):
        n = int(rng.integers(2, 15))
        q = SymmetricQuadratic(ProblemDims(n, 1), rng.normal(),
                               rng.normal(size=1), rng.normal(size=1))
        assert sigma_membership_lmi(q)[0].is_member == sigma_n1_membership(q).is_member


def test_sigma_prime_contains_sigma_and_p():
    rng = np.random.default_rng(8)
    for _ in range(300):
        n = int(rng.integers(2, 10))
        q = SymmetricQuadratic(ProblemDims(n, 1), rng.normal(),
                               rng.normal(size=1), rng.normal(size=1))
        if sigma_membership_lmi(q)[0].is_member:
            assert sigma_prime_membership(q).is_member
        if p_n1_membership(q).is_member:
            assert sigma_prime_membership(q).is_member
    assert sigma_prime_membership(
        SymmetricQuadratic(ProblemDims(4, 1), 0.0, [0.0], [1.0])).status is Status.NON_MEMBER


def test_schur_slack_concavity():
    rng = np.random.default_rng(10)
    from momentcert.sos_cone import _schur_slack
    for _ in range(100):
        n, d = int(rng.integers(2, 8)), int(rng.integers(1, 4))
        a0 = abs(rng.normal()) * 5
        a = list(rng.normal(size=d))
        aa = list(rng.normal(size=d))
        c_lo = max(0.0, n * max(aa), -n * (n - 1) * min(aa))
        if c_lo >= a0:
            continue
        c1 = c_lo + 0.3 * (a0 - c_lo)
        c2 = c_lo + 0.9 * (a0 - c_lo)
        f1 = _schur_slack(a0, a, aa, n, c1)
        f2 = _schur_slack(a0, a, aa, n, c2)
        fm = _schur_slack(a0, a, aa, n, 0.5 * (c1 + c2))
        assert fm >= 0.5 * (f1 + f2) - 1e-9 * max(1.0, abs(fm))


def test_sos_witness_constant_polynomial():
    dims = ProblemDims(4, 2)
    q = SymmetricQuadratic(dims, 1.0, np.zeros(2), np.zeros(2))
    w = sos_witness(q, 0.0)
    assert w.g[0, 0] == 1.0 and np.allclose(w.h, 0.0) and w.c == 0.0
    assert verify_sos_witness(w, q) < 1e-12


def test_sos_witness_scaled_constant():
    # q = (c n, 0, 0) with LMI parameter c_lmi = c n
    n, d = 5, 3
    c = 0.7
    q = SymmetricQuadratic(ProblemDims(n, d), c * n, np.zeros(d), np.zeros(d))
    w = sos_witness(q, c * n)
    assert np.allclose(np.diag(w.g)[1:], c / n)
    assert verify_sos_witness(w, q) < 1e-9


def test_sos_witness_random_members():
    rng = np.random.default_rng(12)
    found = 0
    while found < 60:
        n, d = int(rng.integers(2, 9)), int(rng.integers(1, 4))
        q = SymmetricQuadratic(ProblemDims(n, d), abs(rng.normal()) * 3,
                               0.3 * rng.normal(size=d), 0.3 * rng.normal(size=d))
        v, feas = sigma_membership_lmi(q)
        if not v.is_member:
            continue
        found += 1
        w = sos_witness(q, feas.c)
        res = verify_sos_witness(w, q)
        assert res < 1e-8 * max(1.0, q.coeff_scale() * n * n)


def test_verify_sos_witness_rejects_non_certificates():
    # Q(0) = -1, yet the polynomial identity holds for c = 0: G has the
    # eigenvalue -1.5 and h the entry -0.25, so the witness must be rejected
    q = SymmetricQuadratic(ProblemDims(4, 2), -1.0, [0.5, 0.0], [1.0, -2.0])
    assert verify_sos_witness(sos_witness(q, 0.0), q) == math.inf
    # a valid witness with one part corrupted at a time
    q = SymmetricQuadratic(ProblemDims(5, 2), 4.0, [0.2, -0.1], [0.3, 0.1])
    v, feas = sigma_membership_lmi(q)
    w = sos_witness(q, feas.c)
    assert v.is_member and verify_sos_witness(w, q) < 1e-9
    bad_g = w.g.copy()
    bad_g[1, 1] = -1.0
    for corrupt in (replace(w, g=bad_g), replace(w, h=w.h - 1.0), replace(w, c=-1.0)):
        assert verify_sos_witness(corrupt, q) == math.inf


def test_verify_sos_witness_returns_the_coefficient_mismatch():
    # an exact certificate of q = 5 + 0.5 (s_1 + s_2) at n = 4:
    # g00 + 4c = 5, 2 G0α = 0.5, Gαα - h_α = 0, Gαα + 3 h_α = c
    q = SymmetricQuadratic(ProblemDims(4, 2), 5.0, [0.5, 0.5], [0.0, 0.0])
    g = np.array([[1.0, 0.25, 0.25], [0.25, 0.25, 0.0], [0.25, 0.0, 0.25]])
    w = SosWitness(g, np.array([0.25, 0.25]), 1.0)
    assert verify_sos_witness(w, q) == 0.0
    # c off by 0.5: the constant is off by 4 * 0.5, each p_α coefficient by 0.5
    assert verify_sos_witness(replace(w, c=1.5), q) == 2.0
    # G_12 = 0.125 (G stays PSD) adds 0.25 s_1 s_2, a term q lacks
    g12 = g + 0.125 * np.array([[0, 0, 0], [0, 0, 1], [0, 1, 0]])
    assert verify_sos_witness(replace(w, g=g12), q) == 0.25


@pytest.mark.parametrize("a1", [1e-17, 1e-30])
def test_lmi_c_is_never_on_a_pole_of_the_schur_slack(a1):
    """||g|| = 5 A_1 is below one ulp of lam_lo = 40, so the secular root is
    c_lo = 20 to working precision, where (n-1) A_11 + c/n = 0 with A_1 ≠ 0:
    a pole of f.  c is the next float up, where f is about A0 - c = 10."""
    q = SymmetricQuadratic(ProblemDims(5, 2), 30.0, [a1, 0.0], [-1.0, 0.5])
    v, feas = sigma_membership_lmi(q)
    assert v.is_member and not v.boundary
    assert feas.c == math.nextafter(20.0, math.inf) and abs(feas.marginal - 10.0) < 1e-12
    assert verify_sos_witness(sos_witness(q, feas.c), q) < 1e-12


def test_verify_sos_witness_rejects_infeasible_c():
    """sos_witness builds a witness for any c; the verifier rejects it."""
    q = SymmetricQuadratic(ProblemDims(4, 1), 0.1, [0.0], [1.0])
    assert verify_sos_witness(sos_witness(q, 4.0), q) == math.inf  # g0 = 0.1 - 4 < 0


def test_member_nonnegative_on_configurations():
    rng = np.random.default_rng(14)
    accepted = 0
    while accepted < 30:
        n, d = int(rng.integers(2, 7)), int(rng.integers(1, 4))
        q = SymmetricQuadratic(ProblemDims(n, d), abs(rng.normal()) * 4,
                               0.5 * rng.normal(size=d), 0.5 * rng.normal(size=d))
        if not sigma_membership_lmi(q)[0].is_member:
            continue
        accepted += 1
        t = 1e-9 * max(1.0, q.coeff_scale() * n * n)
        for j in range(200):
            assert evaluate(q, rand_config(rng, n, d)) >= -t


@pytest.mark.xfail(strict=True, reason="secular rows whose root is the bracket end "
                   "lam_lo + ||g|| land a few ulps outside the ellipsoid")
def test_ellipsoid_points_lie_in_the_ellipsoid():
    """The argmin of each one-row call satisfies ||Y||^2 + ||X||^2/n <= 1 in
    floats.  Rows 3036 and 803 of the benchmark's seed-1 poly-0.json (n = 16,
    d = 1) are 1.1e-12 and 2.9e-13 outside."""
    rows = [(201.33952580099026, [-0.002870030215786712], [-0.6105213140167314]),
            (626.6590196174164, [0.021737253668081644], [-1.9593555919897327])]
    n = 16
    outside = []
    for a0, a, aa in rows:
        _, x, y = sigma_rows(np.array([a0]), np.array([a]), np.array([aa]), n)[:3]
        if float((y * y).sum() + (x * x).sum() / n) > 1.0:
            outside.append(a0)
    assert not outside
