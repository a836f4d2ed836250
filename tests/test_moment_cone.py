import numpy as np
import pytest
from reference_forms import (
    RescaledMomentVector,
    expand_inequalities,
    limit_cone_d1,
    limit_cone_membership,
    pattern_of_index,
    ray_crossing,
    sigma_prime_membership,
)

from momentcert.core import (
    DEFAULT_TOL,
    MomentVector,
    ProblemDims,
    Status,
    margin_verdict,
    moment_tolerance,
    pair,
)
from momentcert.exact_d1 import c_n1_membership
from momentcert.moment_cone import (
    NECESSARY,
    SUFFICIENT,
    _witness_diagonal,
    classify,
    classify_rows,
    lmi_dual_feasibility,
    max_form_residual_batch,
    necessary_condition,
    separating_polynomial,
    sufficient_condition,
)
from momentcert.sos_cone import sigma_membership_lmi


def mv(n, d, z0, z, zz):
    return MomentVector(ProblemDims(n, d), z0, z, zz)


def test_necessary_trivial_cases():
    ok, _ = necessary_condition(mv(4, 2, 1.0, [0, 0], [0, 0]))
    assert ok
    ok, _ = necessary_condition(mv(4, 1, 1.0, [8.0], [0.0]))
    assert not ok  # |z_1| = 2n infeasible for unit mass


def test_necessary_boundary_atom():
    # both points at +1: max{2/1, 4/2} = 2 equals 1 + 2/2
    m = mv(2, 1, 1.0, [2.0], [2.0])
    ok, report = necessary_condition(m)
    assert ok and abs(report.max_form_residual) < 1e-12


def test_sufficient_cases():
    n = 4
    ok, _ = sufficient_condition(mv(n, 1, 1.0, [0.0], [0.0]))
    assert ok
    ok, _ = sufficient_condition(mv(2, 1, 1.0, [2.0], [2.0]))
    assert not ok  # boundary member is not captured by the sufficient side
    # z_aa = n-1, d=1, n=4: 0.75 <= 9/16 + 9/16
    ok, _ = sufficient_condition(mv(4, 1, 1.0, [0.0], [3.0]))
    assert ok


def test_zero_vector_is_member():
    m = mv(4, 2, 0.0, [0, 0], [0, 0])
    assert necessary_condition(m)[0] and sufficient_condition(m)[0]
    assert classify(m).is_member


def test_z0_nonpositive_rejected():
    assert not necessary_condition(mv(4, 1, 0.0, [1.0], [0.0]))[0]
    assert classify(mv(4, 1, -1.0, [0.0], [0.0])).status is Status.NON_MEMBER


def test_classify_three_way():
    assert classify(mv(4, 1, 1.0, [0.0], [0.0])).is_member
    assert classify(mv(4, 1, 1.0, [8.0], [0.0])).status is Status.NON_MEMBER
    assert classify(mv(2, 1, 1.0, [2.0], [2.0])).status is Status.INDETERMINATE


def test_boundary_is_read_from_the_sufficient_residual():
    """boundary is margin_verdict on the sufficient residual that decides
    Member, not on the witness corner x0 = residual / z0e: with z0e far
    from 1 the two bands differ."""
    rows = []
    for n in (2, 4, 16):
        for d in (1, 3):
            for z0 in (0.01, 0.1, 10.0, 100.0):
                z0e = z0 * (n - 1) / n
                # z = 0 and zz > 0: residual = z0e² - z0e Σzz / (n(n-1))
                scale = max(1.0, z0, z0e * n * (n - 1) / d)
                t = moment_tolerance(DEFAULT_TOL, scale)
                for k in (-2.0, -1.0, -0.5, 0.0, 0.5, 0.99, 2.0, 50.0, 200.0):
                    total = (z0e * z0e - k * t) * n * (n - 1) / z0e
                    rows.append((n, d, z0, [total / d] * d))
    for d in (1, 3):
        sel = [r for r in rows if r[1] == d]
        n = np.array([r[0] for r in sel], dtype=float)
        z0 = np.array([r[2] for r in sel])
        z, zz = np.zeros((len(sel), d)), np.array([r[3] for r in sel])
        got = classify_rows(z0, z, zz, n)
        t = moment_tolerance(DEFAULT_TOL, got.scale)
        member = got.status == 0
        assert np.array_equal(member, got.suf.ok)
        want = member & margin_verdict(got.suf.residual, t)[1]
        assert np.array_equal(got.boundary, want)
        assert want.any() and (member & ~want).any() and (~member).any()
        corner = member & margin_verdict(_witness_diagonal(got.suf.z0e, z, zz, n)[1], t)[1]
        assert (corner != want).any()


@pytest.mark.xfail(strict=True, reason="the moment tolerance tol·max|zz|² is above 1 "
                   "from n = 256 and swallows the necessary residual of about -1")
@pytest.mark.parametrize("n", [256, 512])
def test_balanced_dicke_moments_not_member(n):
    """The balanced Dicke moments (z = 0, zz = (n²/2, n²/2, -n)), which the
    spin witness reports as entangled, are outside C."""
    m = mv(n, 3, 1.0, [0.0, 0.0, 0.0], [n * n / 2, n * n / 2, -n])
    assert not necessary_condition(m)[0]
    assert classify(m).status is Status.NON_MEMBER


def test_lmi_feasibility_hand_check():
    # n=2 d=1 boundary atom: x11 = max{2, 2, 0} = 2, x0 = 1 + 1 - 2 = 0
    verdict, w = lmi_dual_feasibility(mv(2, 1, 1.0, [2.0], [2.0]), NECESSARY)
    assert verdict.is_member and verdict.boundary
    assert abs(w.xdiag[0] - 2.0) < 1e-12 and abs(w.x0) < 1e-12


def test_lmi_trivial_member():
    verdict, w = lmi_dual_feasibility(mv(3, 2, 1.0, [0, 0], [0, 0]), NECESSARY)
    assert verdict.is_member
    assert np.allclose(w.xdiag, 0.0) and w.x0 == 1.0
    assert float(np.linalg.eigvalsh(w.matrix)[0]) >= -1e-12


def test_lmi_equals_closed_form_both_sides():
    """The Schur-complement elimination is exact: the closed-form max
    inequality and the explicit witness matrix always agree."""
    rng = np.random.default_rng(21)
    for _ in range(2000):
        n, d = int(rng.integers(2, 33)), int(rng.integers(1, 5))
        m = mv(n, d, abs(rng.normal()) + 1e-3,
               n * rng.normal(size=d) * 0.5, n * rng.normal(size=d) * 0.5)
        for side, cond in ((NECESSARY, necessary_condition),
                           (SUFFICIENT, sufficient_condition)):
            ok, report = cond(m)
            verdict, w = lmi_dual_feasibility(m, side)
            assert ok == verdict.is_member, (side, m)
            # closed-form residual equals z0_eff * x0 algebraically
            z0e = m.z0 if side == NECESSARY else m.z0 * (n - 1) / n
            assert abs(report.max_form_residual - z0e * w.x0) < 1e-9 * max(
                1.0, m.moment_scale() ** 2)


def test_expand_inequalities_structure():
    rng = np.random.default_rng(22)
    for _ in range(200):
        n, d = int(rng.integers(2, 10)), int(rng.integers(1, 5))
        m = mv(n, d, abs(rng.normal()) + 0.1, rng.normal(size=d), rng.normal(size=d))
        res, _, _ = expand_inequalities(m, NECESSARY)
        assert res.size == 2 ** d
        _, report = necessary_condition(m)
        assert abs(res.min() - report.max_form_residual) < 1e-12 * max(
            1.0, m.moment_scale() ** 2)
        worst = int(np.argmin(res))
        assert pattern_of_index(worst, d) == report.worst_pattern


def test_expand_inequalities_d_guard():
    m = mv(2, 21, 1.0, np.zeros(21), np.zeros(21))
    with pytest.raises(ValueError):
        expand_inequalities(m)


def test_separating_polynomial_is_certificate():
    rng = np.random.default_rng(23)
    found = 0
    while found < 200:
        n, d = int(rng.integers(2, 17)), int(rng.integers(1, 5))
        m = mv(n, d, rng.normal(), n * rng.normal(size=d), n * rng.normal(size=d))
        ok, _ = necessary_condition(m)
        if ok:
            continue
        found += 1
        q = separating_polynomial(m)
        assert pair(q, m) < 0.0
        assert sigma_membership_lmi(q)[0].is_member
        # q also certifies against any sufficient-side member (duality)
        assert sigma_prime_membership(q).is_member


def test_separating_polynomial_tangent_example():
    # worst pattern is z1^2/n = 16 > z0^2 + z0 z11 / n = 1; the tangent
    # linearization of z1^2/(n z0) at (z0, z1) gives a valid certificate
    m = mv(4, 1, 1.0, [8.0], [0.0])
    q = separating_polynomial(m)
    assert pair(q, m) == pytest.approx(-15.0)
    assert q.a0 == pytest.approx(17.0) and float(q.a[0]) == pytest.approx(-4.0)


def test_classify_consistent_with_d1_facets():
    rng = np.random.default_rng(24)
    for _ in range(3000):
        n = int(rng.integers(2, 12))
        m = mv(n, 1, abs(rng.normal()) + 1e-2,
               [n * rng.normal() * 0.5], [n * rng.normal() * 0.5])
        v = classify(m)
        exact = c_n1_membership(m)
        if v.is_member:
            assert exact.is_member
        if v.status is Status.NON_MEMBER:
            assert exact.status is Status.NON_MEMBER


def test_sufficient_members_pair_with_sigma_prime():
    rng = np.random.default_rng(25)
    n, d = 5, 2
    qs = []
    while len(qs) < 50:
        q_try = np.array([abs(rng.normal()) * 3, *(0.4 * rng.normal(size=2 * d))])
        from momentcert.core import SymmetricQuadratic
        q = SymmetricQuadratic(ProblemDims(n, d), q_try[0], q_try[1:1 + d], q_try[1 + d:])
        if sigma_prime_membership(q).is_member:
            qs.append(q)
    members = 0
    while members < 50:
        m = mv(n, d, abs(rng.normal()) + 0.1, rng.normal(size=d), rng.normal(size=d))
        if not sufficient_condition(m)[0]:
            continue
        members += 1
        for q in qs:
            assert pair(q, m) >= -1e-9 * max(1.0, m.moment_scale() * n * n)


def test_limit_cone_membership():
    assert limit_cone_membership(RescaledMomentVector(1.0, [0.0], [0.0])).is_member
    v = limit_cone_membership(RescaledMomentVector(1.0, [2.0], [1.0]))
    assert v.status is Status.NON_MEMBER  # max{1, 4} = 4 > 1 + 1


def test_limit_cone_matches_psd_characterization_d1():
    rng = np.random.default_rng(26)
    for _ in range(500):
        z0 = abs(rng.normal()) + 1e-3
        rm = RescaledMomentVector(z0, rng.normal(size=1), rng.normal(size=1))
        psd = limit_cone_d1((2 * z0 + float(rm.zzt[0]), 2 * float(rm.zt[0]), z0))
        # [[z0+zt11, zt1],[zt1, z0]] PSD <=> limit inequalities
        assert limit_cone_membership(rm).is_member == psd.is_member


def test_necessary_implied_by_sufficient():
    rng = np.random.default_rng(27)
    for _ in range(2000):
        n, d = int(rng.integers(2, 20)), int(rng.integers(1, 5))
        m = mv(n, d, abs(rng.normal()) + 1e-3, rng.normal(size=d), rng.normal(size=d))
        if sufficient_condition(m)[0]:
            assert necessary_condition(m)[0]


def test_batch_residual_matches_scalar():
    rng = np.random.default_rng(28)
    n, d = 6, 3
    z0 = np.abs(rng.normal(size=100)) + 0.1
    z = rng.normal(size=(100, d))
    zz = rng.normal(size=(100, d))
    for side in (NECESSARY, SUFFICIENT):
        batch = max_form_residual_batch(z0, z, zz, n, side)
        for i in range(100):
            m = mv(n, d, z0[i], z[i], zz[i])
            cond = necessary_condition if side == NECESSARY else sufficient_condition
            _, report = cond(m)
            assert abs(batch[i] - report.max_form_residual) < 1e-12


def test_ray_crossing_monotone_gap():
    rng = np.random.default_rng(29)
    for _ in range(20):
        rm = RescaledMomentVector(1.0, rng.normal(size=2), rng.normal(size=2))
        t_nec = ray_crossing(rm, 16, NECESSARY)
        t_suf = ray_crossing(rm, 16, SUFFICIENT)
        assert t_suf <= t_nec + 1e-9
