import contextlib
import io
import itertools
import json
import math
import tracemalloc

import numpy as np
from reference_forms import (
    c_n1_residuals,
    coeffs_from_rescaled,
    facet_residuals,
    limit_cone_d1,
    sigma_n1_membership,
    sigma_n1_min,
)

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
    c_n1_rows,
    facet_polynomial,
    hypercube_point,
    p_n1_membership,
    p_n1_rows,
)
from momentcert.sos_cone import ellipsoid_quadratic_min


def q1(n, a0, a1, a11):
    return SymmetricQuadratic(ProblemDims(n, 1), a0, [a1], [a11])


def test_p_membership_trivial():
    v = p_n1_membership(q1(5, 1.0, 0.0, 0.0))
    assert v.status is Status.MEMBER


def test_p_membership_negative_square():
    # -s11 is negative at the all-ones vertex: residual -(n^2 - n)
    v = p_n1_membership(q1(2, 0.0, 0.0, -1.0))
    assert v.status is Status.NON_MEMBER
    assert v.witness["residual"] == -(4.0 - 2.0)


def test_p_membership_derived_minimum():
    # q = (n, 0, -1): residual 2n - (n-2k)^2, min at k=0 equals -3 for n=3
    v = p_n1_membership(q1(3, 3.0, 0.0, -1.0))
    assert v.status is Status.NON_MEMBER
    assert v.witness["residual"] == -3.0 and v.witness["k"] == 0


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
        in_p = p_n1_membership(q).is_member
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
            assert p_n1_membership(q).is_member, (n, k)
            assert sigma_n1_membership(q, expanded=True).is_member, (n, k)


def test_sigma_strictly_inside_p():
    """The SOS cone is a proper subset: an explicit certificate at n=3."""
    q = q1(3, 2.0, 0.0, 1.0)
    assert p_n1_membership(q).is_member
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
    for n in (64, 256, 1024):
        assert sigma_n1_membership(coeffs_from_rescaled(b, n)).is_member


EPS = np.finfo(float).eps


def _facet_rows(rng, size: int, n, cone: str):
    """(x0, x1, x11, exact) rows for the facet kernel of ``cone`` (P or C):
    x11 (or m0) down to 1e-18, the parabola's vertex placed on or near the
    grid, quarter-grid values (exact arithmetic, so ties are exact), x1 = 0,
    and x11 < 0; exact marks the quarter-grid rows."""
    x0, x1, x11 = rng.normal(size=(3, size)) * 10.0 ** rng.uniform(-18, 3, size=(3, size))
    kind = np.arange(size) % 5
    kv = rng.uniform(-2.0, np.asarray(n, dtype=float) + 2.0, size)
    x11[kind == 1] = 10.0 ** rng.uniform(-18, 0, size)[kind == 1]
    # the vertex at k = kv: u = -A1/(2 A11) for P, v = m1/m0 for C
    x1[kind == 1] = (x11 * (-2.0 * (n - 2.0 * kv) if cone == "P" else n - 1 - 2.0 * kv))[kind == 1]
    quarter = rng.integers(-8, 9, size=(3, size)) / 4.0
    exact = kind == 2
    x0[exact], x1[exact], x11[exact] = quarter[:, exact]
    x1[kind == 3] = 0.0
    x11[kind == 4] = -np.abs(x11[kind == 4])
    return x0, x1, x11, exact


def _check_first_min(k, r, ref, bound, top, exact):
    """``(k, r)`` against the full (n+1, B) reference ``ref`` of facets
    0..n, whose parabola family is facets 0..top: r is, to the bit, the
    reference residual at facet k and at most ``bound`` above the reference
    minimum.  And k is ``argmin`` wherever rounding cannot reorder facets:
    on exact rows, and on rows where at most two facets of the family come
    within the bound of the minimum, and those are adjacent or the family's
    two ends (the bound is more than twice a residual's rounding error).
    Returns the count of those rows."""
    cols = np.arange(ref.shape[1])
    low = ref.min(axis=0)
    assert np.array_equal(ref[k, cols].view(np.int64), r.view(np.int64))
    assert (r - low <= bound).all()
    near = ref[:top + 1] <= low + bound
    count, first, last = near.sum(axis=0), near.argmax(axis=0), top - near[::-1].argmax(axis=0)
    clear = exact | (count <= 1) | ((count == 2) & ((last - first == 1) | (last - first == top)))
    assert np.array_equal(k[clear], ref.argmin(axis=0)[clear])
    return clear.sum()


def test_facet_kernels_pick_the_full_arrays_first_minimal_facet():
    """p_n1_rows and c_n1_rows against every facet of their cone, n from 2 to
    200 and near 10^5, B = 0, 1 and many.  The bound is 8 ulps of the
    largest possible residual: where a parabola is that flat across more
    facets, the array's argmin is decided by rounding, and the kernel keeps
    a facet next to the exact vertex."""
    rng = np.random.default_rng(25)
    clear = total = 0
    cases = [(n, 40) for n in range(2, 201)] + [(n, b) for n in (99_998, 100_000, 100_003)
                                                for b in (0, 1, 12)]
    for n, size in cases:
        a0, a1, a11, exact = _facet_rows(rng, size, n, "P")
        k, r, _, _ = p_n1_rows(a0, a1, a11, n)
        bound = 8 * EPS * (np.abs(a0) + n * np.abs(a1) + n * n * np.abs(a11))
        clear += _check_first_min(k, r, facet_residuals(a0, a1, a11, n), bound, n, exact)
        m0, m1, m11, exact = _facet_rows(rng, size, n, "C")
        k, r, _, _ = c_n1_rows(m0, m1, m11, n)
        bound = 8 * EPS * (n * n * np.abs(m0) + 2 * n * np.abs(m1) + np.abs(m11))
        clear += _check_first_min(k, r, c_n1_residuals(m0, m1, m11, n), bound, n - 1, exact)
        total += 2 * size
    assert clear > 0.95 * total


def test_facet_kernels_take_a_mixed_n_column():
    """One call on a column of mixed n gives, to the bit, what one call per n
    gives."""
    rng = np.random.default_rng(26)
    n = np.concatenate([rng.integers(2, 201, 300), [99_999, 100_000, 2, 3]])
    for cone, kernel in (("P", p_n1_rows), ("C", c_n1_rows)):
        x0, x1, x11, _ = _facet_rows(rng, n.size, n, cone)
        for nn in (n, n.astype(float)):
            mixed = kernel(x0, x1, x11, nn)
            for one in np.unique(n).tolist():
                sel = np.flatnonzero(n == one)
                for got, want in zip(mixed, kernel(x0[sel], x1[sel], x11[sel], one), strict=True):
                    assert got[sel].tobytes() == want.tobytes(), (kernel.__name__, one)


def test_c_n1_rows_end_facet_wins_only_when_strictly_lower():
    """At n = 3, m = (1, 0, m11): facets 0..2 give 2 + v² + m11 at v = 2, 0,
    -2, the end facet 6 - m11.  At m11 = 2 the end facet ties facet 1 and
    loses, as in argmin; at m11 = 2.5 it is strictly lower and wins."""
    k, r, member, boundary = c_n1_rows([1.0, 1.0], [0.0, 0.0], [2.0, 2.5], 3)
    assert k.tolist() == [1, 3] and r.tolist() == [4.0, 3.5]
    assert member.all() and not boundary.any()
    for m11 in (2.0, 2.5):
        ref = c_n1_residuals(1.0, 0.0, m11, 3)
        assert c_n1_membership(MomentVector(ProblemDims(3, 1), 1.0, [0.0], [m11])).witness == {
            "min_k": int(np.argmin(ref)), "min_residual": ref.min()}


def test_d1_tests_use_o1_memory_per_row():
    """No d=1 path allocates per facet: the traced peak of an exact-d1
    check-poly call at n = 10^6, a P slice at n = 10^5 (121 grid points, then
    the bisection), and c_n1_membership at n = 10^6 each stays under 2 MiB.
    (All n+1 facet residuals of one row at n = 10^6 take 7.6 MiB, and the
    slice's 121 rows 92 MiB.)"""
    from momentcert import cli

    plane = json.dumps({"base": [1.0, 0.0, 0.0], "dirs": [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
                        "lo": [-2.0, -2.0], "hi": [2.0, 2.0]})

    def main(*argv):
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(list(argv))

    calls = [
        lambda n: main("check-poly", "--route", "exact-d1", "--n", str(n), "--d", "1",
                       "--a0", "1.0", "--a", "-0.5", "--aa", "0.25"),
        lambda n: main("slice", "--cone", "P", "--plane", plane, "--grid", "11", "--n",
                       str(n // 10), "--d", "1"),
        lambda n: c_n1_membership(MomentVector(ProblemDims(n, 1), 1.0, [0.5], [-0.25])),
    ]
    for call in calls:
        call(40)  # parser, caches and imports outside the trace
        tracemalloc.start()
        try:
            call(10 ** 6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2 ** 20, peak
