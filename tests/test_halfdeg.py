import numpy as np
import pytest

from momentcert.core import Configuration, ProblemDims, SymmetricQuadratic, evaluate
from momentcert.halfdeg import (
    MultiplicityPattern,
    count_distinct_points,
    critical_polynomial,
    critical_r,
    enumerate_patterns,
    full_bruteforce_min,
    lagrange_residual,
    min_over_pattern,
    partition_count,
    recover_point,
    reduced_global_min,
)


def rand_q(rng, n, d, spread=1.0):
    return SymmetricQuadratic(ProblemDims(n, d), rng.normal(),
                              spread * rng.normal(size=d),
                              spread * rng.normal(size=d))


def test_pattern_validation():
    MultiplicityPattern((3, 2, 2))
    with pytest.raises(ValueError):
        MultiplicityPattern((2, 3))  # not nonincreasing
    with pytest.raises(ValueError):
        MultiplicityPattern((2, 0))


def test_enumerate_patterns_small():
    pats = {p.counts for p in enumerate_patterns(4, 1)}
    assert pats == {(4,), (3, 1), (2, 2)}  # at most 2 parts
    pats = {p.counts for p in enumerate_patterns(3, 2)}
    assert pats == {(3,), (2, 1), (1, 1, 1)}


def test_enumerate_matches_partition_count():
    for n in range(1, 13):
        for d in range(1, 4):
            listed = list(enumerate_patterns(n, d))
            assert len(listed) == partition_count(n, 2 * d)
            assert len({p.counts for p in listed}) == len(listed)
            assert all(p.n == n for p in listed)


def test_min_over_pattern_rejects_wrong_n():
    q = SymmetricQuadratic(ProblemDims(4, 2), 1.0, np.zeros(2), np.zeros(2))
    with pytest.raises(ValueError):
        min_over_pattern(q, MultiplicityPattern((3,)))


def test_min_over_pattern_d1_exact():
    # q = (0, s1, 0) on the hypercube: all-minus pattern gives -n
    n = 5
    q = SymmetricQuadratic(ProblemDims(n, 1), 0.0, [1.0], [0.0])
    val, cfg = min_over_pattern(q, MultiplicityPattern((n,)))
    assert val == -float(n)
    assert np.all(cfg.points == -1.0)


def test_reduced_min_known_values():
    # q = (0, 0, 1): ss >= -n with equality iff s = 0; attainable for even n
    q = SymmetricQuadratic(ProblemDims(4, 2), 0.0, np.zeros(2), [1.0, 0.0])
    val, cfg = reduced_global_min(q, restarts=16, seed=0)
    assert abs(val + 4.0) < 1e-7
    assert abs(evaluate(q, cfg) - val) < 1e-9
    # constant polynomial
    q = SymmetricQuadratic(ProblemDims(3, 2), 2.5, np.zeros(2), np.zeros(2))
    val, _ = reduced_global_min(q, restarts=4, seed=0)
    assert val == 2.5


def test_reduced_agrees_with_bruteforce():
    rng = np.random.default_rng(31)
    for trial in range(12):
        n, d = int(rng.integers(3, 6)), int(rng.integers(2, 4))
        q = rand_q(rng, n, d)
        val, cfg = reduced_global_min(q, restarts=24, seed=trial)
        bval, _ = full_bruteforce_min(q, samples=3000, seed=trial)
        assert val <= bval + 1e-6 * max(1.0, abs(bval))
        assert abs(evaluate(q, cfg) - val) < 1e-8 * max(1.0, abs(val))


def test_minimizer_has_few_distinct_points():
    rng = np.random.default_rng(32)
    for trial in range(15):
        n, d = int(rng.integers(3, 7)), int(rng.integers(2, 4))
        q = rand_q(rng, n, d, spread=1.5)
        _, cfg = reduced_global_min(q, restarts=24, seed=trial)
        assert count_distinct_points(cfg) <= 2 * d


def test_count_distinct_points_clusters():
    pts = np.array([[1.0, 0.0], [1.0, 1e-7], [0.0, 1.0]])
    c = Configuration(ProblemDims(3, 2), pts / np.linalg.norm(pts, axis=1, keepdims=True))
    assert count_distinct_points(c) == 2
    assert count_distinct_points(c, tol=1e-9) == 3


def test_lagrange_residual_small_at_minimizer():
    rng = np.random.default_rng(33)
    for trial in range(10):
        n, d = int(rng.integers(3, 6)), int(rng.integers(2, 4))
        q = rand_q(rng, n, d)
        _, cfg = reduced_global_min(q, restarts=24, seed=trial)
        assert lagrange_residual(q, cfg) < 1e-6 * max(1.0, q.coeff_scale() * n)


def test_critical_r_formula():
    q = SymmetricQuadratic(ProblemDims(3, 2), 0.0, [1.0, 2.0], [0.5, -1.0])
    pts = np.array([[1.0, 0.0], [0.0, 1.0], [0.6, 0.8]])
    c = Configuration(ProblemDims(3, 2), pts)
    r = critical_r(q, c)
    s = pts.sum(axis=0)
    assert np.allclose(r, [1.0 + 1.0 * s[0], 2.0 - 2.0 * s[1]])


def test_critical_polynomial_vanishes_at_minimizer():
    """Every first coordinate of a critical configuration is a root of the
    degree-2d polynomial built from R."""
    rng = np.random.default_rng(34)
    checked = 0
    for trial in range(20):
        n, d = int(rng.integers(3, 6)), int(rng.integers(2, 4))
        q = rand_q(rng, n, d)
        _, cfg = reduced_global_min(q, restarts=24, seed=trial)
        r = critical_r(q, cfg)
        rscale = float(np.max(np.abs(r)))
        if rscale == 0.0 or abs(r[0]) <= 1e-6 * rscale:
            continue  # degenerate branch, raises by contract
        data = critical_polynomial(q, r, seed=trial)
        assert data.poly_coeffs.shape == (2 * d + 1,)
        scale = float(np.max(np.abs(data.poly_coeffs)))
        for xi in cfg.points:
            pv = float(np.polynomial.polynomial.polyval(float(xi[0]),
                                                        data.poly_coeffs))
            assert abs(pv) < 1e-6 * scale
        checked += 1
    assert checked >= 10


def test_recover_point_round_trip():
    rng = np.random.default_rng(35)
    recovered = 0
    for trial in range(20):
        n, d = int(rng.integers(3, 6)), int(rng.integers(2, 4))
        q = rand_q(rng, n, d)
        _, cfg = reduced_global_min(q, restarts=24, seed=trial)
        r = critical_r(q, cfg)
        rscale = float(np.max(np.abs(r)))
        if rscale == 0.0 or abs(r[0]) <= 1e-6 * rscale:
            continue
        for xi in cfg.points:
            cands = recover_point(q, r, float(xi[0]), seed=trial)
            err = min(float(np.max(np.abs(c - xi))) for c in cands)
            assert err < 1e-5
        recovered += 1
    assert recovered >= 10


def test_critical_polynomial_degenerate_branch_raises():
    q = SymmetricQuadratic(ProblemDims(3, 2), 0.0, [0.0, 1.0], [0.0, 0.0])
    with pytest.raises(ValueError):
        critical_polynomial(q, np.array([0.0, 1.0]))


def test_bruteforce_never_beats_reduced_d1():
    """At d=1 the pattern search and the brute-force facet minimum are both
    exact, so they agree; at n=16 with A1 < 0 the minimum sits at k = 0."""
    rng = np.random.default_rng(36)
    cases = [rand_q(rng, int(rng.integers(3, 9)), 1) for _ in range(20)]
    cases.append(SymmetricQuadratic(ProblemDims(16, 1), 0.0, [-1.0], [0.0]))
    for trial, q in enumerate(cases):
        val, _ = reduced_global_min(q, seed=trial)
        bval, bcfg = full_bruteforce_min(q, samples=500, seed=trial)
        assert abs(val - bval) <= 1e-12
        assert abs(evaluate(q, bcfg) - bval) <= 1e-12
    assert bval == -16.0  # the n=16 case: every point at +1
