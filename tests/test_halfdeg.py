import json
import time

import numpy as np
import pytest

from momentcert.cli import main
from momentcert.core import Configuration, ProblemDims, SymmetricQuadratic, evaluate
from momentcert.halfdeg import (
    MAX_PATTERNS,
    MultiplicityPattern,
    _newton_descent,
    _normalize_rows,
    _objective,
    check_pattern_budget,
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


def _scale(q):
    return max(1.0, q.coeff_scale()) * q.dims.n ** 2


def test_one_point_pattern_matches_angle_grid():
    """Pattern (n,) at d=2 puts every point at one unit vector y, so the
    minimum is that of a0 + n a.y + (n^2 - n) aa.y^2 over the circle."""
    rng = np.random.default_rng(37)
    cases = [SymmetricQuadratic(ProblemDims(8, 2), 0.3, [0.5, -1.2], [0.4, -0.9]),
             SymmetricQuadratic(ProblemDims(5, 2), -1.0, [2.0, 0.1], [-1.5, 0.2])]
    cases += [rand_q(rng, int(rng.integers(3, 9)), 2) for _ in range(4)]
    theta = np.linspace(0.0, 2.0 * np.pi, 1 << 20, endpoint=False)
    circle = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    for q in cases:
        n = q.dims.n
        grid = q.a0 + n * circle @ q.a + (n * n - n) * (circle * circle) @ q.aa
        val, _ = min_over_pattern(q, MultiplicityPattern((n,)))
        assert abs(val - float(grid.min())) <= 1e-9 * _scale(q)


def test_newton_descent_never_rises_above_start():
    rng = np.random.default_rng(38)
    for trial in range(12):
        n, d = int(rng.integers(3, 9)), int(rng.integers(2, 4))
        q = rand_q(rng, n, d, spread=1.5)
        patterns = list(enumerate_patterns(n, d))
        counts = np.array(patterns[trial % len(patterns)].counts, dtype=float)
        y0 = rng.normal(size=(16, counts.size, d))
        start = _objective(q, counts, _normalize_rows(y0))
        vals, ys = _newton_descent(q, counts, y0)
        assert np.all(vals <= start)
        assert np.allclose(np.linalg.norm(ys, axis=-1), 1.0, rtol=0.0, atol=1e-12)
        assert np.allclose(_objective(q, counts, ys), vals, rtol=0.0,
                           atol=1e-12 * _scale(q))


def test_gaussian_set_argmin_is_stationary():
    """The d >= 2 polynomials of the fixed Gaussian set (one per (n, d) in
    {3..8} x {1, 2, 3}, drawn in that grid order from seed 0): the argmin
    satisfies the Lagrange conditions to 1e-8 * scale."""
    rng = np.random.default_rng(0)
    checked = 0
    for d in (1, 2, 3):
        for n in range(3, 9):
            q = SymmetricQuadratic(ProblemDims(n, d), float(rng.normal()),
                                   rng.normal(size=d), rng.normal(size=d))
            if d == 1:
                continue
            _, cfg = reduced_global_min(q)
            assert lagrange_residual(q, cfg) <= 1e-8 * _scale(q)
            checked += 1
    assert checked == 12


def test_pattern_count_guard(capsys):
    assert partition_count(200, 6) > MAX_PATTERNS >= partition_count(20, 6)
    q = SymmetricQuadratic(ProblemDims(200, 3), 1.0, np.zeros(3), np.ones(3))
    with pytest.raises(ValueError, match="MAX_PATTERNS"):
        reduced_global_min(q)
    for route in ("halfdeg", "all"):
        t0 = time.perf_counter()
        code = main(["check-poly", "--route", route, "--n", "200", "--d", "3",
                     "--a0", "1", "--a", "0.5,-1,0.2", "--aa", "1,-0.5,0.3"])
        assert code == 64
        assert time.perf_counter() - t0 < 1.0
        assert "MAX_PATTERNS" in capsys.readouterr().err
    code = main(["check-poly", "--route", "halfdeg", "--n", "8", "--d", "3",
                 "--a0", "1", "--a", "0.5,-1,0.2", "--aa", "1,-0.5,0.3"])
    assert code in (0, 1)
    assert "MAX_PATTERNS" not in capsys.readouterr().err


def test_pattern_count_guard_refuses_large_n_without_counting():
    # counting would build a list of n + 1 partition counts: 8 GB at n = 10^9
    for d in (1, 3):
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match="needs more than MAX_PATTERNS=1000"):
            check_pattern_budget(10**9, d)
        assert time.perf_counter() - t0 < 0.1
    # the shortcut refuses only what counting refuses: 2 parts give
    # floor(n/2) + 1 patterns, one too many from n = 2 MAX_PATTERNS on
    assert partition_count(2 * MAX_PATTERNS - 1, 2) == MAX_PATTERNS
    assert partition_count(2 * MAX_PATTERNS, 2) == MAX_PATTERNS + 1
    check_pattern_budget(2 * MAX_PATTERNS - 1, 1)


def test_over_budget_file_refused_before_any_search(tmp_path, capsys, monkeypatch):
    import momentcert.cli as cli

    def search(q, **kwargs):
        raise AssertionError(f"searched n={q.dims.n} before the budget check")

    monkeypatch.setattr(cli, "reduced_global_min", search)
    row = {"d": 3, "a0": 1.0, "a": [0.5, -1.0, 0.2], "aa": [1.0, -0.5, 0.3]}
    f = tmp_path / "q.json"
    f.write_text(json.dumps([{"n": 12, **row}] * 3 + [{"n": 200, **row}, {"n": 300, **row}]))
    for route in ("halfdeg", "all"):
        code = main(["check-poly", "--route", route, "--file", str(f)])
        out = capsys.readouterr()
        assert (code, out.out) == (64, "")
        assert out.err == ("error: half-degree search at n=200, d=3 needs 4775383 "
                           "multiplicity patterns, more than MAX_PATTERNS=1000\n")
