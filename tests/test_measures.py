import math

import numpy as np
import pytest

from momentcert.core import moments_of_configuration, power_sums
from momentcert.measures import (
    BALL,
    HYPERCUBE,
    SPHERE,
    AtomicMeasure,
    lemma_approx_construct,
    measure_moments,
    sample_configuration,
    sample_measure,
)
from momentcert.moment_cone import necessary_condition


def test_atomic_measure_validation():
    c = sample_configuration(3, 2, seed=0)
    AtomicMeasure(((1.0, c),))
    with pytest.raises(ValueError):
        AtomicMeasure(())
    with pytest.raises(ValueError):
        AtomicMeasure(((-0.5, c),))
    other = sample_configuration(4, 2, seed=0)
    with pytest.raises(ValueError):
        AtomicMeasure(((1.0, c), (1.0, other)))


def test_sample_configuration_supports():
    for support in (BALL, SPHERE, HYPERCUBE):
        c = sample_configuration(6, 3, seed=5, support=support)
        norms = np.linalg.norm(c.points, axis=1)
        assert np.all(norms <= 1.0 + 1e-12)
        if support in (SPHERE, HYPERCUBE):
            assert np.allclose(norms, 1.0)
        if support == HYPERCUBE:
            # each point is a signed coordinate vector
            assert np.all(np.sum(c.points != 0.0, axis=1) == 1)
    with pytest.raises(ValueError):
        sample_configuration(3, 2, seed=0, support="torus")


def test_sample_configuration_deterministic():
    a = sample_configuration(5, 2, seed=11)
    b = sample_configuration(5, 2, seed=11)
    assert np.array_equal(a.points, b.points)
    c = sample_configuration(5, 2, seed=12)
    assert not np.array_equal(a.points, c.points)


def test_measure_moments_linearity():
    rng = np.random.default_rng(1)
    c1 = sample_configuration(4, 2, seed=100)
    c2 = sample_configuration(4, 2, seed=200)
    w1, w2 = 0.7, 2.3
    mu = AtomicMeasure(((w1, c1), (w2, c2)))
    m = measure_moments(mu)
    m1, m2 = moments_of_configuration(c1), moments_of_configuration(c2)
    assert abs(m.z0 - (w1 + w2)) < 1e-12
    assert np.allclose(m.z, w1 * m1.z + w2 * m2.z)
    assert np.allclose(m.zz, w1 * m1.zz + w2 * m2.zz)


def test_sampled_measures_satisfy_necessary_condition():
    """Soundness on a small scale: real measures never violate the
    necessary-side inequalities."""
    for seed in range(200):
        n, d = 2 + seed % 7, 1 + seed % 4
        mu = sample_measure(n, d, seed=seed)
        ok, report = necessary_condition(measure_moments(mu))
        assert ok, (seed, report)


def test_sample_measure_atom_budget():
    for seed in range(30):
        mu = sample_measure(5, 2, seed=seed, max_atoms=3)
        assert 1 <= len(mu.atoms) <= 3
        assert all(w >= 0 for w, _ in mu.atoms)


def test_measure_json():
    mu = sample_measure(3, 2, seed=7, max_atoms=2)
    obj = mu.to_json_dict()
    assert set(obj) == {"atoms"}
    assert all(set(a) == {"w", "points"} for a in obj["atoms"])


def test_lemma_construct_matches_target_exactly():
    rng = np.random.default_rng(2)
    for trial in range(300):
        n, d = int(rng.integers(2, 20)), int(rng.integers(1, 5))
        x = rng.normal(size=d)
        x *= rng.uniform() * math.sqrt(n) / max(1.0, float(np.linalg.norm(x)))
        c = lemma_approx_construct(x, n)
        s, _ = power_sums(c)
        assert np.allclose(s / math.sqrt(n), x, atol=1e-10), (n, d)


def test_lemma_construct_second_moment_defect():
    """Off-axis second moments vanish; the last coordinate's defect from the
    pure two-point profile is at most 1/n after rescaling."""
    rng = np.random.default_rng(3)
    for trial in range(300):
        n, d = int(rng.integers(2, 20)), int(rng.integers(2, 5))
        x = rng.normal(size=d)
        x *= rng.uniform() * math.sqrt(n) / max(1.0, float(np.linalg.norm(x)))
        c = lemma_approx_construct(x, n)
        pts = c.points
        # head coordinates are shared by every point
        assert np.allclose(pts[:, :d - 1], pts[0, :d - 1])
        head2 = float(pts[0, :d - 1] @ pts[0, :d - 1])
        b2 = 1.0 - head2
        mean_sq = float(np.mean(pts[:, d - 1] ** 2))
        assert mean_sq <= b2 + 1e-12
        assert b2 - mean_sq <= 1.0 / n + 1e-12


def test_lemma_construct_rejects_infeasible_target():
    with pytest.raises(ValueError):
        lemma_approx_construct([3.0], 4)  # ||X||^2 = 9 > 4


def test_lemma_construct_boundary_target():
    # ||X||^2 = n exactly: all points identical at x/sqrt(n)
    n = 5
    x = np.array([1.0, 2.0])
    x *= math.sqrt(n) / float(np.linalg.norm(x))
    c = lemma_approx_construct(x, n)
    assert np.allclose(c.points, c.points[0])
    assert abs(float(np.linalg.norm(c.points[0])) - 1.0) < 1e-12


def _closest_k_loop(x, n: int) -> int:
    """The sign count of the construction as a loop over every k: the first
    k with the smallest gap |target - (2k - (n-1)) b|."""
    x = np.asarray(x, dtype=float)
    head = x[:-1] / math.sqrt(n)
    b = math.sqrt(max(0.0, 1.0 - float(head @ head)))
    target = math.sqrt(n) * x[-1]
    best_k, best_gap = 0, math.inf
    for k in range(n):
        gap = abs(target - (2 * k - (n - 1)) * b)
        if gap < best_gap:
            best_k, best_gap = k, gap
    return best_k


def test_lemma_construct_picks_the_loops_sign_count():
    """The construction's k (its first k points at +b, the next n-1-k at -b,
    told apart by the sign bit even at b = 0) is the loop's on random
    targets, on exact midpoints between two sign counts (n a power of 4,
    so √n is exact), at both ends, and at b = 0."""
    from momentcert.fuzz import random_lemma_target

    rng = np.random.default_rng(27)
    targets = [random_lemma_target(rng)[::2] for _ in range(3000)]
    targets += [(n, np.array([t / math.sqrt(n)])) for n in (4, 16, 64)
                for t in range(-n, n + 1)]
    targets += [(n, np.array([1.0, 0.0]) * math.sqrt(n) + [0.0, e])
                for n in (4, 16, 64) for e in (0.0, 1e-7, -1e-7)]
    for n, x in targets:
        pts = lemma_approx_construct(x, n).points
        k = int(np.sum(~np.signbit(pts[:n - 1, -1])))
        assert k == _closest_k_loop(x, n), (n, x)
