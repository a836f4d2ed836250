"""Atomic symmetric measures, their moments, and the explicit target
construction, which realizes a prescribed X with Y supported on the last
coordinate only, up to the proof's 1/n defect.  The soundness fuzz suite
draws its random measures in ``fuzz``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Configuration, MomentVector, ProblemDims, moments_of_configuration
from .exact_d1 import _first_min


@dataclass(frozen=True)
class AtomicMeasure:
    """Nonnegative weights on configurations sharing one (n, d)."""

    atoms: tuple[tuple[float, Configuration], ...]

    def __post_init__(self):
        atoms = tuple((float(w), c) for w, c in self.atoms)
        if not atoms:
            raise ValueError("measure needs at least one atom")
        if any(w < 0 for w, _ in atoms):
            raise ValueError("weights must be nonnegative")
        dims = atoms[0][1].dims
        if any(c.dims != dims for _, c in atoms):
            raise ValueError("all atoms must share dimensions")
        object.__setattr__(self, "atoms", atoms)

    @property
    def dims(self) -> ProblemDims:
        return self.atoms[0][1].dims

    def to_json_dict(self) -> dict:
        return {"atoms": [{"w": w, "points": [list(p) for p in c.points]}
                          for w, c in self.atoms]}


def measure_moments(mu: AtomicMeasure) -> MomentVector:
    """Weighted sum of the atoms' moment vectors."""
    dims = mu.dims
    z0 = 0.0
    z = np.zeros(dims.d)
    zz = np.zeros(dims.d)
    for w, config in mu.atoms:
        m = moments_of_configuration(config)
        z0 += w * m.z0
        z += w * m.z
        zz += w * m.zz
    return MomentVector(dims, z0, z, zz)


def lemma_approx_construct(x_target, n: int) -> Configuration:
    """Configuration matching X exactly, with Y vanishing except on the last
    coordinate, where the defect is at most 1/n.

    The first d-1 coordinates of every point equal X_α/√n.  The last
    coordinate is ±b for the first n-1 points (sign count chosen by exact
    search, ties toward smaller k) and the exact remainder for point n.
    """
    x = np.asarray(x_target, dtype=float).reshape(-1)
    d = x.size
    norm2 = float(x @ x)
    if norm2 > n * (1.0 + 1e-12):
        raise ValueError(f"||X||^2 = {norm2} exceeds n = {n}")
    head = x[:d - 1] / math.sqrt(n)
    b = math.sqrt(max(0.0, 1.0 - float(head @ head)))
    target = math.sqrt(n) * x[d - 1]
    # sum over the first n-1 points is (2k - (n-1)) b; pick the closest k
    k_vertex = 0.5 * (target / b + n - 1) if b > 0.0 else 0.0
    best_k = int(_first_min(lambda k: np.abs(target - (2 * k - (n - 1)) * b), k_vertex, n - 1)[0])
    z = target - (2 * best_k - (n - 1)) * b
    pts = np.empty((n, d))
    pts[:, :d - 1] = head
    pts[:best_k, d - 1] = b
    pts[best_k:n - 1, d - 1] = -b
    pts[n - 1, d - 1] = z
    return Configuration(ProblemDims(n, d), pts)
