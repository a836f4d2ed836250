"""Domain types, polynomial evaluation, moment extraction and the duality pairing.

Everything downstream works with three kinds of objects: symmetric square-free
quadratics on a product of n unit d-balls, candidate moment vectors, and point
configurations (the support atoms of measures).  All values are plain 64-bit
floats; certificates are re-validated numerically with explicit tolerances.

Tolerance policy: a margin (the residual, slack or minimum a test decides
on) is compared with t, tol (default :data:`DEFAULT_TOL`) times the size it
can reach, where scale = :func:`abs_scale` of the row (>= 1):

* tol·scale: first-order checks (z0 > 0; the limit cone's min(entries, det/scale));
* tol·scale²: residuals quadratic in the moments (:func:`moment_tolerance`);
* tol·max(1, scale·n²): P, Sigma and the d=1 facets (:func:`scaled_tolerance`);
* tol·n²: spin-language residuals.

Cones are closed, so :func:`margin_verdict` decides every test alike, on the
margin the output reports: Member at margin >= -t, on the boundary if also
margin < t.  Only the scales differ between families.

Every row holds finite values within :func:`magnitude_bound`, so no kernel
or tolerance overflows: :func:`check_values`, which the CLI parser and the
row constructors apply, is the one statement of that rule.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields
from enum import Enum
from typing import NamedTuple

import numpy as np

#: default tolerance of every cone test
DEFAULT_TOL = 1e-9
#: slack allowed when validating that configuration points lie in the unit ball
BALL_TOL = 1e-12
#: the fields (x0, x, xx) of a moment row and of a polynomial row
MOMENT_FIELDS = ("z0", "z", "zz")
POLY_FIELDS = ("a0", "a", "aa")


def json_int(obj: dict, key: str) -> int:
    """``obj[key]`` as an int: a bool, a string or a non-integral number raises."""
    v = obj[key]
    if type(v) is not int and (isinstance(v, (bool, str)) or not float(v).is_integer()):
        raise ValueError(f"{key} must be an integer, got {v!r}")
    return int(v)


def _frozen_vector(obj, name, values, d):
    arr = np.array(values, dtype=float).reshape(-1)
    if arr.shape != (d,):
        raise ValueError(f"{name} must have length {d}, got {arr.shape}")
    arr.setflags(write=False)
    object.__setattr__(obj, name, arr)


@dataclass(frozen=True)
class ProblemDims:
    """Number of balls/particles n and ball dimension d: integers with
    2 <= n < 2^53 and 1 <= d < 2^53, the CLI's row rules."""

    n: int
    d: int

    def __post_init__(self):
        # each bound before int(), which raises OverflowError on an infinity
        if self.n >= 2 ** 53:
            raise ValueError("n must be an integer < 2^53")
        if not self.n >= 2 or int(self.n) != self.n:
            raise ValueError(f"n must be an integer >= 2, got {self.n}")
        if self.d >= 2 ** 53:
            raise ValueError("d must be an integer < 2^53")
        if not self.d >= 1 or int(self.d) != self.d:
            raise ValueError(f"d must be an integer >= 1, got {self.d}")
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "d", int(self.d))


@dataclass(frozen=True)
class SymmetricQuadratic:
    """Coefficients (a0, a, aa) of a0 + sum a[α] s_α + sum aa[α] s_αα."""

    dims: ProblemDims
    a0: float
    a: np.ndarray
    aa: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "a0", float(self.a0))
        _frozen_vector(self, "a", self.a, self.dims.d)
        _frozen_vector(self, "aa", self.aa, self.dims.d)
        check_values(self.dims.n, self.dims.d, self.a0, self.a, self.aa, POLY_FIELDS)

    def coeff_scale(self) -> float:
        """Magnitude used to normalize residual tolerances."""
        return float(abs_scale(self.a0, self.a, self.aa))

    def to_json_dict(self) -> dict:
        return {"n": self.dims.n, "d": self.dims.d, "a0": self.a0,
                "a": self.a.tolist(), "aa": self.aa.tolist()}

    @staticmethod
    def from_json_dict(obj: dict) -> "SymmetricQuadratic":
        dims = ProblemDims(json_int(obj, "n"), json_int(obj, "d"))
        return SymmetricQuadratic(dims, float(obj["a0"]), obj["a"], obj["aa"])


@dataclass(frozen=True)
class MomentVector:
    """Candidate moments (z0, z, zz) of a symmetric measure on the ball product."""

    dims: ProblemDims
    z0: float
    z: np.ndarray
    zz: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "z0", float(self.z0))
        _frozen_vector(self, "z", self.z, self.dims.d)
        _frozen_vector(self, "zz", self.zz, self.dims.d)
        check_values(self.dims.n, self.dims.d, self.z0, self.z, self.zz, MOMENT_FIELDS)

    def moment_scale(self) -> float:
        return float(abs_scale(self.z0, self.z, self.zz))

    def is_zero(self) -> bool:
        return self.z0 == 0.0 and not self.z.any() and not self.zz.any()

    def to_json_dict(self) -> dict:
        return {"n": self.dims.n, "d": self.dims.d, "z0": self.z0,
                "z": self.z.tolist(), "zz": self.zz.tolist()}

    @staticmethod
    def from_json_dict(obj: dict) -> "MomentVector":
        dims = ProblemDims(json_int(obj, "n"), json_int(obj, "d"))
        return MomentVector(dims, float(obj["z0"]), obj["z"], obj["zz"])


@dataclass(frozen=True)
class Configuration:
    """n points in the closed unit d-ball, stored as an (n, d) array."""

    dims: ProblemDims
    points: np.ndarray

    def __post_init__(self):
        pts = np.array(self.points, dtype=float)
        if pts.shape != (self.dims.n, self.dims.d):
            raise ValueError(
                f"points must have shape {(self.dims.n, self.dims.d)}, got {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise ValueError("points contain non-finite entries")
        norms = np.sqrt(np.sum(pts * pts, axis=1))
        worst = float(np.max(norms))
        if worst > 1.0 + BALL_TOL:
            raise ValueError(f"point norm {worst} exceeds 1 + {BALL_TOL}")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)


class Status(str, Enum):
    MEMBER = "Member"
    NON_MEMBER = "NonMember"
    INDETERMINATE = "Indeterminate"


@dataclass
class ConeVerdict:
    """Membership verdict plus a witness an independent checker can validate.

    Member and NonMember verdicts always carry a witness payload; Indeterminate
    carries the residual gap.  ``boundary`` marks verdicts decided within
    tolerance of the cone boundary (cones are closed, so these report Member).
    """

    status: Status
    witness: dict | None = None
    boundary: bool = False

    def __post_init__(self):
        if self.status in (Status.MEMBER, Status.NON_MEMBER) and self.witness is None:
            raise ValueError(f"{self.status.value} verdict requires a witness")

    @property
    def is_member(self) -> bool:
        return self.status is Status.MEMBER


class RowBatch(NamedTuple):
    """Rows of one d: their positions in the input (B,), n (B,) as float64
    (exact below 2^53, where n(n-1) rounds as the int product does; the CLI
    refuses n >= 2^53), the constant term (B,) and the two (B, d) blocks:
    (z0, z, zz) of moment vectors or (a0, a, aa) of quadratics."""

    index: np.ndarray
    n: np.ndarray
    x0: np.ndarray
    x: np.ndarray
    xx: np.ndarray

    @property
    def d(self) -> int:
        return self.x.shape[1]


def group_rows(n: np.ndarray, d: np.ndarray, values) -> list[RowBatch]:
    """Rows grouped by d, in input order within a group; ``values(idx, d)``
    returns the blocks x0 (B,), x and xx (B, d) of rows ``idx``, each
    C-contiguous."""
    out = []
    for dd in sorted(set(d.tolist())):  # np.unique would import numpy.ma (20 ms)
        idx = np.flatnonzero(d == dd)
        out.append(RowBatch(idx, n[idx], *values(idx, dd)))
    return out


def row_batches(rows: list) -> list[RowBatch]:
    """A list of MomentVector or SymmetricQuadratic grouped by d."""
    k0, k1, k2 = (f.name for f in fields(rows[0])[1:])

    def values(idx: np.ndarray, d: int):
        group = [rows[i] for i in idx.tolist()]
        return (np.array([getattr(r, k0) for r in group], dtype=float),
                *(np.array([getattr(r, k) for r in group], dtype=float).reshape(-1, d)
                  for k in (k1, k2)))

    return group_rows(np.array([r.dims.n for r in rows], dtype=float),
                      np.array([r.dims.d for r in rows]), values)


# ---------------------------------------------------------------------------
# operations


def fold_columns(ufunc, start, *blocks):
    """``start`` combined by the binary ``ufunc`` with each column of
    ``blocks`` ((..., k) arrays) in turn, left to right: one call per column,
    where ``ufunc.reduce`` over a short last axis loops once per row.

    With np.add it adds the columns in index order (np.sum would add 8 or
    more columns pairwise); with np.maximum, np.minimum and np.logical_or it
    is max, min and any over the columns.  A tie between 0.0 and -0.0 goes
    to the later column, as np.maximum and np.minimum break it; numpy's own
    reductions break it in an order that depends on the width and memory
    layout of the array, and no caller reads the sign of a zero max or min.
    """
    for block in blocks:
        for i in range(block.shape[-1]):
            start = ufunc(start, block[..., i])
    return start


def abs_max(x0, x, xx):
    """max(|x0|, max |x|, max |xx|) over the last axis: of one row, or of
    (B,) / (B, d) arrays."""
    return fold_columns(np.maximum, np.abs(x0), np.maximum(np.abs(x), np.abs(xx)))


def abs_scale(x0, x, xx):
    """max(1, |x0|, max |x|, max |xx|) over the last axis: ``moment_scale`` and
    ``coeff_scale`` of one row, or of (B,) / (B, d) arrays."""
    return np.maximum(1.0, abs_max(x0, x, xx))


def magnitude_bound(n, d: int, names) -> np.ndarray:
    """The largest |value| a row of n (B,) and d may hold: sqrt(max float /
    (2d+1)) for moments (``names`` = MOMENT_FIELDS), that over n for
    polynomials (POLY_FIELDS).  A moment test's max-form residual and its
    parts are at most (2d+1) scale² in size, and its tolerance tol scale²;
    the polynomial kernels square n times a coefficient (the ellipsoid
    gradient n a_α, summed over d) and form scale n².  So below the bound
    none of them overflows."""
    bound = math.sqrt(sys.float_info.max / (2 * d + 1))
    return bound / n if names == POLY_FIELDS else np.full(np.shape(n), bound)


def check_values(n, d: int, x0, x, xx, names):
    """The value rule of rows n and x0 (B,), x and xx (B, d), or of one row
    with n an int: raise ValueError for the first field, in the order
    ``names``, that holds a non-finite value, else, naming the bound, for
    the first row with a value past :func:`magnitude_bound`.  A NaN, as an
    inf, fails the one comparison that passes the rows that keep the rule."""
    bound = np.atleast_1d(magnitude_bound(n, d, names))
    within = abs_max(x0, x, xx) <= bound
    if within.all():
        return
    for k, (name, v) in enumerate(zip(names, (x0, x, xx))):
        if not np.isfinite(v).all():
            raise ValueError(f"{name} contains non-finite entries" if k
                             else f"{name} must be finite")
    big = np.flatnonzero(~within)[0]
    raise ValueError(f"{', '.join(names)} must be at most {float(bound[big])!r} in "
                     f"magnitude at n={int(np.ravel(n)[big])}, d={d}")


def scaled_tolerance(tol: float, scale, n):
    """Absolute tolerance for residuals of order scale·n² (P, Sigma, d=1 facets);
    scale and n may be (B,) arrays."""
    return tol * np.maximum(1.0, scale * n * n)


def moment_tolerance(tol: float, scale):
    """Absolute tolerance for residuals of order scale² (scale may be an array)."""
    return tol * scale * scale


def margin_verdict(margin, t):
    """(member, boundary) of a closed cone's test: member when margin >= -t,
    boundary when member and margin < t; scalars or arrays alike."""
    member = margin >= -t
    return member, member & (margin < t)


def power_sums(config: Configuration) -> tuple[np.ndarray, np.ndarray]:
    """Power sums s_α = Σ_i ξ_iα and ss_α = Σ_{i≠j} ξ_iα ξ_jα (ordered pairs)."""
    pts = config.points
    s = pts.sum(axis=0)
    ss = s * s - np.sum(pts * pts, axis=0)
    return s, ss


def evaluate(q: SymmetricQuadratic, config: Configuration) -> float:
    """Value of the quadratic at a configuration."""
    if q.dims != config.dims:
        raise ValueError(f"dimension mismatch: {q.dims} vs {config.dims}")
    s, ss = power_sums(config)
    return q.a0 + float(q.a @ s) + float(q.aa @ ss)


def moments_of_configuration(config: Configuration) -> MomentVector:
    """Moments of the unit-mass atom sitting at this configuration."""
    s, ss = power_sums(config)
    return MomentVector(config.dims, 1.0, s, ss)


def pair(q: SymmetricQuadratic, m: MomentVector) -> float:
    """Duality pairing a0 z0 + Σ a_α z_α + Σ aa_α zz_α."""
    if q.dims != m.dims:
        raise ValueError(f"dimension mismatch: {q.dims} vs {m.dims}")
    return q.a0 * m.z0 + float(q.a @ m.z) + float(q.aa @ m.zz)

