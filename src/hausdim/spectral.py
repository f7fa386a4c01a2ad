"""Certified spectral-radius enclosures for nonnegative matrices.

For a nonnegative matrix M and a positive vector w,

    min_k (M w)_k / w_k  <=  r(M)  <=  max_k (M w)_k / w_k,

so every power-iteration step yields a two-sided enclosure; the iteration
is run until the relative gap closes below a tolerance.  Also provides
the Hilbert projective metric, a ratio-cone membership test used as a
diagnostic, and a midpoint log-convexity check for radius curves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BadParams, NonPositiveVector, ZeroRowSum

_STALL_LIMIT = 200


def _matvec(matrix, w: np.ndarray) -> np.ndarray:
    if hasattr(matrix, "matvec"):
        return matrix.matvec(w)
    return np.asarray(matrix) @ w


def _dim(matrix) -> int:
    if hasattr(matrix, "dim"):
        return int(matrix.dim)
    return int(np.asarray(matrix).shape[0])


def collatz_wielandt(matrix, w: np.ndarray) -> tuple[float, float]:
    """Two-sided bounds min/max of (M w)_k / w_k for positive w.

    Valid for any nonnegative matrix; a zero row would make the lower
    bound trivially zero and raises ZeroRowSum instead.
    """
    w = np.asarray(w, dtype=float)
    if np.any(w <= 0.0) or not np.all(np.isfinite(w)):
        raise NonPositiveVector("Collatz-Wielandt needs a strictly positive vector")
    mv = _matvec(matrix, w)
    if np.any(mv <= 0.0):
        raise ZeroRowSum("matrix has a zero row; lower bound would be trivial")
    ratios = mv / w
    return float(np.min(ratios)), float(np.max(ratios))


@dataclass(eq=False)
class SpectralEnclosure:
    """Result of the enclosure iteration on one matrix."""

    r_lo: float
    r_hi: float
    eigvec: np.ndarray
    iterations: int
    converged: bool
    history: list[tuple[float, float]] = field(default_factory=list)

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.r_lo + self.r_hi)

    @property
    def gap(self) -> float:
        return (self.r_hi - self.r_lo) / self.r_hi if self.r_hi > 0 else math.inf


def power_enclosure(matrix, tol: float = 1e-13,
                    seed_vec: np.ndarray | None = None,
                    collect_history: bool = False) -> SpectralEnclosure:
    """Iterate w <- M w / ||M w||_inf from all-ones, tightening the enclosure.

    Stops when the relative gap (hi - lo)/hi falls below tol.  If the gap
    stalls above tol for 200 consecutive iterations, or 10*dim + 1000
    iterations are exhausted, the current enclosure is returned with
    converged=False; the bounds are certified either way.
    """
    if not tol > 0.0:
        raise BadParams(f"need tol > 0, got {tol}")
    n = _dim(matrix)
    if seed_vec is None:
        w = np.ones(n, dtype=float)
    else:
        w = np.asarray(seed_vec, dtype=float)
        if w.shape != (n,) or np.any(w <= 0.0) or not np.all(np.isfinite(w)):
            raise NonPositiveVector("seed vector must be strictly positive")
    lo, hi = -math.inf, math.inf
    history: list[tuple[float, float]] = []
    best_gap = math.inf
    stall = 0
    iterations = 0
    converged = False
    for iterations in range(1, 10 * n + 1001):
        mv = _matvec(matrix, w)
        if np.any(mv <= 0.0):
            raise ZeroRowSum("matrix has a zero row; enclosure iteration degenerates")
        ratios = mv / w
        lo = float(np.min(ratios))
        hi = float(np.max(ratios))
        if collect_history:
            history.append((lo, hi))
        gap = (hi - lo) / hi if hi > 0.0 else math.inf
        w = mv / float(np.max(mv))
        if gap <= tol:
            converged = True
            break
        if gap < best_gap * (1.0 - 1e-3):
            best_gap = gap
            stall = 0
        else:
            stall += 1
            if stall >= _STALL_LIMIT:
                break
    return SpectralEnclosure(
        r_lo=lo, r_hi=hi, eigvec=w, iterations=iterations,
        converged=converged, history=history,
    )


def hilbert_metric(u: np.ndarray, v: np.ndarray) -> float:
    """Projective distance log max(u/v) + log max(v/u) of positive vectors."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape:
        raise BadParams("vectors must have equal length")
    if np.any(u <= 0.0) or np.any(v <= 0.0):
        raise NonPositiveVector("Hilbert metric needs strictly positive vectors")
    return float(np.log(np.max(u / v)) + np.log(np.max(v / u)))


@dataclass(frozen=True)
class ConeParams:
    """Ratio cone: nonzero members have w_{j+1}/w_j within exp(+-M h)."""

    M: float
    h: float


def cone_membership(w: np.ndarray, cone: ConeParams) -> bool:
    """Whether w lies in the ratio cone (zero vector counts as a member)."""
    w = np.asarray(w, dtype=float)
    if np.all(w == 0.0):
        return True
    if np.any(w <= 0.0):
        return False
    bound = math.exp(cone.M * cone.h)
    ratios = w[1:] / w[:-1]
    return bool(np.all(ratios <= bound) and np.all(ratios >= 1.0 / bound))


def logconvex_check(radius_fn, s0: float, s1: float,
                    slack: float = 1e-10) -> tuple[bool, float, float, float]:
    """Midpoint log-convexity: r((s0+s1)/2) <= sqrt(r(s0) r(s1)) (1 + slack).

    Returns (ok, r0, r_mid, r1).
    """
    if not s1 > s0:
        raise BadParams("need s0 < s1")
    r0 = float(radius_fn(s0))
    r1 = float(radius_fn(s1))
    rm = float(radius_fn(0.5 * (s0 + s1)))
    ok = rm <= math.sqrt(r0 * r1) * (1.0 + slack)
    return ok, r0, rm, r1
