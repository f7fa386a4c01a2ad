"""Certified spectral-radius enclosures for nonnegative matrices.

For a nonnegative matrix M and a positive vector w,

    min_k (M w)_k / w_k  <=  r(M)  <=  max_k (M w)_k / w_k,

so every power-iteration step yields a two-sided enclosure.  The iteration
starts from all-ones or from a given positive seed vector (a warm start)
and runs until the relative gap closes below a tolerance or, on request,
until the enclosure excludes 1 and pins log r to a relative accuracy.
A solve keeps its product, ratio and iterate vectors in buffers made
once per solve: a discretize.CsrMatrix writes M w into its buffer
through scipy's compiled CSR loop, and the ratios and the next iterate
are divided into theirs, the same float operations in the same order
as fresh arrays would take.  The seed vector is copied, never written.
Dense arrays and other objects with matvec(w) give M w in a new array.
An array or CsrMatrix with a negative or NaN entry is refused.
Also provides the Hilbert projective metric and a ratio-cone membership
test used as a diagnostic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .discretize import CsrMatrix, SparseNonnegMatrix
from .errors import BadParams, NegativeEntry, NonPositiveVector, ZeroRowSum

RADIUS_TOL = 1e-13  # default relative enclosure gap of every radius solve
_STALL_LIMIT = 200


def _product(matrix):
    """(w, out) -> M w: a CsrMatrix writes into out, others return M w."""
    if isinstance(matrix, CsrMatrix):
        return matrix.matvec
    if hasattr(matrix, "matvec"):
        return lambda w, out: matrix.matvec(w)
    dense = np.asarray(matrix)
    return lambda w, out: dense @ w


def _check_nonneg(matrix) -> None:
    """NegativeEntry unless every entry is >= 0 (NaN fails).

    Checks arrays and CsrMatrix inputs other than a SparseNonnegMatrix,
    which was checked when it was built; other objects are trusted.
    """
    if isinstance(matrix, SparseNonnegMatrix):
        return
    if isinstance(matrix, CsrMatrix):
        entries = matrix.data[:matrix.nnz]
    elif hasattr(matrix, "matvec"):
        return
    else:
        entries = np.asarray(matrix)
    if not (entries >= 0.0).all():
        raise NegativeEntry("matrix entries must be nonnegative, not NaN")


def _dim(matrix) -> int:
    if hasattr(matrix, "dim"):
        return int(matrix.dim)
    return int(np.asarray(matrix).shape[0])


@dataclass(eq=False)
class SpectralEnclosure:
    """Result of the enclosure iteration on one matrix."""

    r_lo: float
    r_hi: float
    eigvec: np.ndarray
    iterations: int
    converged: bool

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.r_lo + self.r_hi)

    @property
    def gap(self) -> float:
        return (self.r_hi - self.r_lo) / self.r_hi if self.r_hi > 0 else math.inf


def power_enclosure(matrix, tol: float = RADIUS_TOL,
                    seed_vec: np.ndarray | None = None, *,
                    sign_rel: float | None = None) -> SpectralEnclosure:
    """Iterate w <- M w / ||M w||_inf from all-ones (or seed_vec).

    Stops when the relative gap (hi - lo)/hi falls below tol.  With
    sign_rel > 0 it also stops, converged, once the enclosure excludes 1
    (lo > 1 or hi < 1) and log(hi/lo) <= sign_rel * min(|log lo|, |log hi|):
    the side of 1 is certain and the midpoint pins log r to that relative
    accuracy.  If the gap stalls above tol for 200 consecutive iterations,
    or 10*dim + 1000 iterations are exhausted, the current enclosure is
    returned with converged=False; the bounds are certified either way.

    The bounds hold for nonnegative matrices only.  An array, or a
    CsrMatrix that is not a SparseNonnegMatrix, is checked entry by
    entry first, and a negative or NaN entry raises NegativeEntry; a
    SparseNonnegMatrix was checked when it was built.  An object that
    only has matvec(w) is taken on trust.
    """
    if not tol > 0.0:
        raise BadParams(f"need tol > 0, got {tol}")
    if sign_rel is not None and not sign_rel > 0.0:
        raise BadParams(f"need sign_rel > 0, got {sign_rel}")
    _check_nonneg(matrix)
    n = _dim(matrix)
    if seed_vec is None:
        w = np.ones(n, dtype=float)
    else:
        w = np.array(seed_vec, dtype=float)  # a copy: w is overwritten
        if w.shape != (n,) or np.any(w <= 0.0) or not np.all(np.isfinite(w)):
            raise NonPositiveVector("seed vector must be strictly positive")
    product = _product(matrix)
    mv, ratios = np.empty(n), np.empty(n)
    lo, hi = -math.inf, math.inf
    best_gap = math.inf
    stall = 0
    iterations = 0
    converged = False
    for iterations in range(1, 10 * n + 1001):
        mv = product(w, mv)
        np.divide(mv, w, out=ratios)
        # Reductions as ufuncs skip ndarray.min/max's Python wrapper,
        # a sizable share of a small step.
        lo = float(np.minimum.reduce(ratios))
        # w > 0, so the least ratio has the sign of the least entry of M w.
        if lo <= 0.0:
            raise ZeroRowSum("matrix has a zero row; enclosure iteration degenerates")
        hi = float(np.maximum.reduce(ratios))
        gap = (hi - lo) / hi if hi > 0.0 else math.inf
        np.divide(mv, float(np.maximum.reduce(mv)), out=w)
        if gap <= tol or (sign_rel is not None
                          and _sign_settled(lo, hi, sign_rel)):
            converged = True
            break
        if gap < best_gap * (1.0 - 1e-3):
            best_gap = gap
            stall = 0
        else:
            stall += 1
            if stall >= _STALL_LIMIT:
                break
    return SpectralEnclosure(r_lo=lo, r_hi=hi, eigvec=w,
                             iterations=iterations, converged=converged)


def _sign_settled(lo: float, hi: float, rel: float) -> bool:
    """Whether [lo, hi] excludes 1 with log(hi/lo) <= rel * min |log|."""
    if not (lo > 1.0 or 0.0 < lo <= hi < 1.0):
        return False
    log_lo, log_hi = math.log(lo), math.log(hi)
    return math.log(hi / lo) <= rel * min(abs(log_lo), abs(log_hi))


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

