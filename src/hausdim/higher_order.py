"""Higher-order collocation (non-certified, fast-converging).

Piecewise degree-d Lagrange interpolation on each mesh cell replaces the
piecewise-linear hat basis: every cell carries d+1 equispaced local
nodes, adjacent cells share endpoints, and the collocation matrix acts
on the d*n+1 global node values per mesh piece.  Entries are signed, so
the Collatz-Wielandt machinery does not apply; the dominant eigenvalue
magnitude is estimated by plain power iteration with a dense fallback.
The root of log |lambda(s)| gives a dimension estimate whose accuracy
improves like h**(2d) but carries no certificate.

As the estimate converges so fast, an estimate on a plan of 32768
entries or more starts the way a certified bracket does.  It first
solves log |lambda(s)| = 0 on the same intervals meshed 16 times
coarser, where a matrix costs about a sixteenth as much.  The last
coarse iterate, interpolated onto the fine nodes piece by piece, seeds
the first fine solve.  That solve is at the coarse root, and a Newton
step on the coarse slope and secant steps go on from there.  At degree
6 the coarse root already meets the fine root_tol, so the fine mesh
builds one matrix.  HighOrderResult.evals counts the matrices built on
both meshes.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .discretize import (
    CollocationPlan,
    CsrMatrix,
    _interpolate_nodal,
    collocation_plan,
)
from .errors import BadParams, PowerDivergence
from .ifs import MapFamily
from .solver import (
    _SIGN_REL,
    INITIAL_BRACKET,
    ROOT_TOL,
    _coarse_mesh,
    _root_from,
    _slope,
    solve_root,
)
from .spectral import RADIUS_TOL


class HighOrderMatrix(CsrMatrix):
    """Signed sparse collocation matrix in CSR form."""


def _plan_matrix(plan: CollocationPlan, s: float) -> HighOrderMatrix:
    return HighOrderMatrix(plan.dim, plan.indptr, plan.indices, plan.data(s))


_SETTLE_RUNS = 10
_TAIL_RHO = 0.9  # largest step ratio at which the sign stop trusts its tail
_SHRINK_STEPS = 64  # steps within which the estimate changes must shrink
# Smallest plan whose estimate starts on a coarse mesh, just above the
# measured crossover.  Below it a power step costs its call overhead more
# than its entries, so the coarse solve, plan and interpolation cost what
# they save.  Timed both ways, the coarse start took 1.2-2.5 times as
# long on plans of up to 6020 entries, about as long (0.8-1.15) on plans
# of 10514-31094, and 0.3-0.94 times as long on all but one of the plans
# of 34930 entries and more.
_COARSE_MIN_ENTRIES = 32768


def _start_vector(dim: int) -> np.ndarray:
    """Cold start of the power iteration: a slightly tilted all-ones."""
    return 1.0 + np.arange(dim) / (1000.0 * max(dim, 1))


def dominant_magnitude(mat: HighOrderMatrix, tol: float = RADIUS_TOL, *,
                       vec: np.ndarray | None = None,
                       sign_rel: float | None = None) -> float:
    """|lambda| of the dominant eigenvalue of a signed matrix.

    Power iteration on sup norms (at most 10*dim + 2000 steps) settles for
    a real dominant eigenvalue of either sign.  Once the change of the
    estimate is no smaller than it was 64 steps before (oscillation, as
    for a complex pair), or the steps run out, it falls back to a dense
    eigensolve for dim <= 2000 and raises PowerDivergence beyond.

    vec, a finite float64 array of shape (dim,) that is not all zero, is
    the start vector; the call overwrites it with its last normalized
    iterate, so the next solve can start there.  With sign_rel > 0 the
    iteration also stops once the step ratio rho = d_k/d_{k-1} of the
    estimate changes d_k is below 0.9 and the geometric tail
    d_k/(1 - rho) is at most sign_rel * |log est| * est: log |lambda| is
    then pinned to that relative accuracy, which is all a secant step
    far from the root needs.  An exact repeat (d_k = 0) does not trigger
    that stop; it counts only toward the settle rule, so near the root,
    where |log est| is tiny, the stop cannot fire before ten estimates
    agree to tol.
    """
    if not tol > 0.0:
        raise BadParams(f"need tol > 0, got {tol}")
    if sign_rel is not None and not sign_rel > 0.0:
        raise BadParams(f"need sign_rel > 0, got {sign_rel}")
    dim = mat.dim
    if vec is None:
        w = _start_vector(dim)
    else:
        if not (isinstance(vec, np.ndarray) and vec.dtype == np.float64
                and vec.shape == (dim,) and np.all(np.isfinite(vec))
                and np.any(vec != 0.0)):
            raise BadParams(f"start vector must be a finite, nonzero "
                            f"float64 array of shape ({dim},)")
        w = vec / float(np.max(np.abs(vec)))
    max_iter = 10 * dim + 2000
    est_prev = d_prev = math.inf
    settle = 0
    changes: deque[float] = deque(maxlen=_SHRINK_STEPS)
    try:
        for step in range(1, max_iter + 1):
            mv = mat.matvec(w)
            nrm = float(np.max(np.abs(mv)))
            if nrm == 0.0:
                return 0.0
            est = nrm
            w = mv / nrm
            d = abs(est - est_prev)
            if d <= tol * max(est, 1e-300):
                settle += 1
                if settle >= _SETTLE_RUNS:
                    return est
            else:
                settle = 0
            rho = d / d_prev if 0.0 < d_prev < math.inf else 1.0
            if sign_rel is not None and 0.0 < rho < _TAIL_RHO and \
                    d / (1.0 - rho) <= sign_rel * abs(math.log(est)) * est:
                return est
            if len(changes) == _SHRINK_STEPS and d >= changes[0]:
                break
            changes.append(d)
            est_prev, d_prev = est, d
        if dim <= 2000:
            return float(np.max(np.abs(np.linalg.eigvals(mat.toarray()))))
        raise PowerDivergence(
            f"power iteration did not settle in {step} steps (dim {dim})")
    finally:
        if vec is not None:
            vec[:] = w


@dataclass(frozen=True)
class HighOrderResult:
    """Non-certified dimension estimate from degree-d collocation."""

    s: float
    degree: int
    dim: int
    mesh_h: float
    family_id: str
    evals: int


def _log_magnitude(plan: CollocationPlan, radius_tol: float,
                   vec: np.ndarray):
    """Memoized s -> log |lambda(s)| on one plan, and its evaluated points.

    Every solve starts from vec, the iterate of the solve before it,
    and may stop once log |lambda| is pinned to 1%.
    """
    points: dict[float, float] = {}

    def f(s: float) -> float:
        if s not in points:
            points[s] = math.log(dominant_magnitude(
                _plan_matrix(plan, s), tol=radius_tol, vec=vec,
                sign_rel=_SIGN_REL))
        return points[s]

    return f, points


def _coarse_start(fam: MapFamily, mesh, degree: int, root_tol: float,
                  radius_tol: float) -> tuple[float, float, np.ndarray, int]:
    """Root of log |lambda(s)| on the same intervals meshed 16 times coarser.

    Returns the root, the slope between the two evaluated points nearest
    it, the last coarse iterate interpolated onto the degree-d nodes of
    mesh, and the number of matrices built.
    """
    coarse = _coarse_mesh(mesh)
    plan = collocation_plan(fam, coarse, degree)
    vec = _start_vector(plan.dim)
    f, points = _log_magnitude(plan, radius_tol, vec)
    s_c, _ = solve_root(f, INITIAL_BRACKET, root_tol)
    return (s_c, _slope(points, s_c),
            _interpolate_nodal(vec, coarse, mesh, degree), len(points))


def highorder_dimension(fam: MapFamily, mesh, degree: int, *,
                        root_tol: float = ROOT_TOL,
                        radius_tol: float = RADIUS_TOL) -> HighOrderResult:
    """Dimension estimate: root of log |lambda_dom(s)| (no certificate).

    A plan of at least 32768 entries starts on a mesh 16 times coarser:
    the root s_c there, at the same degree, is found by solve_root from
    INITIAL_BRACKET, and the fine root is taken from s_c by one Newton
    step on the coarse slope and secant steps, its first solve starting
    from the last coarse iterate interpolated onto the fine nodes.  A
    smaller plan is solved by solve_root from INITIAL_BRACKET alone.
    evals counts the matrices built on both meshes.
    """
    plan = collocation_plan(fam, mesh, degree)
    if plan.indices.size < _COARSE_MIN_ENTRIES:
        f, points = _log_magnitude(plan, radius_tol, _start_vector(plan.dim))
        s, _ = solve_root(f, INITIAL_BRACKET, root_tol)
        coarse_evals = 0
    else:
        s_c, slope, vec, coarse_evals = _coarse_start(
            fam, mesh, plan.degree, root_tol, radius_tol)
        f, points = _log_magnitude(plan, radius_tol, vec)
        s = _root_from(f, s_c, slope, root_tol)
    return HighOrderResult(s=s, degree=plan.degree, dim=plan.dim,
                           mesh_h=mesh.h, family_id=fam.family_id,
                           evals=coarse_evals + len(points))
