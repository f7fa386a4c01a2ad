"""Higher-order collocation (non-certified, fast-converging).

Piecewise degree-d Lagrange interpolation on each mesh cell replaces the
piecewise-linear hat basis: every cell carries d+1 equispaced local
nodes, adjacent cells share endpoints, and the collocation matrix acts
on the d*n+1 global node values per mesh piece.  Entries are signed, so
the Collatz-Wielandt machinery does not apply; the dominant eigenvalue
magnitude is estimated by plain power iteration with a dense fallback.
The root of log |lambda(s)| gives a dimension estimate whose accuracy
improves like h**(2d) but carries no certificate.

As the estimate converges so fast, an estimate on a plan of 16384
entries or more starts the way a certified bracket does: it first
solves log |lambda(s)| = 0 on solver._coarse_mesh, the same intervals
meshed 16 times coarser, where a matrix costs about a sixteenth as
much, and solver._root finds every root on both meshes.  The last
coarse iterate, interpolated onto the fine nodes piece by piece, seeds
the first fine solve.  That solve is at the coarse root, and the root
solve goes on from there on the coarse slope.  At degree
6 the coarse root already meets the fine root_tol, so the fine mesh
builds one matrix, and its seeded solve stops after a few steps, once
the geometric tail of the estimate changes is below tol.  On a
domain of many short pieces, where the coarse mesh would keep more
than a tenth of the nodes, the estimate has no coarse level.
HighOrderResult.evals counts the matrices built on both meshes.

Both meshes solve on discretize.closed_plan, the rows of the closed
node set S (compacted where S keeps at most 3/4 of the degree-d
nodes), whose dominant eigenvalue is that of the full matrix; the
16384-entry cut-off counts the closed plan's entries.  The coarse
iterate is spread over the coarse S, NaN elsewhere, interpolated and
read at the fine S; where a fine node's coarse cell reaches outside
the coarse S, the fine solve starts cold.  HighOrderResult.dim stays
the mesh's degree-d node count.
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
    closed_plan,
)
from .errors import BadParams, PowerDivergence
from .ifs import MapFamily
from .solver import (
    _SIGN_REL,
    INITIAL_BRACKET,
    ROOT_TOL,
    _check_tols,
    _coarse_mesh,
    _root,
)
from .spectral import RADIUS_TOL, _product


class HighOrderMatrix(CsrMatrix):
    """Signed sparse collocation matrix in CSR form."""


def _plan_matrix(plan: CollocationPlan, s: float,
                 out: np.ndarray | None = None) -> HighOrderMatrix:
    return HighOrderMatrix(plan.dim, plan.indptr, plan.indices,
                           plan.data(s, out=out))


_SETTLE_RUNS = 10  # successive changes <= tol that settle the estimate
_TAIL_RUNS = 2  # successive changes <= tol that the tail stop needs
_TAIL_RHO = 0.9  # largest step ratio at which a tail stop trusts its tail
_SHRINK_STEPS = 64  # steps within which the estimate changes must shrink
# Smallest plan whose estimate starts on a coarse mesh, at the measured
# crossover.  Below it a power step costs its call overhead more than
# its entries, so the coarse solve, plan and interpolation cost what
# they save.  Timed both ways (medians of 31 alternated in-process
# runs), the coarse start took 1.09-1.4 times as long on plans of
# 6020-15020 entries, 0.81-1.06 times as long on 16725-21014 (cf{1,2}
# 0.82-0.84, a net gain over the band) and 0.6-0.92 times from 25025.
_COARSE_MIN_ENTRIES = 16384


def _start_vector(dim: int) -> np.ndarray:
    """Cold start of the power iteration: a slightly tilted all-ones."""
    return 1.0 + np.arange(dim) / (1000.0 * max(dim, 1))


def dominant_magnitude(mat: HighOrderMatrix, tol: float = RADIUS_TOL, *,
                       vec: np.ndarray | None = None,
                       sign_rel: float | None = None) -> float:
    """|lambda| of the dominant eigenvalue of a signed matrix.

    Power iteration on sup norms (at most 10*dim + 2000 steps) settles for
    a real dominant eigenvalue of either sign.  With d_k the change of
    the estimate at step k and rho = d_k/d_{k-1}, it stops once ten
    successive changes are at most tol * est, or earlier, once the
    geometric tail d_k/(1 - rho), taken where 0 < rho < 0.9, is at most
    tol * est and so were d_k and d_{k-1}.  The tail of one step alone
    can mislead: the step ratios of two subdominant eigenvalues of
    opposite sign alternate far below and far above 1, and the sup norm
    moving to another entry can make one change tiny while the estimate
    is still off.  Once the change of the estimate is no smaller than it
    was 64 steps before (oscillation, as for a complex pair), or the
    steps run out, it falls back to a dense eigensolve for dim <= 2000
    and raises PowerDivergence beyond.

    vec, a finite float64 array of shape (dim,) that is not all zero, is
    the start vector; the call overwrites it with its last normalized
    iterate, so the next solve can start there.  With sign_rel > 0 the
    iteration also stops once the tail is at most
    sign_rel * |log est| * est: log |lambda| is then pinned to that
    relative accuracy, which is all a secant step far from the root
    needs.  An exact repeat (d_k = 0) fires neither tail stop; it counts
    only toward the settle runs, so near the root, where |log est| is
    tiny, the sign stop cannot fire on it.
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
        w = vec  # iterated in place, so it ends as the last iterate
        np.divide(vec, float(np.max(np.abs(vec))), out=w)
    mv, mag = np.empty(dim), np.empty(dim)
    max_iter = 10 * dim + 2000
    est_prev = d_prev = math.inf
    settle = 0
    changes: deque[float] = deque(maxlen=_SHRINK_STEPS)
    with _product(mat) as product:
        for step in range(1, max_iter + 1):
            mv = product(w, mv)
            nrm = float(np.maximum.reduce(np.abs(mv, out=mag)))
            if nrm == 0.0:
                return 0.0
            est = nrm
            np.divide(mv, nrm, out=w)
            d = abs(est - est_prev)
            if d <= tol * max(est, 1e-300):
                settle += 1
                if settle >= _SETTLE_RUNS:
                    return est
            else:
                settle = 0
            rho = d / d_prev if 0.0 < d_prev < math.inf else 1.0
            tail = d / (1.0 - rho) if 0.0 < rho < _TAIL_RHO else math.inf
            if sign_rel is not None and \
                    tail <= sign_rel * abs(math.log(est)) * est:
                return est
            if settle >= _TAIL_RUNS and tail <= tol * est:
                return est
            if len(changes) == _SHRINK_STEPS and d >= changes[0]:
                break
            changes.append(d)
            est_prev, d_prev = est, d
    if dim <= 2000:
        return float(np.max(np.abs(np.linalg.eigvals(mat.toarray()))))
    raise PowerDivergence(
        f"power iteration did not settle in {step} steps (dim {dim})")


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
    """s -> log |lambda(s)| on one plan.

    Every matrix is built into one entry buffer, so the plan's matrices
    reuse its pages.  Every solve starts from vec, the iterate of the
    solve before it, and may stop once log |lambda| is pinned to 1%.
    """
    entries = np.empty(plan.weight.size)
    return lambda s: math.log(dominant_magnitude(
        _plan_matrix(plan, s, entries), tol=radius_tol, vec=vec,
        sign_rel=_SIGN_REL))


def highorder_dimension(fam: MapFamily, mesh, degree: int, *,
                        root_tol: float = ROOT_TOL,
                        radius_tol: float = RADIUS_TOL) -> HighOrderResult:
    """Dimension estimate: root of log |lambda_dom(s)| (no certificate).

    Both meshes solve on their closed plans (discretize.closed_plan).
    A closed plan of at least 16384 entries starts on a mesh 16 times
    coarser: the root s_c there, at the same degree, is found from
    INITIAL_BRACKET, and the fine root from s_c on the coarse slope, its
    first solve starting from the last coarse iterate interpolated onto
    the fine nodes (cold where that reads a node the coarse plan
    dropped).  A smaller plan, or one whose coarse mesh would keep more
    than a tenth of its nodes, is solved from INITIAL_BRACKET alone.
    Every root is found by solver._root.  evals counts the matrices
    built on both meshes; dim is the mesh's degree-d node count, not
    the closed plan's.  BadParams unless 0 < root_tol < inf and
    0 < radius_tol < inf, before any plan.
    """
    _check_tols(root_tol, radius_tol)
    plan = closed_plan(fam, mesh, degree)
    vec = _start_vector(plan.dim)
    start, coarse_evals = None, 0
    coarse = _coarse_mesh(mesh) \
        if plan.indices.size >= _COARSE_MIN_ENTRIES else None
    if coarse is not None:
        coarse_plan = closed_plan(fam, coarse, plan.degree)
        coarse_vec = _start_vector(coarse_plan.dim)
        s_c, slope, coarse_evals = _root(
            _log_magnitude(coarse_plan, radius_tol, coarse_vec),
            INITIAL_BRACKET, root_tol)
        start = (s_c, slope)
        # NaN on the coarse mesh's degree-d nodes outside its S.
        values = np.full(plan.degree * coarse.n + len(coarse.pieces), np.nan)
        values[coarse_plan.rows] = coarse_vec
        values = _interpolate_nodal(values, coarse, mesh,
                                    plan.degree)[plan.rows]
        if np.isfinite(values).all():
            vec[:] = values
    s, _, evals = _root(_log_magnitude(plan, radius_tol, vec),
                        INITIAL_BRACKET, root_tol, start)
    return HighOrderResult(s=s, degree=plan.degree,
                           dim=plan.degree * mesh.n + len(mesh.pieces),
                           mesh_h=mesh.h, family_id=fam.family_id,
                           evals=coarse_evals + evals)
