"""Higher-order collocation (non-certified, fast-converging).

Piecewise degree-d Lagrange interpolation on each mesh cell replaces the
piecewise-linear hat basis: every cell carries d+1 equispaced local
nodes, adjacent cells share endpoints, and the collocation matrix acts
on the d*n+1 global node values per mesh piece.  Entries are signed, so
the Collatz-Wielandt machinery does not apply; the dominant eigenvalue
magnitude is estimated by plain power iteration with a dense fallback.
The root of log |lambda(s)| gives a dimension estimate whose accuracy
improves like h**(2d) but carries no certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .discretize import CollocationPlan, CsrMatrix, collocation_plan
from .errors import PowerDivergence
from .ifs import MapFamily
from .solver import solve_root


class HighOrderMatrix(CsrMatrix):
    """Signed sparse collocation matrix in CSR form."""

    def __init__(self, dim: int, degree: int, indptr: np.ndarray,
                 indices: np.ndarray, data: np.ndarray):
        super().__init__(dim, indptr, indices, data)
        self.degree = int(degree)


def _plan_matrix(plan: CollocationPlan, s: float) -> HighOrderMatrix:
    return HighOrderMatrix(dim=plan.dim, degree=plan.degree,
                           indptr=plan.indptr, indices=plan.indices,
                           data=plan.data(s))


def assemble_highorder(fam: MapFamily, mesh, s: float,
                       degree: int) -> HighOrderMatrix:
    """Degree-d collocation matrix; degree 1 is the plain hat matrix M."""
    return _plan_matrix(collocation_plan(fam, mesh, degree), s)


_SETTLE_RUNS = 10


def dominant_magnitude(mat: HighOrderMatrix, tol: float = 1e-13) -> float:
    """|lambda| of the dominant eigenvalue of a signed matrix.

    Power iteration on sup norms (at most 10*dim + 2000 steps) settles for
    a real dominant eigenvalue of either sign; oscillation (complex pair)
    falls back to a dense eigensolve for dim <= 2000 and raises
    PowerDivergence beyond.
    """
    dim = mat.dim
    max_iter = 10 * dim + 2000
    w = 1.0 + np.arange(dim) / (1000.0 * max(dim, 1))
    est_prev = math.inf
    settle = 0
    for _ in range(max_iter):
        mv = mat.matvec(w)
        nrm = float(np.max(np.abs(mv)))
        if nrm == 0.0:
            return 0.0
        est = nrm
        w = mv / nrm
        if abs(est - est_prev) <= tol * max(est, 1e-300):
            settle += 1
            if settle >= _SETTLE_RUNS:
                return est
        else:
            settle = 0
        est_prev = est
    if dim <= 2000:
        return float(np.max(np.abs(np.linalg.eigvals(mat.toarray()))))
    raise PowerDivergence(
        f"power iteration did not settle in {max_iter} steps (dim {dim})")


_INITIAL = (0.01, 1.5)  # starting bracket of the root solve


@dataclass(frozen=True)
class HighOrderResult:
    """Non-certified dimension estimate from degree-d collocation."""

    s: float
    degree: int
    dim: int
    mesh_h: float
    family_id: str
    evals: int


def highorder_dimension(fam: MapFamily, mesh, degree: int, *,
                        root_tol: float = 1e-12,
                        radius_tol: float = 1e-13) -> HighOrderResult:
    """Dimension estimate: root of log |lambda_dom(s)| (no certificate)."""
    plan = collocation_plan(fam, mesh, degree)

    def f(s: float) -> float:
        return math.log(dominant_magnitude(_plan_matrix(plan, s),
                                           tol=radius_tol))

    s, evals = solve_root(f, _INITIAL, root_tol)
    return HighOrderResult(s=s, degree=plan.degree, dim=plan.dim,
                           mesh_h=mesh.h, family_id=fam.family_id, evals=evals)
