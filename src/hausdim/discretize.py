"""Collocation of the transfer operator on piecewise-linear hat functions.

A mesh of n uniform cells on each domain interval carries nodal values
w_0..w_n; the interpolant is evaluated at every mapped node theta_j(x_k)
and weighted by g_j(x_k)^s.  Three row-compressed nonnegative matrices
come out of one assembly pass:

    A: entries scaled by [1 - err_hi(y)]   (lower spectral bound)
    M: plain collocation, no correction
    B: entries scaled by [1 - err_lo(y)]   (upper spectral bound)

with err_hi(y) = coef_hi * Q(y), err_lo(y) = coef_lo * Q(y) and
Q(y) = (x_{r+1} - y)(y - x_r) on the cell containing y.  The coefficients
come from certified bounds on v''/v tilted by the oscillation rate, so
r(A) <= r(L_s) <= r(B) holds for the underlying operator.

Where theta_j(x_k) lands, its basis weights, Q and log g_j(x_k) do not
depend on s.  A CollocationPlan computes them once per (family, mesh,
degree) together with the merged sparsity pattern; each matrix at one s
is then a single pass over the plan's entries.  The degree-d Lagrange
basis of higher_order shares the same plan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse

from .bounds import ratio_bounds
from .errors import (
    BadParams,
    ErrTooLarge,
    MapEscapesDomain,
    NegativeEntry,
    OutOfDomain,
    ParamOutOfRange,
)
from .ifs import CLAMP_REL_TOL, MapFamily, eval_map

__all__ = [
    "Mesh", "MeshUnion", "make_mesh", "interp_weights", "ErrorModel",
    "error_model", "SparseNonnegMatrix", "MatrixTriple", "CollocationPlan",
    "collocation_plan", "assemble", "row_sums", "dump_matrix",
]


@dataclass(frozen=True, eq=False)
class Mesh:
    """Uniform mesh of n >= 2 cells on [a, b]; nodes x_k = a + k (b-a)/n.

    pieces and offsets read as for a one-piece MeshUnion.
    """

    a: float
    b: float
    n: int
    h: float
    nodes: np.ndarray

    @property
    def dim(self) -> int:
        return self.n + 1

    @property
    def pieces(self) -> tuple[Mesh]:
        return (self,)

    @property
    def offsets(self) -> tuple[int, int]:
        return (0, self.dim)


@dataclass(frozen=True, eq=False)
class MeshUnion:
    """Disjoint meshes over an increasing union of intervals.

    Node numbering concatenates the pieces; interpolation never crosses a
    gap because mapped points always land inside some piece.
    """

    pieces: tuple[Mesh, ...]
    nodes: np.ndarray
    offsets: tuple[int, ...]

    @property
    def dim(self) -> int:
        return int(self.offsets[-1])

    @property
    def h(self) -> float:
        return max(p.h for p in self.pieces)

    @property
    def span(self) -> tuple[float, float]:
        return self.pieces[0].a, self.pieces[-1].b


def _mesh_interval(a: float, b: float, n: int) -> Mesh:
    if n < 2:
        raise BadParams(f"mesh needs n >= 2 cells, got {n}")
    if not b > a:
        raise BadParams(f"empty mesh interval [{a}, {b}]")
    nodes = a + np.arange(n + 1, dtype=float) * (b - a) / n
    return Mesh(a=a, b=b, n=n, h=(b - a) / n, nodes=nodes)


def make_mesh(intervals, *, n: int | None = None, h: float | None = None):
    """Mesh one interval or an ordered union with a shared target width.

    Exactly one of n (total cell count) and h (cell width) must be given.
    Per-piece counts are rounded so every piece has at least two cells;
    the realized widths can differ from h by the rounding.
    """
    if (n is None) == (h is None):
        raise BadParams("give exactly one of n and h")
    if isinstance(intervals, tuple) and np.isscalar(intervals[0]):
        intervals = [intervals]
    intervals = [(float(a), float(b)) for a, b in intervals]
    if any(b <= a for a, b in intervals):
        raise BadParams("empty interval in mesh request")
    if h is not None and not (h > 0.0 and math.isfinite(h)):
        raise BadParams(f"need finite h > 0, got {h}")
    if len(intervals) == 1:
        a, b = intervals[0]
        nn = int(n) if n is not None else max(2, int(round((b - a) / h)))
        return _mesh_interval(a, b, nn)
    total = sum(b - a for a, b in intervals)
    width = h if h is not None else total / int(n)
    pieces = tuple(
        _mesh_interval(a, b, max(2, int(round((b - a) / width))))
        for a, b in intervals
    )
    offsets = [0]
    for p in pieces:
        offsets.append(offsets[-1] + p.dim)
    nodes = np.concatenate([p.nodes for p in pieces])
    return MeshUnion(pieces=pieces, nodes=nodes, offsets=tuple(offsets))


def _locate(mesh, ys: np.ndarray):
    """Cells and hat weights for query points, numbered globally.

    Returns (c_left, c_right, w_left, w_right, Q) with w_left + w_right = 1
    exactly and Q(y) = (x_{r+1} - y)(y - x_r) >= 0.  Points outside every
    piece by more than the clamp tolerance raise OutOfDomain.
    """
    pieces, offsets = mesh.pieces, mesh.offsets
    lo = pieces[0].a
    hi = pieces[-1].b
    tol = CLAMP_REL_TOL * (hi - lo)
    ys = np.asarray(ys, dtype=float)
    if np.any(ys < lo - tol) or np.any(ys > hi + tol):
        raise OutOfDomain("interpolation point outside the meshed domain")
    c0 = np.empty(ys.shape, dtype=np.int64)
    wl = np.empty(ys.shape, dtype=float)
    q = np.empty(ys.shape, dtype=float)
    assigned = np.zeros(ys.shape, dtype=bool)
    for piece, off in zip(pieces, offsets[:-1]):
        mask = (~assigned) & (ys >= piece.a - tol) & (ys <= piece.b + tol)
        if not np.any(mask):
            continue
        y = np.clip(ys[mask], piece.a, piece.b)
        r = np.searchsorted(piece.nodes, y, side="right") - 1
        r = np.clip(r, 0, piece.n - 1)
        t = np.clip((y - piece.nodes[r]) / piece.h, 0.0, 1.0)
        c0[mask] = off + r
        wl[mask] = 1.0 - t
        q[mask] = np.maximum((piece.nodes[r + 1] - y) * (y - piece.nodes[r]), 0.0)
        assigned[mask] = True
    if not np.all(assigned):
        raise OutOfDomain("interpolation point falls in a gap between pieces")
    return c0, c0 + 1, wl, 1.0 - wl, q


def interp_weights(mesh, y: float) -> tuple[int, float, float]:
    """Cell index and hat weights of one point: y -> (r, w_left, w_right).

    Node hits give a unit weight; the left cell owns interior nodes and
    the last cell owns the right endpoint.  Weights are normalized so
    w_left + w_right = 1 exactly.
    """
    c0, _, wl, wr, _ = _locate(mesh, np.asarray([float(y)]))
    return int(c0[0]), float(wl[0]), float(wr[0])


# ---------------------------------------------------------------------------
# error model


@dataclass(frozen=True)
class ErrorModel:
    """Correction coefficients for one (family, s, h).

    err_hi(y) = coef_hi * Q(y) scales the lower matrix A and
    err_lo(y) = coef_lo * Q(y) the upper matrix B, where
    coef_hi = R_hi/2 * exp(osc*h) and coef_lo = R_lo/2 * exp(-osc*h).
    coef_lo may be negative when only the symmetric generic bound is
    available; entries stay positive because coef_hi * h^2/4 < 1 is
    enforced at construction.
    """

    coef_hi: float
    coef_lo: float
    osc: float
    R_lo: float
    R_hi: float


def error_model(fam: MapFamily, s: float, h: float) -> ErrorModel:
    """Build the correction model from the certified v''/v enclosure."""
    if not h > 0.0:
        raise BadParams(f"need h > 0, got {h}")
    r_lo, r_hi, osc = ratio_bounds(fam, s)
    coef_hi = 0.5 * r_hi * math.exp(osc * h)
    coef_lo = 0.5 * r_lo * math.exp(-osc * h)
    if coef_hi * h * h / 4.0 >= 1.0:
        raise ErrTooLarge(
            f"correction {coef_hi * h * h / 4.0:.3g} >= 1 at h = {h}; refine the mesh"
        )
    return ErrorModel(coef_hi=coef_hi, coef_lo=coef_lo, osc=osc,
                      R_lo=r_lo, R_hi=r_hi)


# ---------------------------------------------------------------------------
# sparse matrices


class CsrMatrix:
    """Square matrix held only as a scipy CSR matrix.

    indptr, indices and data are the CSR's own arrays, so matrices built
    from one collocation plan share its pattern arrays.
    """

    def __init__(self, dim: int, indptr: np.ndarray, indices: np.ndarray,
                 data: np.ndarray):
        self.dim = int(dim)
        csr = scipy.sparse.csr_matrix((data, indices, indptr),
                                      shape=(self.dim, self.dim))
        self._csr = csr
        self.indptr, self.indices, self.data = csr.indptr, csr.indices, csr.data

    @property
    def nnz(self) -> int:
        return int(self.indptr[-1])

    def matvec(self, w: np.ndarray) -> np.ndarray:
        return self._csr @ w

    def toarray(self) -> np.ndarray:
        return self._csr.toarray()


class SparseNonnegMatrix(CsrMatrix):
    """Row-compressed nonnegative matrix with a fixed entry order.

    Within each row the columns are sorted ascending and duplicate
    (row, col) contributions were accumulated in map order, so repeated
    assemblies are bit-identical.
    """

    def __init__(self, dim: int, indptr: np.ndarray, indices: np.ndarray,
                 data: np.ndarray):
        if np.any(data < 0.0):
            raise NegativeEntry("matrix entries must be nonnegative")
        super().__init__(dim, indptr, indices, data)

    def row(self, k: int) -> list[tuple[int, float]]:
        sl = slice(self.indptr[k], self.indptr[k + 1])
        return list(zip(self.indices[sl].tolist(), self.data[sl].tolist()))

    def row_sums(self) -> np.ndarray:
        if np.any(np.diff(self.indptr) == 0):
            out = np.zeros(self.dim)
            nz = np.flatnonzero(np.diff(self.indptr) > 0)
            out[nz] = np.add.reduceat(self.data, self.indptr[nz])
            return out
        return np.add.reduceat(self.data, self.indptr[:-1])


def row_sums(matrix: SparseNonnegMatrix) -> np.ndarray:
    """Per-row sums in index order (fixed summation order)."""
    return matrix.row_sums()


def dump_matrix(matrix: SparseNonnegMatrix, n: int, s: float,
                family_id: str) -> str:
    """Text dump: header 'dim n s family-id', one 'row col value' per nonzero."""
    lines = [f"{matrix.dim} {n} {s:.17g} {family_id}"]
    for k in range(matrix.dim):
        for c, v in matrix.row(k):
            lines.append(f"{k} {c} {v:.17g}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True, eq=False)
class MatrixTriple:
    """The assembled (A, M, B) at one (family, mesh, s)."""

    A: SparseNonnegMatrix
    M: SparseNonnegMatrix
    B: SparseNonnegMatrix
    model: ErrorModel


# ---------------------------------------------------------------------------
# collocation plan

_MAX_DEGREE = 8


def _lagrange_rows(t: np.ndarray, degree: int) -> np.ndarray:
    """Weights of the d+1 equispaced-node Lagrange basis at local t."""
    u = degree * t
    out = np.ones((degree + 1, t.size))
    for q in range(degree + 1):
        for p in range(degree + 1):
            if p != q:
                out[q] *= (u - p) / (q - p)
    return out


def _fine_nodes(mesh, degree: int):
    """Global degree-d node vector plus per-piece offsets (fine and coarse)."""
    xs = []
    fine_offsets = [0]
    for piece in mesh.pieces:
        m = piece.n * degree
        xs.append(piece.a + np.arange(m + 1) * (piece.h / degree))
        fine_offsets.append(fine_offsets[-1] + m + 1)
    return (np.concatenate(xs), np.asarray(fine_offsets),
            np.asarray(mesh.offsets))


@dataclass(frozen=True, eq=False)
class CollocationPlan:
    """The s-independent part of the collocation matrices on one mesh.

    indptr/indices (int32) are the merged sparsity pattern shared by
    every matrix built from the plan.  weight, log_weight and q hold one
    value per contribution before coincident (row, col) pairs merge,
    already in merged order: contributions starts[k] .. starts[k+1]-1
    sum into stored entry k.  q is Q(y) of the hat basis (None for
    degree > 1).
    """

    dim: int
    degree: int
    indptr: np.ndarray
    indices: np.ndarray
    starts: np.ndarray
    weight: np.ndarray
    log_weight: np.ndarray
    q: np.ndarray | None

    def data(self, s: float, coef: float | None = None) -> np.ndarray:
        """Entries at s: merged sums of g^s * (1 - coef Q) * weight.

        coef = None builds the plain matrix (M, or the degree-d matrix);
        coef_hi gives A and coef_lo gives B.
        """
        vals = np.exp(s * self.log_weight)
        if coef is not None:
            fac = 1.0 - coef * self.q
            if np.any(fac <= 0.0):
                raise ErrTooLarge("matrix correction reached 1; refine the mesh")
            vals *= fac
        vals *= self.weight
        return np.add.reduceat(vals, self.starts)

    def matrix(self, s: float, coef: float | None = None) -> SparseNonnegMatrix:
        """Nonnegative matrix at s on the plan's pattern (see data)."""
        return SparseNonnegMatrix(self.dim, self.indptr, self.indices,
                                  self.data(s, coef))


def collocation_plan(fam: MapFamily, mesh, degree: int = 1) -> CollocationPlan:
    """Map images, basis weights and the merged pattern of one collocation.

    degree 1 collocates at the mesh nodes on the hat basis; degree d at
    the d*n+1 equispaced nodes of each piece on the piecewise degree-d
    Lagrange basis.  Row k collects, for every map j in index order, the
    basis weights of theta_j(x_k); a stable sort by (row, col) keeps map
    order among coincident pairs, which fixes their accumulation order.
    """
    if not isinstance(degree, (int, np.integer)) or isinstance(degree, bool):
        raise ParamOutOfRange(f"degree must be an integer, got {degree!r}")
    degree = int(degree)
    if not 1 <= degree <= _MAX_DEGREE:
        raise ParamOutOfRange(f"degree must be in 1..{_MAX_DEGREE}, got {degree}")
    if degree == 1:
        xs = mesh.nodes
    else:
        xs, fine_off, coarse_off = _fine_nodes(mesh, degree)
    cols, weights, log_weights, qs = [], [], [], []
    for j, spec in enumerate(fam.maps):
        ys = spec.eval(xs) if degree == 1 else eval_map(fam, j, xs)
        try:
            c0, c1, wl, wr, q = _locate(mesh, ys)
        except OutOfDomain as exc:
            raise MapEscapesDomain(f"map {spec.label!r}: {exc}") from None
        if degree == 1:
            parts = ((c0, wl), (c1, wr))
            qs += [q, q]
        else:
            piece = np.searchsorted(coarse_off, c0, side="right") - 1
            base = fine_off[piece] + (c0 - coarse_off[piece]) * degree
            parts = [(base + p, lag)
                     for p, lag in enumerate(_lagrange_rows(wr, degree))]
        logw = np.asarray(spec.log_weight(xs), dtype=float)
        for c, w in parts:
            cols.append(c)
            weights.append(w)
            log_weights.append(logw)
    dim = xs.size
    rows = np.tile(np.arange(dim), len(cols))
    cols = np.concatenate(cols)
    order = np.lexsort((cols, rows))
    rows = rows[order]
    cols = cols[order]
    newseg = np.ones(rows.shape, dtype=bool)
    newseg[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
    starts = np.flatnonzero(newseg)
    indptr = np.searchsorted(rows[starts], np.arange(dim + 1))
    return CollocationPlan(
        dim=dim, degree=degree, indptr=indptr.astype(np.int32),
        indices=cols[starts].astype(np.int32), starts=starts,
        weight=np.concatenate(weights)[order],
        log_weight=np.concatenate(log_weights)[order],
        q=np.concatenate(qs)[order] if degree == 1 else None,
    )


def assemble(fam: MapFamily, mesh, s: float,
             model: ErrorModel | None = None) -> MatrixTriple:
    """Assemble the lower/plain/upper collocation matrices at parameter s.

    All three come from one hat-basis collocation plan and share its
    sparsity pattern; A and B scale each contribution by its correction
    factor 1 - coef_hi Q and 1 - coef_lo Q before coincident entries
    accumulate.
    """
    if model is None:
        model = error_model(fam, s, mesh.h)
    plan = collocation_plan(fam, mesh)
    return MatrixTriple(A=plan.matrix(s, model.coef_hi), M=plan.matrix(s),
                        B=plan.matrix(s, model.coef_lo), model=model)
