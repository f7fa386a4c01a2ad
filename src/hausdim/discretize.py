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
degree) with a sparsity pattern of one stored entry per contribution;
each matrix at one s is then one product per entry.  The degree-d
Lagrange basis of higher_order shares the same plan.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np
import scipy.sparse

from .bounds import BoundPlan, ratio_bounds
from .errors import (
    BadParams,
    ErrTooLarge,
    MapEscapesDomain,
    MissingDerivatives,
    NegativeEntry,
    OutOfDomain,
    ParamOutOfRange,
)
from .ifs import CLAMP_REL_TOL, MapFamily, eval_map

__all__ = [
    "Mesh", "make_mesh", "interp_weights", "ErrorModel",
    "error_model", "SparseNonnegMatrix", "MatrixTriple", "CollocationPlan",
    "collocation_plan", "assemble", "row_sums", "dump_matrix",
]


@dataclass(frozen=True, eq=False)
class MeshPiece:
    """Uniform n >= 2 cells on [a, b]; nodes x_k = a + k h with h = (b-a)/n."""

    a: float
    b: float
    n: int
    h: float
    nodes: np.ndarray


@dataclass(frozen=True, eq=False)
class Mesh:
    """Uniform meshes on an increasing union of one or more intervals.

    Node numbering concatenates the pieces: piece i owns the global nodes
    offsets[i] .. offsets[i+1]-1.  Interpolation never crosses a gap
    because mapped points always land inside some piece.  n is the total
    cell count, dim the total node count, h the widest piece's cell
    width and span the outer ends of the union.
    """

    pieces: tuple[MeshPiece, ...]
    nodes: np.ndarray
    offsets: tuple[int, ...]

    @property
    def dim(self) -> int:
        return int(self.offsets[-1])

    @property
    def n(self) -> int:
        return sum(p.n for p in self.pieces)

    @property
    def h(self) -> float:
        return max(p.h for p in self.pieces)

    @property
    def span(self) -> tuple[float, float]:
        return self.pieces[0].a, self.pieces[-1].b


def _mesh_piece(a: float, b: float, n: int) -> MeshPiece:
    nodes = a + np.arange(n + 1, dtype=float) * (b - a) / n
    return MeshPiece(a=a, b=b, n=n, h=(b - a) / n, nodes=nodes)


def make_mesh(intervals, *, n: int | None = None,
              h: float | None = None) -> Mesh:
    """Mesh one interval or an ordered union with a shared target width.

    Exactly one of n (total cell count, an integer >= 2) and h (cell width)
    must be given; n sets the target width to the total length over n.
    The intervals must be nonempty, increasing and disjoint.  Per-piece
    counts are rounded so every piece has at least two cells; the
    realized widths can differ from the target by the rounding.
    """
    if (n is None) == (h is None):
        raise BadParams("give exactly one of n and h")
    if isinstance(intervals, tuple) and intervals and np.isscalar(intervals[0]):
        intervals = [intervals]
    intervals = [(float(a), float(b)) for a, b in intervals]
    if not intervals:
        raise BadParams("mesh request has no interval")
    if any(b <= a for a, b in intervals):
        raise BadParams("empty interval in mesh request")
    if any(b >= a for (_, b), (a, _) in zip(intervals, intervals[1:])):
        raise BadParams(f"mesh intervals must increase and be disjoint, "
                        f"got {intervals}")
    if h is not None and not (h > 0.0 and math.isfinite(h)):
        raise BadParams(f"need finite h > 0, got {h}")
    if n is not None:
        try:
            n = operator.index(n)
        except TypeError:
            raise BadParams(f"mesh cell count must be an integer, "
                            f"got {n!r}") from None
        if n < 2:
            raise BadParams(f"mesh needs n >= 2 cells, got {n}")
    width = h if h is not None else sum(b - a for a, b in intervals) / n
    pieces = tuple(
        _mesh_piece(a, b, max(2, int(round((b - a) / width))))
        for a, b in intervals
    )
    offsets = [0]
    for p in pieces:
        offsets.append(offsets[-1] + p.n + 1)
    nodes = np.concatenate([p.nodes for p in pieces])
    return Mesh(pieces=pieces, nodes=nodes, offsets=tuple(offsets))


def _locate(mesh: Mesh, ys: np.ndarray):
    """Cells and hat weights for query points, numbered globally.

    Returns (c_left, c_right, w_left, w_right, Q) with w_left + w_right = 1
    exactly and Q(y) = (x_{r+1} - y)(y - x_r) >= 0.  Points outside every
    piece by more than the clamp tolerance raise OutOfDomain.
    """
    pieces, offsets = mesh.pieces, mesh.offsets
    lo, hi = mesh.span
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


def interp_weights(mesh: Mesh, y: float) -> tuple[int, float, float]:
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


def error_model(fam: MapFamily, s: float, h: float,
                bound_plan: BoundPlan | None = None) -> ErrorModel:
    """Build the correction model from the certified v''/v enclosure.

    A custom family's bounds are read off bound_plan (see ratio_bounds);
    a caller that needs many s passes one plan to all of them.
    """
    if not h > 0.0:
        raise BadParams(f"need h > 0, got {h}")
    r_lo, r_hi, osc = ratio_bounds(fam, s, bound_plan)
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

    A collocation matrix sorts each row's columns ascending and keeps one
    entry per contribution, so a (row, col) pair repeats, in map order,
    where two maps share a cell; the matvec sums them.
    """

    def __init__(self, dim: int, indptr: np.ndarray, indices: np.ndarray,
                 data: np.ndarray):
        if not (data >= 0.0).all():
            raise NegativeEntry("matrix entries must be nonnegative, not NaN")
        super().__init__(dim, indptr, indices, data)

    def row(self, k: int) -> list[tuple[int, float]]:
        sl = slice(self.indptr[k], self.indptr[k + 1])
        return list(zip(self.indices[sl].tolist(), self.data[sl].tolist()))

    def row_sums(self) -> np.ndarray:
        out = np.zeros(self.dim)
        nz = np.flatnonzero(np.diff(self.indptr) > 0)
        out[nz] = np.add.reduceat(self.data, self.indptr[nz])
        return out


def row_sums(matrix: SparseNonnegMatrix) -> np.ndarray:
    """Per-row sums in index order (fixed summation order)."""
    return matrix.row_sums()


def dump_matrix(matrix: SparseNonnegMatrix, n: int, s: float,
                family_id: str) -> str:
    """Text dump: header 'dim n s family-id', one 'row col value' per entry."""
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


def _fine_nodes(mesh: Mesh, degree: int):
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

    Row k stores its P = (degree+1) * n_maps contributions as separate
    entries, sorted by column with ties in map order: indptr is
    arange(0, P*dim + 1, P).  indptr/indices (int32) are shared by every
    matrix built from the plan; weight, log_weight and q (the hat basis's
    Q, largest value q_max; None for degree > 1) hold one value per entry.
    """

    dim: int
    degree: int
    indptr: np.ndarray
    indices: np.ndarray
    weight: np.ndarray
    log_weight: np.ndarray
    q: np.ndarray | None
    q_max: float | None

    def data(self, s: float, coef: float | None = None) -> np.ndarray:
        """Entries at s: g^s * (1 - coef Q) * weight, one per contribution.

        coef = None builds the plain matrix (M, or the degree-d matrix);
        coef_hi gives A and coef_lo gives B (hat basis only).  Every
        factor 1 - coef Q is positive when coef * q_max < 1.
        """
        vals = np.exp(s * self.log_weight)
        if coef is not None:
            if self.q is None:
                raise BadParams(
                    f"a correction needs the hat basis, not degree {self.degree}")
            if not (math.isfinite(coef) and coef * self.q_max < 1.0):
                raise ErrTooLarge(f"matrix correction {coef!r} * Q reaches 1; "
                                  "refine the mesh")
            vals *= 1.0 - coef * self.q
        vals *= self.weight
        return vals

    def matrix(self, s: float, coef: float | None = None) -> SparseNonnegMatrix:
        """Nonnegative matrix at s on the plan's pattern (see data)."""
        return SparseNonnegMatrix(self.dim, self.indptr, self.indices,
                                  self.data(s, coef))


def collocation_plan(fam: MapFamily, mesh: Mesh,
                     degree: int = 1) -> CollocationPlan:
    """Map images, basis weights and the CSR pattern of one collocation.

    degree 1 collocates at the mesh nodes on the hat basis; degree d at
    the d*n+1 equispaced nodes of each piece on the piecewise degree-d
    Lagrange basis.  Row k holds, for every map j, the basis weights of
    theta_j(x_k); a stable per-row sort by column keeps map order among
    coincident columns.  A mesh that reaches outside fam.domain raises
    OutOfDomain, a map without log_weight MissingDerivatives, and one
    whose log_weight is not finite at a collocation node ParamOutOfRange.
    """
    if not isinstance(degree, (int, np.integer)) or isinstance(degree, bool):
        raise ParamOutOfRange(f"degree must be an integer, got {degree!r}")
    degree = int(degree)
    if not 1 <= degree <= _MAX_DEGREE:
        raise ParamOutOfRange(f"degree must be in 1..{_MAX_DEGREE}, got {degree}")
    lo, hi = fam.domain
    tol = CLAMP_REL_TOL * (hi - lo)
    if mesh.span[0] < lo - tol or mesh.span[1] > hi + tol:
        raise OutOfDomain(
            f"mesh span {mesh.span} leaves the domain [{lo}, {hi}]")
    if degree == 1:
        xs = mesh.nodes
    else:
        xs, fine_off, coarse_off = _fine_nodes(mesh, degree)
    cols, weights, log_weights, qs = [], [], [], []
    for j, spec in enumerate(fam.maps):
        if spec.log_weight is None:
            raise MissingDerivatives(f"map {spec.label!r} has no log_weight")
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
        if not np.isfinite(logw).all():
            raise ParamOutOfRange(
                f"weight of map {spec.label!r} is not positive on the domain")
        for c, w in parts:
            cols.append(c)
            weights.append(w)
            log_weights.append(logw)
    order = np.argsort(np.stack(cols, axis=1), axis=1, kind="stable")

    def in_order(parts) -> np.ndarray:
        return np.take_along_axis(np.stack(parts, axis=1), order, axis=1).ravel()

    q = in_order(qs) if degree == 1 else None
    return CollocationPlan(
        dim=xs.size, degree=degree,
        indptr=np.arange(0, order.size + 1, len(cols), dtype=np.int32),
        indices=in_order(cols).astype(np.int32), weight=in_order(weights),
        log_weight=in_order(log_weights), q=q,
        q_max=None if q is None else float(q.max()),
    )


def assemble(fam: MapFamily, mesh: Mesh, s: float,
             model: ErrorModel | None = None) -> MatrixTriple:
    """Assemble the lower/plain/upper collocation matrices at parameter s.

    All three come from one hat-basis collocation plan and share its
    sparsity pattern; A and B scale each entry by its correction factor
    1 - coef_hi Q and 1 - coef_lo Q.
    """
    if model is None:
        model = error_model(fam, s, mesh.h)
    plan = collocation_plan(fam, mesh)
    return MatrixTriple(A=plan.matrix(s, model.coef_hi), M=plan.matrix(s),
                        B=plan.matrix(s, model.coef_lo), model=model)
