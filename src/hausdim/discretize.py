"""Collocation of the transfer operator on piecewise-linear hat functions.

A mesh of n uniform cells on each domain interval carries nodal values
w_0..w_n; the interpolant is evaluated at every mapped node theta_j(x_k)
and weighted by g_j(x_k)^s.  One collocation plan yields three
row-compressed nonnegative matrices at each s, on one shared pattern:

    A: entries scaled by [1 - err_hi(y)]   (lower spectral bound)
    M: plain collocation, no correction
    B: entries scaled by [1 - err_lo(y)]   (upper spectral bound)

with err_hi(y) = coef_hi * Q(y), err_lo(y) = coef_lo * Q(y) and
Q(y) = (x_{r+1} - y)(y - x_r) on the cell containing y.  The coefficients
come from certified bounds on v''/v tilted by the oscillation rate, so
r(A) <= r(L_s) <= r(B) holds for the underlying operator.

Where theta_j(x_k) lands, its basis weights, Q and log g_j(x_k) do not
depend on s.  A CollocationPlan computes them once per (family, mesh,
degree) with a sparsity pattern of one stored entry per contribution,
kept in the order collocation makes them; each matrix at one s is then
g^s and the correction once per (node, map) and one product per entry.
One loop serves every degree: the hat basis is the degree-1 case of the
piecewise Lagrange basis that higher_order uses.

The plan is filled in blocks of nodes, all maps at once, straight into
its final (node, map, basis) order, and the matrix entries at one s are
built block by block into their output buffer.  A point's cell on a
uniform piece comes from floor((y - a)/h) and one correcting step
against the piece's nodes, which picks the same cell as a binary search.
"""

from __future__ import annotations

import math
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
from .ifs import CLAMP_REL_TOL, MapFamily, _as_index, _as_real, eval_map

__all__ = [
    "Mesh", "make_mesh", "interp_weights", "ErrorModel",
    "error_model", "SparseNonnegMatrix", "CollocationPlan",
    "collocation_plan", "dump_matrix",
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
    intervals = [(_as_real(a, "interval start"), _as_real(b, "interval end"))
                 for a, b in intervals]
    if not intervals:
        raise BadParams("mesh request has no interval")
    if any(b <= a for a, b in intervals):
        raise BadParams("empty interval in mesh request")
    if any(b >= a for (_, b), (a, _) in zip(intervals, intervals[1:])):
        raise BadParams(f"mesh intervals must increase and be disjoint, "
                        f"got {intervals}")
    if h is not None:
        h = _as_real(h, "mesh width h")
        if not (h > 0.0 and math.isfinite(h)):
            raise BadParams(f"need a finite real h > 0, got {h!r}")
    if n is not None:
        n = _as_index(n, "mesh cell count")
        if n < 2:
            raise BadParams(f"mesh needs n >= 2 cells, got {n}")
    width = h if h is not None else sum(b - a for a, b in intervals) / n
    return _join([_mesh_piece(a, b, max(2, int(round((b - a) / width))))
                  for a, b in intervals])


def _join(pieces) -> Mesh:
    offsets = [0]
    for p in pieces:
        offsets.append(offsets[-1] + p.n + 1)
    nodes = np.concatenate([p.nodes for p in pieces])
    return Mesh(pieces=tuple(pieces), nodes=nodes, offsets=tuple(offsets))


def _cells(piece: MeshPiece, ys: np.ndarray):
    """Local cells, right hat weights and Q of points within one piece.

    The cell is the last node at or left of y, capped at n - 1, as
    searchsorted(nodes, y, side="right") - 1 would choose it, but found
    by arithmetic: floor((y - a) / h) and one step against the nodes.
    The guess is off by a few ulps of (|a| + |y - a|) / h cells, so
    one step suffices whenever a cell is wider than a few ulps of a.
    """
    nodes = piece.nodes
    y = np.clip(ys, piece.a, piece.b)
    r = np.minimum((y - piece.a) / piece.h, piece.n - 1).astype(np.intp)
    r = r - (nodes[r] > y)
    r = r + ((nodes[r + 1] <= y) & (r < piece.n - 1))
    x_r = nodes[r]
    t = np.clip((y - x_r) / piece.h, 0.0, 1.0)
    q = np.maximum((nodes[r + 1] - y) * (y - x_r), 0.0)
    return r, 1.0 - (1.0 - t), q


def _locate(mesh: Mesh, ys: np.ndarray):
    """Cells and right hat weights for query points, numbered globally.

    Returns (cell, w_right, Q): cell is the global index of the left node
    x_r of the cell containing y, w_right = fl(1 - fl(1 - t)) for the
    local coordinate t in [0, 1], so w_left = 1 - w_right is fl(1 - t)
    and w_left + w_right = 1 exactly, and Q(y) = (x_{r+1} - y)(y - x_r)
    >= 0.  A point within the clamp tolerance of several pieces belongs
    to the first.  Points outside every piece by more than the clamp
    tolerance raise OutOfDomain.
    """
    pieces, offsets = mesh.pieces, mesh.offsets
    lo, hi = mesh.span
    tol = CLAMP_REL_TOL * (hi - lo)
    ys = np.asarray(ys, dtype=float)
    within = bool(((ys >= lo - tol) & (ys <= hi + tol)).all())
    if not within and (np.any(ys < lo - tol) or np.any(ys > hi + tol)):
        raise OutOfDomain("interpolation point outside the meshed domain")
    if within and len(pieces) == 1:
        return _cells(pieces[0], ys)
    c0 = np.empty(ys.shape, dtype=np.intp)
    wr = np.empty(ys.shape, dtype=float)
    q = np.empty(ys.shape, dtype=float)
    assigned = np.zeros(ys.shape, dtype=bool)
    for piece, off in zip(pieces, offsets[:-1]):
        mask = (~assigned) & (ys >= piece.a - tol) & (ys <= piece.b + tol)
        if not np.any(mask):
            continue
        r, wr[mask], q[mask] = _cells(piece, ys[mask])
        c0[mask] = off + r
        assigned[mask] = True
    if not np.all(assigned):
        raise OutOfDomain("interpolation point falls in a gap between pieces")
    return c0, wr, q


def interp_weights(mesh: Mesh, y: float) -> tuple[int, float, float]:
    """Cell index and hat weights of one point: y -> (r, w_left, w_right).

    Node hits give a unit weight; the left cell owns interior nodes and
    the last cell owns the right endpoint.  Weights are normalized so
    w_left + w_right = 1 exactly.
    """
    c0, wr, _ = _locate(mesh, np.asarray([float(y)]))
    return int(c0[0]), float(1.0 - wr[0]), float(wr[0])


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

    A collocation matrix keeps one entry per contribution in the order
    collocation makes them: within a row, map by map, each map's basis
    columns consecutive.  A (row, col) pair repeats where two maps share
    a cell; the matvec sums them.
    """

    def __init__(self, dim: int, indptr: np.ndarray, indices: np.ndarray,
                 data: np.ndarray):
        if not (data >= 0.0).all():
            raise NegativeEntry("matrix entries must be nonnegative, not NaN")
        super().__init__(dim, indptr, indices, data)

    def row(self, k: int) -> list[tuple[int, float]]:
        sl = slice(self.indptr[k], self.indptr[k + 1])
        return list(zip(self.indices[sl].tolist(), self.data[sl].tolist()))


def dump_matrix(matrix: SparseNonnegMatrix, n: int, s: float,
                family_id: str) -> str:
    """Text dump: header 'dim n s family-id', one 'row col value' per entry."""
    lines = [f"{matrix.dim} {n} {s:.17g} {family_id}"]
    for k in range(matrix.dim):
        for c, v in matrix.row(k):
            lines.append(f"{k} {c} {v:.17g}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# collocation plan

_MAX_DEGREE = 8
# (node, map) pairs per block of the plan build and of CollocationPlan.data:
# enough that per-map calls are few and that every degree-6 plan at
# h = 0.002 builds its entries whole, few enough that a block's
# temporaries stay small next to a wide plan.
_BLOCK = 1 << 17


def _lagrange_rows(t: np.ndarray, degree: int,
                   out: np.ndarray | None = None) -> np.ndarray:
    """Weights of the d+1 equispaced-node Lagrange basis at local t.

    Row q of the (d+1, t.size) result holds basis q; out, when given, is
    filled instead (a transposed view of the plan's weights, say).
    """
    u = degree * t
    if out is None:
        out = np.empty((degree + 1, t.size))
    for q in range(degree + 1):
        row = None
        for p in range(degree + 1):
            if p != q:
                factor = u - p
                factor /= q - p
                row = factor if row is None else np.multiply(row, factor, out=row)
        out[q] = row
    return out


@dataclass(frozen=True, eq=False)
class CollocationPlan:
    """The s-independent part of the collocation matrices on one mesh.

    Row k stores its P = (degree+1) * n_maps contributions as separate
    entries, in the order collocation makes them: map j's d+1 consecutive
    columns base_j(k) + p, maps in order, so indptr is
    arange(0, P*dim + 1, P).  indptr/indices (int32) are shared by every
    matrix built from the plan.  log_weight and q (the hat basis's Q,
    largest value q_max; None for degree > 1) hold one value per
    (node, map), weight one per entry.  collocation_plan fills every
    array in this final order, one block of _BLOCK (node, map) pairs
    at a time, and data builds the entries block by block too.
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
        factor 1 - coef Q is positive when coef * q_max < 1.  g^s and
        1 - coef Q are computed once per (node, map) and repeated over
        the d+1 basis entries.  A plan of more than _BLOCK (node, map)
        pairs goes a block at a time into the output buffer, so the
        only full-size array made is the output itself.
        """
        if coef is not None:
            if self.q is None:
                raise BadParams(
                    f"a correction needs the hat basis, not degree {self.degree}")
            if not (math.isfinite(coef) and coef * self.q_max < 1.0):
                raise ErrTooLarge(f"matrix correction {coef!r} * Q reaches 1; "
                                  "refine the mesh")
        n_basis = self.degree + 1
        if self.log_weight.size <= _BLOCK:
            vals = np.repeat(self._factor(s, coef, slice(None)), n_basis)
            vals *= self.weight
            return vals
        out = np.empty(self.weight.size)
        for lo in range(0, self.log_weight.size, _BLOCK):
            entries = slice(lo * n_basis, (lo + _BLOCK) * n_basis)
            g = self._factor(s, coef, slice(lo, lo + _BLOCK))
            np.multiply(np.repeat(g, n_basis), self.weight[entries],
                        out=out[entries])
        return out

    def _factor(self, s: float, coef: float | None, pairs: slice) -> np.ndarray:
        """g^s * (1 - coef Q) for the (node, map) pairs in the slice."""
        g = np.multiply(self.log_weight[pairs], s)
        np.exp(g, out=g)
        if coef is not None:
            fix = np.multiply(self.q[pairs], coef)
            np.subtract(1.0, fix, out=fix)
            g *= fix
        return g

    def matrix(self, s: float, coef: float | None = None) -> SparseNonnegMatrix:
        """Nonnegative matrix at s on the plan's pattern (see data)."""
        return SparseNonnegMatrix(self.dim, self.indptr, self.indices,
                                  self.data(s, coef))


def _as_degree(degree) -> int:
    """A basis degree in 1.._MAX_DEGREE (a bool is not an integer here)."""
    if not isinstance(degree, (int, np.integer)) or isinstance(degree, bool):
        raise ParamOutOfRange(f"degree must be an integer, got {degree!r}")
    degree = int(degree)
    if not 1 <= degree <= _MAX_DEGREE:
        raise ParamOutOfRange(f"degree must be in 1..{_MAX_DEGREE}, got {degree}")
    return degree


def _degree_nodes(mesh: Mesh, degree: int) -> Mesh:
    """The degree-d nodes of mesh: those of the mesh with d*n cells per piece."""
    return _join([_mesh_piece(p.a, p.b, p.n * degree) for p in mesh.pieces])


def _map_error(fam: MapFamily, mesh: Mesh, x: np.ndarray) -> Exception:
    """The error of the first map, in order, that cannot collocate at x.

    Map by map, a missing log_weight is MissingDerivatives, an image
    outside the mesh MapEscapesDomain and a log_weight that is not
    finite at x ParamOutOfRange; each names the map.  collocation_plan
    calls it once some block has failed, so the error does not depend
    on which block failed first.
    """
    for j, spec in enumerate(fam.maps):
        if spec.log_weight is None:
            return MissingDerivatives(f"map {spec.label!r} has no log_weight")
        try:
            _locate(mesh, eval_map(fam, j, x))
        except OutOfDomain as exc:
            return MapEscapesDomain(f"map {spec.label!r}: {exc}")
        if not np.isfinite(spec.log_weight(x)).all():
            return ParamOutOfRange(
                f"weight of map {spec.label!r} is not positive on the domain")
    raise AssertionError("every map collocates at x")


def collocation_plan(fam: MapFamily, mesh: Mesh,
                     degree: int = 1) -> CollocationPlan:
    """Map images, basis weights and the CSR pattern of one collocation.

    Degree d collocates at the nodes of the mesh with d*n cells per
    piece on the piecewise degree-d Lagrange basis; degree 1 is the hat
    basis on the mesh nodes.  Row k holds, for every map j in order, the
    d+1 basis weights of theta_j(x_k) on consecutive columns.  A mesh
    that reaches outside fam.domain raises OutOfDomain.  Checked map by
    map, a map without log_weight raises MissingDerivatives, one with an
    image outside the mesh MapEscapesDomain, and one whose log_weight is
    not finite at a collocation node ParamOutOfRange.

    The nodes go in blocks of about _BLOCK (node, map) pairs: every map
    and log-weight is evaluated on the block, one _locate call finds all
    its images, and each result is written into its final slice.
    """
    degree = _as_degree(degree)
    lo, hi = fam.domain
    tol = CLAMP_REL_TOL * (hi - lo)
    if mesh.span[0] < lo - tol or mesh.span[1] > hi + tol:
        raise OutOfDomain(
            f"mesh span {mesh.span} leaves the domain [{lo}, {hi}]")
    fine = _degree_nodes(mesh, degree)
    x = fine.nodes
    # eval_map's domain check and clip, once for every map and block.
    if (any(spec.log_weight is None for spec in fam.maps)
            or np.any(x < lo - tol) or np.any(x > hi + tol)):
        raise _map_error(fam, mesh, x)
    x_in = np.clip(x, lo, hi)
    # Degree-d column of each mesh node: cell c spans base[c] .. base[c]+d.
    base = np.concatenate([off + degree * np.arange(p.n + 1, dtype=np.int32)
                           for p, off in zip(mesh.pieces, fine.offsets)])
    n_maps, n_basis = fam.n_maps, degree + 1
    indices = np.empty(fine.dim * n_maps * n_basis, dtype=np.int32)
    weight = np.empty(indices.size)
    log_weight = np.empty(fine.dim * n_maps)
    q = np.empty(log_weight.size) if degree == 1 else None
    step = max(1, _BLOCK // n_maps)
    images = np.empty((step, n_maps))
    logs = np.empty((step, n_maps))
    for start in range(0, fine.dim, step):
        nodes = slice(start, min(start + step, fine.dim))
        y, lw = images[:nodes.stop - start], logs[:nodes.stop - start]
        for j, spec in enumerate(fam.maps):
            y[:, j] = spec.eval(x_in[nodes])
            lw[:, j] = spec.log_weight(x[nodes])
        try:
            cell, wr, qb = _locate(mesh, y.ravel())
        except OutOfDomain:
            cell = None
        if cell is None or not np.isfinite(lw).all():
            raise _map_error(fam, mesh, x)
        pairs = slice(start * n_maps, nodes.stop * n_maps)
        log_weight[pairs] = lw.ravel()
        if q is not None:
            q[pairs] = qb
        entries = slice(pairs.start * n_basis, pairs.stop * n_basis)
        cols = indices[entries].reshape(-1, n_basis).T
        cols[0] = base[cell]
        for p in range(1, n_basis):
            np.add(cols[0], p, out=cols[p])
        _lagrange_rows(wr, degree, out=weight[entries].reshape(-1, n_basis).T)
    return CollocationPlan(
        dim=fine.dim, degree=degree,
        indptr=np.arange(0, indices.size + 1, n_maps * n_basis, dtype=np.int32),
        indices=indices, weight=weight, log_weight=log_weight, q=q,
        q_max=None if q is None else float(q.max()),
    )


def _interpolate_nodal(values: np.ndarray, mesh: Mesh, target: Mesh,
                       degree: int) -> np.ndarray:
    """The degree-d interpolant of nodal values, read at another mesh's nodes.

    values holds one value per degree-d node of mesh, in the node order
    of collocation_plan(fam, mesh, degree); the result holds one per
    degree-d node of target, whose pieces must span the same intervals
    as those of mesh.  Each node of a target piece lies in a cell of the
    matching piece of mesh (found as collocation_plan finds an image's
    cell) and takes the Lagrange combination of that cell's d+1 values,
    so no piece reads another piece's values.  Polynomials of degree
    <= d on a piece are reproduced up to rounding.
    """
    degree = _as_degree(degree)
    source, nodes = _degree_nodes(mesh, degree), _degree_nodes(target, degree)
    values = np.asarray(values, dtype=float)
    if values.shape != (source.dim,):
        raise BadParams(f"need {source.dim} nodal values, got shape "
                        f"{values.shape}")
    if [(p.a, p.b) for p in mesh.pieces] != \
            [(p.a, p.b) for p in target.pieces]:
        raise BadParams("interpolation meshes must cover the same pieces")
    out = np.empty(nodes.dim)
    local = np.arange(degree + 1)[:, None]
    for piece, lo, at, node_piece in zip(mesh.pieces, source.offsets,
                                         nodes.offsets, nodes.pieces):
        cell, wr, _ = _cells(piece, node_piece.nodes)
        own = values[lo:lo + piece.n * degree + 1]
        basis = _lagrange_rows(wr, degree)
        basis *= own[degree * cell + local]
        out[at:at + node_piece.n + 1] = basis.sum(axis=0)
    return out
