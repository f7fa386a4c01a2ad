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

The plan is built in two passes over blocks of nodes, all maps at
once.  Pass 1 evaluates every map at every node (a digit family in one
broadcast over its digits), checks every input and finds each image's
cell, right hat weight and, on the hat basis, Q; pass 2 writes the basis
weights and column indices of the rows the plan keeps straight into
their final (node, map, basis) order.  The matrix entries at one s are
built block by block into their output buffer.  _locate places points
on any mesh in two steps: the cell step, a binary search over the piece
ends, then the cell from floor((y - a)/h) and one correcting step
against the mesh nodes; and the t/Q step, the local coordinate and Q in
that cell.

L_s only sees the invariant set, and most nodes of a sparse digit set
or Cantor set are never read.  closed_plan keeps the closed node set S,
the largest set whose rows read only columns in S, peeled from pass 1's
first columns.  In the order (S, rest) every plan matrix is block lower
triangular with a nilpotent rest block, so the spectral radii, the
degree-d |lambda| and the Collatz-Wielandt bounds are exactly those of
the S x S block.  Pass 2 visits S's rows only (cf{1,2} at h = 1e-4
keeps 240 of 10001 nodes), and no dropped row is weighed; brackets and
degree-d estimates solve there.  collocation_plan runs the same pass 2
with S = every node, so radius, log_radius, enclosure_at and
--dump-matrix show the full A, M and B.

The one compiled loop the pipeline runs is scipy's CSR matvec.  Its
extension module is loaded from its file, not through scipy.sparse,
whose import would take more than the rest of hausdim's; nothing here
imports scipy.sparse unless that file is missing or does not load.

Wide plans run on two threads where the process may use two CPUs
(_in_halves): from _SPLIT_MIN_ENTRIES entries on, the matvec's two row
halves and the blocks of data and of both plan passes.  The caller runs
the first half and a helper thread the second.  A power solve holds one
helper for all its matvecs (CsrMatrix._held); any other call starts its
own and joins it before returning.  Every item writes its own part of
the output with the same operations as the serial loop, so every bit is
the same.  A custom family's pass 1 stays serial: its maps are the
caller's callables.

Block work runs in arrays each half makes once per call (_Scratch, the
Lagrange rows' work, data's g^s), not in new arrays per block, and a
caller that builds matrix after matrix on one plan passes one entry
buffer to every data or matrix call.  A new array of 128 KB or more
is mapped afresh by the C allocator, and its first touch costs about
2.6 us per 4 KB page, more than reusing memory already touched.
"""

from __future__ import annotations

import contextlib
import copy
import importlib.machinery
import importlib.util
import math
import os
import sys
import threading
from dataclasses import dataclass
from functools import cached_property

import numpy as np

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
from .ifs import (
    CLAMP_REL_TOL,
    CUSTOM,
    MapFamily,
    _as_index,
    _as_real,
    eval_all_maps,
    eval_map,
)

__all__ = [
    "Mesh", "make_mesh", "interp_weights", "ErrorModel",
    "error_model", "SparseNonnegMatrix", "CollocationPlan",
    "collocation_plan", "closed_plan", "dump_matrix",
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

    @cached_property
    def _piece_arrays(self) -> tuple[np.ndarray, ...]:
        """Each piece's a, b, h, cell count and first global node, for _locate."""
        a, b, h = np.array([(p.a, p.b, p.h) for p in self.pieces]).T
        return a, b, h, np.diff(self.offsets) - 1, np.array(self.offsets[:-1])


# Most nodes a mesh may have: the plan's column indices are int32.
_MAX_NODES = 2**31 - 1


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
    realized widths can differ from the target by the rounding.  A mesh
    of more than 2^31 - 1 nodes raises BadParams before any allocation.
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
    # Capped before rounding: an infinite or NaN count fails here too.
    cells = [max(2, round(min(_MAX_NODES, (b - a) / width)))
             for a, b in intervals]
    if sum(cells) + len(cells) > _MAX_NODES:
        raise BadParams(f"mesh needs more than {_MAX_NODES} nodes, the most "
                        f"int32 column indices reach")
    return _join([_mesh_piece(a, b, c) for (a, b), c in zip(intervals, cells)])


def _join(pieces) -> Mesh:
    offsets = [0]
    for p in pieces:
        offsets.append(offsets[-1] + p.n + 1)
    nodes = np.concatenate([p.nodes for p in pieces])
    return Mesh(pieces=tuple(pieces), nodes=nodes, offsets=tuple(offsets))


class _Scratch:
    """Work arrays of the cell and t/Q steps for up to size points.

    _find_cells and _hat run every operation into these, in place: the
    cell and the clipped point go to cell and y, the rest through f, m
    and m2.  A caller that locates points block by block makes one per
    thread and passes it to every call, so on a one-piece mesh no block
    maps a new array; each call uses the first ys.size entries.
    """

    def __init__(self, size: int):
        self.cell = np.empty(size, dtype=np.intp)
        self.y = np.empty(size)
        self.f = np.empty(size)
        self.m = np.empty(size, dtype=bool)
        self.m2 = np.empty(size, dtype=bool)


def _find_cells(mesh: Mesh, ys: np.ndarray, work: _Scratch | None = None):
    """The cell step of _locate: (cell, y, h) for query points.

    cell is the global index of the left node x_r of the cell containing
    y, y the point clipped to its piece [a, b] and h that piece's cell
    width (one value when the mesh has one piece).  A point within the
    clamp tolerance of several pieces belongs to the first: the first
    piece whose end plus the tolerance is at or right of y.  Points
    outside every piece by more than the clamp tolerance raise
    OutOfDomain, and a NaN point ParamOutOfRange.

    Clipped, y takes the last node at or left of it, capped at the
    piece's last cell, as searchsorted would, but found by arithmetic:
    floor((y - a) / h) and one step against the nodes.  The guess is off
    by a few ulps of (|a| + |y - a|) / h cells, so one step suffices
    whenever a cell is wider than a few ulps of a.  cell and y are views
    of work's arrays (of a new _Scratch when work is None); a mesh of
    several pieces also makes the per-point piece arrays.
    """
    lo, hi = mesh.span
    tol = CLAMP_REL_TOL * (hi - lo)
    ys = np.asarray(ys, dtype=float)
    if work is None:
        work = _Scratch(ys.size)
    n_pts = ys.size
    r, y, f, m, m2 = (work.cell[:n_pts], work.y[:n_pts], work.f[:n_pts],
                      work.m[:n_pts], work.m2[:n_pts])
    a, b, h, n, first = mesh._piece_arrays
    i = 0 if b.size == 1 else np.minimum(np.searchsorted(b + tol, ys),
                                         b.size - 1)
    a, b, h, n, first = a[i], b[i], h[i], n[i], first[i]
    np.greater_equal(ys, a - tol, out=m)
    np.less_equal(ys, b + tol, out=m2)
    m &= m2
    if not m.all():
        if np.isnan(ys).any():
            raise ParamOutOfRange("interpolation point is NaN")
        if np.any(ys < lo - tol) or np.any(ys > hi + tol):
            raise OutOfDomain("interpolation point outside the meshed domain")
        raise OutOfDomain("interpolation point falls in a gap between pieces")
    nodes = mesh.nodes
    np.clip(ys, a, b, out=y)
    np.subtract(y, a, out=f)
    f /= h
    np.minimum(f, n - 1, out=f)
    r[...] = f  # truncated, as astype(np.intp)
    r += first
    nodes.take(r, out=f, mode="clip")  # every index is a node
    np.greater(f, y, out=m)
    r -= m
    nodes[1:].take(r, out=f, mode="clip")  # the node right of r
    np.less_equal(f, y, out=m)
    np.less(r, first + n - 1, out=m2)
    m &= m2
    r += m
    return r, y, h


def _hat(mesh: Mesh, r: np.ndarray, y: np.ndarray, h,
         q: np.ndarray | None = None, out: np.ndarray | None = None,
         work: _Scratch | None = None) -> np.ndarray:
    """The t/Q step of _locate: right hat weights of points y in cells r.

    Takes _find_cells' (cell, y, h).  Returns w_right = fl(1 - fl(1 - t))
    for the local coordinate t = (y - x_r)/h, clipped to [0, 1], so
    w_left = 1 - w_right is fl(1 - t) and w_left + w_right = 1 exactly.
    q, when given, is filled with Q(y) = (x_{r+1} - y)(y - x_r) >= 0.
    The weights go into out (a new array when None), which may be the
    array the points were located from; t is computed in work's f.
    """
    nodes = mesh.nodes
    if out is None:
        out = np.empty(y.size)
    t = np.empty(y.size) if work is None else work.f[:y.size]
    nodes.take(r, out=out, mode="clip")  # x_r
    np.subtract(y, out, out=t)
    if q is not None:
        nodes[1:].take(r, out=q, mode="clip")  # x_{r+1}
        q -= y
        q *= t
        np.maximum(q, 0.0, out=q)
    t /= h
    np.clip(t, 0.0, 1.0, out=t)
    np.subtract(1.0, t, out=t)
    return np.subtract(1.0, t, out=out)


def _locate(mesh: Mesh, ys: np.ndarray):
    """Cells, right hat weights and Q of query points, numbered globally.

    Returns (cell, w_right, Q): the cell step _find_cells, then the t/Q
    step _hat on the clipped points.
    """
    r, y, h = _find_cells(mesh, ys)
    q = np.empty_like(y)
    return r, _hat(mesh, r, y, h, q), q


def interp_weights(mesh: Mesh, y: float) -> tuple[int, float, float]:
    """Cell index and hat weights of one point: y -> (r, w_left, w_right).

    Node hits give a unit weight: an interior node x_k gets cell k, the
    cell it starts, with w_left = 1, and the last cell of a piece owns
    its right endpoint.  Weights are normalized so
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
# two threads


# Fewest entries at which a matvec, CollocationPlan.data and each pass of
# the plan build run on two threads, at the measured crossover.  Timed
# both ways on 2 CPUs (medians of 9 alternated in-process rounds), data
# took 1.13-1.23 times as long at 170k-200k hat entries, 1.00 on
# cf{1..10}'s 210k degree-6 entries, 0.95 at 227k, 0.85 at 340k and
# 0.67 at 1.36M; whole plans took 1.03-1.06 at 170k-210k, 0.96-0.97 at
# 227k, 0.73-0.78 at 340k and 0.62-0.70 at 1.36M, and the degree-6 plan
# of cf{1..34} at h = 0.002 (714k) 0.78-0.80 (data 0.89).  A power
# solve's matvecs on its held helper (rounds of 50, cf{1..34} hat
# plans) took 0.85-1.20 times as long at 118k entries, 0.65-0.86 at
# 216k, 0.67-0.78 at 400k and 0.62-0.68 at 680k.  A matvec outside a
# solve starts and joins its own thread, about 0.1 ms more.
_SPLIT_MIN_ENTRIES = 1 << 18


def _cpu_count() -> int:
    """How many CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


class _Helper:
    """One helper thread that runs the calls handed to it, one at a time.

    The with block starts the thread and joins it on exit.  hand(call)
    starts call there; wait() blocks until it has returned and gives
    back the exception it raised, or None.  Each call is handed over
    and back through two locks, each held while its side has nothing
    to take: about 10 us a round trip with nothing to do, where
    starting and joining a thread takes about 60 us (both measured
    in-process on 2 CPUs).  Every hand must be followed by its wait.
    """

    def __init__(self):
        self._go, self._done = threading.Lock(), threading.Lock()
        self._go.acquire()
        self._done.acquire()
        self._call = self._failed = None
        self._thread = threading.Thread(target=self._serve,
                                        name="hausdim-helper")

    def __enter__(self) -> _Helper:
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._call = None
        self._go.release()
        self._thread.join()

    def _serve(self) -> None:
        while True:
            self._go.acquire()
            call = self._call
            if call is None:
                return
            try:
                call()
            except BaseException as exc:
                self._failed = exc
            self._done.release()

    def hand(self, call) -> None:
        self._call, self._failed = call, None
        self._go.release()

    def wait(self) -> BaseException | None:
        self._done.acquire()
        return self._failed


def _may_share(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether arrays a and b may share memory.

    Two arrays that own their memory (base None) share none unless they
    are one array, so the common case skips np.may_share_memory, whose
    call costs more than the rest of a small matvec's checks (matvec
    makes this test inline, where a call costs as much again).
    """
    return a is b or ((a.base is not None or b.base is not None)
                      and np.may_share_memory(a, b))


def _in_halves(run, items, split: bool = True,
               helper: _Helper | None = None) -> None:
    """run(part) on both halves of a sequence of independent work items.

    Where split holds, there are two items or more and the process may
    use two CPUs, the caller runs the first half of the list while a
    helper thread runs the second: helper, which the caller holds for
    many calls, or else one started here and joined before returning.
    Otherwise run(items) runs here.  run makes its own work arrays, so
    each half has its own.  Each item must write only its own part of
    the output, so the result is bit for bit that of the serial loop.
    The first half's exception is raised before the second half's, as
    the serial loop would raise them.  The numpy ufuncs and scipy's CSR
    loop an item spends its time in release the GIL, so the halves run
    at once.  The helper runs under numpy's default errstate, not the
    caller's.
    """
    half = (len(items) + 1) // 2
    if not split or half == len(items) or _cpu_count() < 2:
        run(items)
        return
    if helper is None:
        with _Helper() as helper:
            _in_halves(run, items, split, helper)
        return
    helper.hand(lambda: run(items[half:]))
    try:
        run(items[:half])
    finally:
        failed = helper.wait()
    if failed is not None:
        raise failed


# ---------------------------------------------------------------------------
# sparse matrices

_KERNEL = "scipy.sparse._sparsetools"


def _kernel_file() -> str | None:
    """Path of scipy's compiled sparsetools extension, or None.

    find_spec("scipy") locates the package without importing it; the
    file is sparse/_sparsetools plus one of the interpreter's extension
    suffixes.
    """
    spec = importlib.util.find_spec("scipy")
    for root in (spec and spec.submodule_search_locations) or ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(root, "sparse", "_sparsetools" + suffix)
            if os.path.isfile(path):
                return path
    return None


def _load_sparsetools():
    """scipy's compiled CSR loops, loaded without importing scipy.sparse.

    The extension file alone loads in about a millisecond, where
    importing scipy.sparse to reach it takes about 0.15 s.  A module
    already imported is reused.  The loaded module is taken back out of
    sys.modules, so a later import of scipy.sparse loads and binds its
    own (the same compiled functions).  Where the file is not found or
    does not load, the module comes from scipy.sparse after all.
    """
    if _KERNEL in sys.modules:
        return sys.modules[_KERNEL]
    path = _kernel_file()
    if path is not None:
        loader = importlib.machinery.ExtensionFileLoader(_KERNEL, path)
        try:
            module = importlib.util.module_from_spec(
                importlib.util.spec_from_loader(_KERNEL, loader))
            loader.exec_module(module)
            return module
        except ImportError:
            pass
        finally:
            sys.modules.pop(_KERNEL, None)
    from scipy.sparse import _sparsetools
    return _sparsetools


_sparsetools = _load_sparsetools()

class CsrMatrix:
    """Square matrix held as the three plain arrays of compressed rows.

    indptr, indices and data are kept as given, so matrices built from
    one collocation plan share its pattern arrays, and no scipy matrix
    is built.  matvec calls scipy's compiled CSR loop,
    scipy.sparse._sparsetools.csr_matvec (loaded by _load_sparsetools),
    into a zeroed output: the loop csr_matrix @ w runs (checked on
    scipy 1.17.1), so every sum and every output bit is the same,
    without scipy's wrapper and its temporaries; a wide matrix's two
    row halves are summed on two threads (see matvec).  The loop does
    not bounds-check, so the constructor makes the O(1) checks scipy's
    constructor makes and raises BadParams where one fails.  toarray
    builds the dense matrix in numpy, summing as scipy's does.
    """

    def __init__(self, dim: int, indptr: np.ndarray, indices: np.ndarray,
                 data: np.ndarray):
        self.dim = int(dim)
        if not (indptr.ndim == indices.ndim == data.ndim == 1
                and indptr.size == self.dim + 1 >= 1):
            raise BadParams(f"indptr must be 1-D of length {self.dim + 1}")
        if indices.size != data.size:
            raise BadParams(f"{indices.size} indices for {data.size} entries")
        if indptr.dtype != indices.dtype or indptr.dtype.kind != "i":
            raise BadParams(f"index arrays must share one integer dtype, not "
                            f"{indptr.dtype} and {indices.dtype}")
        if data.dtype != np.float64:
            raise BadParams(f"entries must be float64, not {data.dtype}")
        if indptr[0] != 0 or indptr[-1] > indices.size:
            raise BadParams(f"indptr must run from 0 to at most {indices.size}")
        self.indptr, self.indices, self.data = indptr, indices, data

    @property
    def nnz(self) -> int:
        return int(self.indptr[-1])

    # The helper thread a split matvec hands its second half to: set on
    # the copy that _with_helper makes for one solve, None otherwise.
    _helper: _Helper | None = None

    def matvec(self, w: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """M w, written into out (float64, shape (dim,)) when given.

        out must not share memory with w: it is zeroed before the sum
        (BadParams).  From _SPLIT_MIN_ENTRIES entries on, two calls of
        the loop sum the rows below and from dim // 2 on two threads
        (_in_halves).  Each row is summed in the same order as by one
        call, so every output bit is the same.
        """
        if w.shape != (self.dim,) or not (out is None
                                          or out.shape == (self.dim,)):
            raise BadParams(f"matvec of dim {self.dim} needs shape "
                            f"({self.dim},) vectors")
        if out is None:
            out = np.zeros(self.dim)
        elif out is w or ((out.base is not None or w.base is not None)
                          and np.may_share_memory(out, w)):  # _may_share
            raise BadParams("matvec needs an out that shares no memory "
                            "with w")
        else:
            out.fill(0.0)
        dim = self.dim
        if self.data.size < _SPLIT_MIN_ENTRIES:
            _sparsetools.csr_matvec(dim, dim, self.indptr, self.indices,
                                    self.data, w, out)
            return out

        def rows(spans):
            for lo, hi in spans:
                _sparsetools.csr_matvec(hi - lo, dim, self.indptr[lo:hi + 1],
                                        self.indices, self.data, w,
                                        out[lo:hi])

        _in_halves(rows, [(0, dim // 2), (dim // 2, dim)],
                   helper=self._helper)
        return out

    def _held(self):
        """matvec for the steps of one solve, as a context manager.

        Where matvec splits, that of a copy on the same arrays whose
        split matvecs hand their second half to one helper thread,
        started on entry and joined on exit, also when the block raises;
        otherwise this matrix's own matvec, with nothing to start.
        """
        if self.data.size < _SPLIT_MIN_ENTRIES or _cpu_count() < 2:
            return contextlib.nullcontext(self.matvec)
        return self._with_helper()

    @contextlib.contextmanager
    def _with_helper(self):
        with _Helper() as helper:
            held = copy.copy(self)
            held._helper = helper
            try:
                yield held.matvec
            finally:
                held._helper = None  # a copy kept past the block splits alone

    def toarray(self) -> np.ndarray:
        """Dense copy: a repeated (row, col) sums in stored order, as in
        scipy's csr_todense, and entries past indptr[-1] are ignored."""
        out = np.zeros((self.dim, self.dim))
        nnz = self.nnz
        rows = np.repeat(np.arange(self.dim), np.diff(self.indptr))
        np.add.at(out, (rows, self.indices[:nnz]), self.data[:nnz])
        return out


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

    @classmethod
    def _checked(cls, dim: int, indptr: np.ndarray, indices: np.ndarray,
                 data: np.ndarray) -> SparseNonnegMatrix:
        """A matrix whose entries its maker has checked (CollocationPlan.matrix)."""
        matrix = cls.__new__(cls)
        CsrMatrix.__init__(matrix, dim, indptr, indices, data)
        return matrix

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
# enough that per-map calls are few, few enough that a block's
# temporaries stay small next to a wide plan and are reused from call to
# call instead of paged in afresh.
_BLOCK = 1 << 15


def _lagrange_rows(t: np.ndarray, degree: int, out: np.ndarray | None = None,
                   work: np.ndarray | None = None) -> np.ndarray:
    """Weights of the d+1 equispaced-node Lagrange basis at local t.

    Row q of the (d+1, t.size) result holds basis q; out, when given, is
    filled instead (a transposed view of the plan's weights, say).  With
    u = d t, basis q is the product of (u - p) over p < q, times that
    over p > q, divided once by the exact integer prod (q - p): 6d - 1
    array operations where the product of the factors (u - p)/(q - p)
    took 3d(d + 1), and weights that are exactly cardinal wherever u is
    a node.  Degree 1 gives ((t - 1)/(-1), t) exactly, a weight of -0.0
    at t = 1 included.  u and the products over p < q are kept in the
    rows of out, or, when the caller passes work, a float array of at
    least (d+3, t.size), in its first d+1 rows; its last two rows hold
    the other two intermediates, which are new arrays without work.
    t may be work's first row, where u overwrites it.
    """
    n = t.size
    if out is None:
        out = np.empty((degree + 1, n))
    if work is None:
        rows, right, diff = out, np.empty(n), np.empty(n)
    else:
        rows, right, diff = (work[:degree + 1, :n], work[degree + 1, :n],
                             work[degree + 2, :n])
    # prod (q - p) over p != q is (-1)**(d - q) q! (d - q)!.
    denom = [(-1) ** (degree - q) * math.factorial(q)
             * math.factorial(degree - q) for q in range(degree + 1)]
    u = np.multiply(t, degree, out=rows[0])
    np.copyto(rows[1], u)  # rows[q]: prod of u - p, p < q, until out[q]
    for q in range(1, degree):
        np.subtract(u, q, out=diff)
        np.multiply(rows[q], diff, out=rows[q + 1])
    np.divide(rows[degree], denom[degree], out=out[degree])
    np.subtract(u, degree, out=right)  # prod of u - p, p > q
    for q in range(degree - 1, 0, -1):
        np.multiply(rows[q], right, out=diff)
        np.divide(diff, denom[q], out=out[q])
        np.subtract(u, q, out=diff)
        right *= diff
    np.divide(right, denom[0], out=out[0])
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
    (node, map), weight one per entry.  collocation_plan and closed_plan
    fill every array in this final order, one block of _BLOCK (node,
    map) pairs at a time, and data builds the entries block by block
    too.  rows holds the degree-d node of each row: S on a plan from
    closed_plan, every node on one from collocation_plan.
    """

    dim: int
    degree: int
    indptr: np.ndarray
    indices: np.ndarray
    weight: np.ndarray
    log_weight: np.ndarray
    q: np.ndarray | None
    q_max: float | None
    rows: np.ndarray

    def data(self, s: float, coef: float | None = None,
             out: np.ndarray | None = None) -> np.ndarray:
        """Entries at s: g^s * (1 - coef Q) * weight, one per contribution.

        coef = None builds the plain matrix (M, or the degree-d matrix);
        coef_hi gives A and coef_lo gives B (hat basis only).  Every
        factor 1 - coef Q is positive when coef * q_max < 1.  g^s and
        1 - coef Q are computed once per (node, map) and repeated over
        the d+1 basis entries.  They go a block of _BLOCK (node, map)
        pairs at a time into the output buffer: out, a C-contiguous
        float64 array of shape (weight.size,) that shares no memory with
        weight, log_weight or q (BadParams otherwise), or else a new
        array.  Each half of the blocks computes g^s and the correction
        in two block-sized arrays of its own, so a caller that passes one
        out to every call maps no new entry-sized memory.  On the hat
        basis each of the two columns is one strided product, which takes
        about half the time of np.repeat and one product (29-58 against
        67-110 us per block); at higher degrees one product broadcasts
        g^s over the basis columns.  From _SPLIT_MIN_ENTRIES entries on,
        the second half of the blocks is built on a second thread
        (_in_halves), each block as in the serial loop, so every bit is
        the same.
        """
        return self._entries(s, coef, out, check=False)[0]

    def matrix(self, s: float, coef: float | None = None,
               out: np.ndarray | None = None) -> SparseNonnegMatrix:
        """Nonnegative matrix at s on the plan's pattern (see data).

        Its entries are out's, when given, so the matrix changes with
        the next call that builds into out.  Each block's entries are
        checked where they are written, and a negative or NaN entry (a
        degree > 1 plan's signed weights, say) raises NegativeEntry.
        """
        data, nonneg = self._entries(s, coef, out, check=True)
        if not nonneg:
            raise NegativeEntry("matrix entries must be nonnegative, not NaN")
        return SparseNonnegMatrix._checked(self.dim, self.indptr,
                                           self.indices, data)

    def _entries(self, s: float, coef: float | None, out: np.ndarray | None,
                 check: bool) -> tuple[np.ndarray, bool]:
        """data's entries, and whether every block checked is >= 0.

        With check, each block's least entry is read just after the
        block is written, on the thread that wrote it: np.minimum
        carries a NaN, so one NaN or negative entry fails the block.
        """
        if coef is not None:
            if self.q is None:
                raise BadParams(
                    f"a correction needs the hat basis, not degree {self.degree}")
            if not (math.isfinite(coef) and coef * self.q_max < 1.0):
                raise ErrTooLarge(f"matrix correction {coef!r} * Q reaches 1; "
                                  "refine the mesh")
        if out is None:
            out = np.empty(self.weight.size)
        elif not (isinstance(out, np.ndarray) and out.dtype == np.float64
                  and out.shape == self.weight.shape
                  and out.flags.c_contiguous and out.flags.writeable):
            raise BadParams(f"out must be a writeable C-contiguous float64 "
                            f"array of shape {self.weight.shape}")
        elif (_may_share(out, self.weight) or _may_share(out, self.log_weight)
              or (self.q is not None and _may_share(out, self.q))):
            raise BadParams("out shares memory with the plan's weights")
        n_basis = self.degree + 1
        failed = []

        def blocks(starts):
            # Each block computes g^s and 1 - coef Q in the arrays of the
            # block before it in this half: only the last block is shorter.
            g = fix = None
            for lo in starts:
                pairs = slice(lo, lo + _BLOCK)
                log_weight = self.log_weight[pairs]
                n = log_weight.size
                g = np.multiply(log_weight, s,
                                out=None if g is None else g[:n])
                np.exp(g, out=g)
                if coef is not None:
                    fix = np.multiply(self.q[pairs], coef,
                                      out=None if fix is None else fix[:n])
                    np.subtract(1.0, fix, out=fix)
                    g *= fix
                entries = slice(lo * n_basis, (lo + _BLOCK) * n_basis)
                o2 = out[entries].reshape(-1, n_basis)
                w2 = self.weight[entries].reshape(-1, n_basis)
                if n_basis == 2:
                    np.multiply(g, w2[:, 0], out=o2[:, 0])
                    np.multiply(g, w2[:, 1], out=o2[:, 1])
                else:
                    np.multiply(g[:, None], w2, out=o2)
                if check and not np.minimum.reduce(out[entries]) >= 0.0:
                    failed.append(lo)

        _in_halves(blocks, range(0, self.log_weight.size, _BLOCK),
                   split=out.size >= _SPLIT_MIN_ENTRIES)
        return out, not failed


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


def _degree_columns(mesh: Mesh, degree: int) -> np.ndarray:
    """First degree-d column of each mesh cell, indexed by its left node.

    Cell c of the mesh spans degree-d columns base[c] .. base[c] + d.
    Node k of piece i is degree-d node d*k - (d - 1)*i: every piece
    before it has d*n + 1 degree-d nodes against n + 1 mesh nodes.
    """
    base = np.arange(0, degree * mesh.dim, degree, dtype=np.int32)
    base -= np.repeat(np.arange(len(mesh.pieces), dtype=np.int32) * (degree - 1),
                      np.diff(mesh.offsets))
    return base


def _map_error(fam: MapFamily, mesh: Mesh, x: np.ndarray) -> Exception:
    """The error of the first map, in order, that cannot collocate at x.

    Map by map, a missing log_weight is MissingDerivatives, a NaN image
    ParamOutOfRange (naming the point), an image outside the mesh
    MapEscapesDomain and a log_weight that is not finite at x
    ParamOutOfRange; each names the map.  The plan build calls it on
    every node once some block of pass 1 has failed, so the error does
    not depend on which block failed first, nor on the closed set.
    """
    for j, spec in enumerate(fam.maps):
        if spec.log_weight is None:
            return MissingDerivatives(f"map {spec.label!r} has no log_weight")
        try:
            y = eval_map(fam, j, x)
            if np.isnan(y).any():
                return ParamOutOfRange(f"map {spec.label!r} gives NaN at "
                                       f"x = {float(x[np.isnan(y)][0])}")
            _locate(mesh, y)
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
    map, a map without log_weight raises MissingDerivatives, one with a
    NaN image ParamOutOfRange, one with an image outside the mesh
    MapEscapesDomain, and one whose log_weight is not finite at a
    collocation node ParamOutOfRange.  Built by _build_plan, every row
    kept: rows is arange(dim).
    """
    return _build_plan(fam, mesh, degree, closed=False)


def closed_plan(fam: MapFamily, mesh: Mesh, degree: int = 1) -> CollocationPlan:
    """collocation_plan restricted to its closed node set S.

    S is the largest node set whose rows read only columns in S (see
    _closed_rows).  In the order (S, rest) every matrix of the plan is
    block lower triangular, and no cycle of reads runs through the rest,
    so its block there is nilpotent: the spectral radius, the dominant
    eigenvalue and the Collatz-Wielandt bounds of the S x S block are
    those of the whole matrix, with no bound or error model changed.
    The plan holds S's rows only, their columns renumbered to S, and no
    basis weight or column of a dropped row is computed; rows holds the
    node of each row.  q_max stays that of the whole grid, and every
    input error is raised as collocation_plan raises it, at a dropped
    node too.
    """
    return _build_plan(fam, mesh, degree, closed=True)


def _build_plan(fam: MapFamily, mesh: Mesh, degree: int, closed: bool
                ) -> CollocationPlan:
    """The plan of collocation_plan, or closed_plan when closed, in two passes.

    Pass 1 runs over every (node, map) pair in blocks of about _BLOCK
    pairs, with every input check: each block's images and log weights
    (ifs.eval_all_maps), the cell of each image (_find_cells), its right
    hat weight and, on the hat basis, Q (_hat), and the first column it
    reads.  Each goes into a full-size array.  A closed plan then peels
    S from the first columns (_closed_rows); collocation_plan's S is
    every node.  Log weights and Q are compacted to S's rows in place,
    or kept as they are where S is every node.  Pass 2 visits S's rows, block by
    block, and writes their Lagrange weights and column indices,
    renumbered to S, straight into the final arrays.  A pass of at
    least _SPLIT_MIN_ENTRIES entries runs the second half of its blocks
    on a second thread (_in_halves), except pass 1 of a custom family.
    A failed pass-1 block raises _map_error's error, read off every
    node, so the error does not depend on which block failed first, or
    on which thread.
    """
    degree = _as_degree(degree)
    lo, hi = fam.domain
    tol = CLAMP_REL_TOL * (hi - lo)
    if mesh.span[0] < lo - tol or mesh.span[1] > hi + tol:
        raise OutOfDomain(
            f"mesh span {mesh.span} leaves the domain [{lo}, {hi}]")
    fine = _degree_nodes(mesh, degree)
    x, dim = fine.nodes, fine.dim
    # eval_map's domain check and clip, once for every map and block.
    if (any(spec.log_weight is None for spec in fam.maps)
            or np.any(x < lo - tol) or np.any(x > hi + tol)):
        raise _map_error(fam, mesh, x)
    x_in = np.clip(x, lo, hi)
    base = _degree_columns(mesh, degree)
    n_maps, n_basis = fam.n_maps, degree + 1
    log_weight = np.empty(dim * n_maps)
    w_right = np.empty(log_weight.size)  # each image, then its right weight
    first = np.empty(log_weight.size, dtype=np.int32)
    q = np.empty(log_weight.size) if degree == 1 else None
    step = max(1, _BLOCK // n_maps)

    def pass_1(starts):
        work = _Scratch(min(step, dim) * n_maps)
        for start in starts:
            nodes = slice(start, min(start + step, dim))
            pairs = slice(start * n_maps, nodes.stop * n_maps)
            lw = log_weight[pairs].reshape(-1, n_maps)
            eval_all_maps(fam, x_in[nodes], x[nodes],
                          w_right[pairs].reshape(-1, n_maps), lw)
            try:
                cell, y, h = _find_cells(mesh, w_right[pairs], work)
            except (OutOfDomain, ParamOutOfRange):
                cell = None
            if cell is None or not np.isfinite(lw).all():
                raise _map_error(fam, mesh, x)
            _hat(mesh, cell, y, h, None if q is None else q[pairs],
                 out=w_right[pairs], work=work)
            base.take(cell, out=first[pairs], mode="clip")

    # A custom family's maps are the caller's callables: never called
    # from a second thread.
    _in_halves(pass_1, range(0, dim, step),
               split=(fam.kind != CUSTOM
                      and log_weight.size * n_basis >= _SPLIT_MIN_ENTRIES))
    q_max = None if q is None else float(q.max())

    first = first.reshape(dim, n_maps)
    rows = _closed_rows(first, degree) if closed else np.arange(dim)
    kept = rows.size
    renumber = np.full(dim, -1, dtype=np.int32)
    renumber[rows] = np.arange(kept, dtype=np.int32)
    if kept < dim:
        # rows is sorted, so rows[i] >= i: copied block by block in
        # ascending order, through one block of work, every row is read
        # before a later block overwrites it.  Both arrays are compacted
        # in the pages pass 1 touched, then shrunk in place to their
        # first kept rows, which gives the rest back (no view of either
        # is left to dangle).
        work = np.empty(min(step, kept) * n_maps)
        for values in (log_weight,) if q is None else (log_weight, q):
            table = values.reshape(dim, n_maps)
            for start in range(0, kept, step):
                block = rows[start:start + step]
                table[start:start + block.size] = table.take(
                    block, axis=0, mode="clip",
                    out=work[:block.size * n_maps].reshape(-1, n_maps))
        del table
        log_weight.resize(kept * n_maps, refcheck=False)
        if q is not None:
            q.resize(kept * n_maps, refcheck=False)
    w_right = w_right.reshape(dim, n_maps)
    indices = np.empty(kept * n_maps * n_basis, dtype=np.int32)
    weight = np.empty(indices.size)

    def pass_2(starts):
        work = np.empty((degree + 3, min(step, kept) * n_maps))
        ints = work[1].view(np.int32)
        for start in starts:
            stop = min(start + step, kept)
            entries = slice(start * n_maps * n_basis, stop * n_maps * n_basis)
            cols = indices[entries].reshape(-1, n_basis).T
            # Gathered into the first two work rows, whose pages
            # _lagrange_rows touches anyway: the first columns and their
            # renumbering as int32 in row 1, the images in row 0.
            # mode="clip" writes into out; the default buffers a copy.
            block, n = rows[start:stop], (stop - start) * n_maps
            first.take(block, axis=0, out=ints[:n].reshape(-1, n_maps),
                       mode="clip")
            cols[0] = renumber.take(ints[:n], out=ints[n:2 * n], mode="clip")
            images = w_right.take(block, axis=0,
                                  out=work[0, :n].reshape(-1, n_maps),
                                  mode="clip").ravel()
            for p in range(1, n_basis):
                np.add(cols[0], p, out=cols[p])
            _lagrange_rows(images, degree,
                           out=weight[entries].reshape(-1, n_basis).T,
                           work=work)

    _in_halves(pass_2, range(0, kept, step),
               split=indices.size >= _SPLIT_MIN_ENTRIES)
    return CollocationPlan(
        dim=kept, degree=degree,
        indptr=np.arange(0, indices.size + 1, n_maps * n_basis, dtype=np.int32),
        indices=indices, weight=weight, log_weight=log_weight, q=q,
        q_max=q_max, rows=rows)


def _closed_rows(first: np.ndarray, degree: int) -> np.ndarray:
    """The largest node set S whose rows read only columns in S, sorted.

    first[k, j] is the first column that pair (k, j) reads, base[cell]
    of its image: the pair reads columns first .. first + degree, and
    there is one row per degree-d node.  A node stays while some row of
    a node still in S reads it.  Its in-degree counts the pairs whose
    first column lies at most d columns left of it.  A node whose
    in-degree reaches 0 leaves S and its reads are subtracted in turn;
    each row leaves once, so the cost is O(pairs + depth * dim).  A node
    on a cycle of reads never leaves, so S is not empty.  The counts go
    into one dim-sized buffer, the first by np.bincount (1.3 ms against
    1.6-1.9 ms for np.add.at on the 680k pairs of cf{1..34} at
    h = 5e-5), and every round of the peel works in it and in two more.
    """
    dim, width = first.shape[0], degree + 1
    counts = np.bincount(first.ravel(), minlength=dim)
    indegree = counts.copy()
    for p in range(1, width):
        indegree[p:] += counts[:-p]
    alive = np.ones(dim, dtype=bool)
    leaving = np.flatnonzero(indegree == 0)
    zero = np.empty(dim, dtype=bool)
    while leaving.size:
        alive[leaving] = False
        counts.fill(0)
        np.add.at(counts, first[leaving], 1)
        for p in range(width):
            indegree[p:] -= counts[:dim - p]
        np.equal(indegree, 0, out=zero)
        zero &= alive
        leaving = np.flatnonzero(zero)
    return np.flatnonzero(alive)


def _interpolate_nodal(values: np.ndarray, mesh: Mesh, target: Mesh,
                       degree: int, rows: np.ndarray | None = None
                       ) -> np.ndarray:
    """The degree-d interpolant of nodal values, read at another mesh's nodes.

    values holds one value per degree-d node of mesh, in the node order
    of collocation_plan(fam, mesh, degree); the result holds one per
    degree-d node of target, whose pieces must span the same intervals
    as those of mesh, or one per node that rows lists (indices into
    those nodes), with the same values.  Each target node takes the
    Lagrange combination of the d+1 values of its cell of mesh, found as
    collocation_plan finds an image's cell.  Where the pieces lie
    further apart than the clamp tolerance, no piece reads another
    piece's values.  Polynomials of degree <= d on a piece are
    reproduced up to rounding.
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
    cell, wr, _ = _locate(mesh, nodes.nodes if rows is None
                          else nodes.nodes[rows])
    basis = _lagrange_rows(wr, degree)
    basis *= values[_degree_columns(mesh, degree)[cell]
                    + np.arange(degree + 1)[:, None]]
    return basis.sum(axis=0)


def _interpolate_rows(values: np.ndarray, plan: CollocationPlan, mesh: Mesh,
                      target_plan: CollocationPlan, target: Mesh
                      ) -> np.ndarray | None:
    """Values on a closed plan's rows, read at another closed plan's rows.

    values holds one value per row of plan, a closed_plan on mesh;
    target_plan is a closed_plan on target at the same degree, whose
    pieces span those of mesh.  The degree-d nodes of mesh outside
    plan.rows read NaN, and the values are interpolated by
    _interpolate_nodal at target_plan.rows' nodes only.  None where any
    of those is not finite: a row's cell of mesh reaches a node that
    plan dropped.
    """
    nodal = np.full(plan.degree * mesh.n + len(mesh.pieces), np.nan)
    nodal[plan.rows] = values
    out = _interpolate_nodal(nodal, mesh, target, plan.degree,
                             target_plan.rows)
    return out if np.isfinite(out).all() else None
