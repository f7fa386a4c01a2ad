import dataclasses
import itertools
import json
import math
import os
import subprocess
import sys
import threading

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from hausdim import (
    BadParams,
    ErrTooLarge,
    MapEscapesDomain,
    MapSpec,
    Mesh,
    MissingDerivatives,
    NegativeEntry,
    OutOfDomain,
    ParamOutOfRange,
    SparseNonnegMatrix,
    bracket_dimension,
    closed_plan,
    collocation_plan,
    dump_matrix,
    error_model,
    eval_map,
    highorder_dimension,
    interp_weights,
    make_cantor_family,
    make_custom_family,
    make_mesh,
    make_mobius_family,
    power_enclosure,
    reduce_domain,
)
from hausdim import discretize
from hausdim.higher_order import HighOrderMatrix, dominant_magnitude
from hausdim.spectral import RADIUS_TOL
from hausdim.discretize import (
    _degree_nodes,
    _interpolate_nodal,
    _join,
    _lagrange_rows,
    _locate,
    _mesh_piece,
)
from hausdim.ifs import CLAMP_REL_TOL
from conftest import hat_matrices


def test_make_mesh_single_interval():
    mesh = make_mesh((0.0, 1.0), n=4)
    assert isinstance(mesh, Mesh)
    assert mesh.n == 4
    assert mesh.h == pytest.approx(0.25)
    assert mesh.dim == 5
    assert np.allclose(mesh.nodes, [0.0, 0.25, 0.5, 0.75, 1.0])
    assert mesh.nodes[-1] == 1.0
    assert len(mesh.pieces) == 1
    assert mesh.offsets == (0, 5)
    assert mesh.span == (0.0, 1.0)
    piece = mesh.pieces[0]
    assert (piece.a, piece.b, piece.n, piece.h) == (0.0, 1.0, 4, 0.25)
    assert np.array_equal(piece.nodes, mesh.nodes)


def test_make_mesh_by_width():
    mesh = make_mesh((0.0, 1.0), h=0.2)
    assert mesh.n == 5
    # Tiny intervals still get two cells.
    tiny = make_mesh((0.0, 0.01), h=0.2)
    assert tiny.n == 2


def test_make_mesh_argument_validation():
    with pytest.raises(BadParams):
        make_mesh((0.0, 1.0))
    with pytest.raises(BadParams):
        make_mesh((0.0, 1.0), n=4, h=0.1)
    with pytest.raises(BadParams):
        make_mesh((0.0, 1.0), n=1)
    # n is a cell count: no truncation of a float, no parsing of a string.
    for n in (2.5, 4.0, "4", 3 + 0j, True):
        with pytest.raises(BadParams, match="integer"):
            make_mesh((0.0, 1.0), n=n)
    assert make_mesh((0.0, 1.0), n=np.int64(4)).n == 4
    assert make_mesh((0.0, 1.0), h=np.float32(0.25)).n == 4
    with pytest.raises(BadParams):
        make_mesh([(0.0, 0.4), (0.6, 1.0)], n=1)
    with pytest.raises(BadParams):
        make_mesh((1.0, 0.0), n=4)
    # Intervals must be present, increasing and disjoint.
    for intervals in ([], (), [(0.5, 1.0), (0.0, 0.4)],
                      [(0.0, 0.6), (0.4, 1.0)], [(0.0, 0.5), (0.5, 1.0)]):
        with pytest.raises(BadParams):
            make_mesh(intervals, h=0.1)
    # Interval ends are real numbers, never parsed strings or cast bools.
    for intervals in (("0", "1"), [(True, 2.0)], (0.0, 1 + 0j)):
        with pytest.raises(BadParams, match="must be a real number"):
            make_mesh(intervals, h=0.25)
    # h must be a finite real: round() fails on NaN, inf would give 2
    # cells, a string or complex cannot be compared with 0, and a bool
    # is not a width.
    for h in (math.nan, math.inf, "0.1", 0.5 + 0j, True):
        with pytest.raises(BadParams):
            make_mesh((0.0, 1.0), h=h)
        with pytest.raises(BadParams):
            make_mesh([(0.0, 0.4), (0.6, 1.0)], h=h)


def test_make_mesh_caps_nodes_at_int32_columns():
    # The plan's column indices are int32, so a mesh of more than
    # 2**31 - 1 nodes fails before any allocation; so does one whose
    # cell count is infinite or NaN.
    for intervals, kw in (((0, 1), {"h": 1e-300}), ((0, 1), {"n": 2**62}),
                          ((0, 1), {"h": 5e-324}),
                          ((0.0, math.inf), {"h": 0.1}),
                          ((-1e308, 1e308), {"n": 4})):
        with pytest.raises(BadParams, match="more than 2147483647 nodes"):
            make_mesh(intervals, **kw)
    # Nodes, not cells: two pieces of 2**30 - 1 cells have 2**31 nodes.
    with pytest.raises(BadParams, match="nodes"):
        make_mesh([(0.0, 1.0), (2.0, 3.0)], n=2**31 - 2)


def test_make_mesh_union():
    fam = make_mobius_family([1, 2])
    parts = reduce_domain(fam, 2)
    mesh = make_mesh(parts, h=0.01)
    assert type(mesh) is type(make_mesh(parts[0], h=0.01)) is Mesh
    assert len(mesh.pieces) == 2
    assert mesh.offsets[0] == 0
    assert mesh.n == sum(p.n for p in mesh.pieces)
    assert mesh.dim == sum(p.n + 1 for p in mesh.pieces)
    assert mesh.h == max(p.h for p in mesh.pieces)
    assert mesh.span[0] == pytest.approx(1.0 / 3.0)
    assert mesh.span[1] == pytest.approx(0.75)
    # Every piece knows its own nodes; concatenation matches.
    assert np.allclose(mesh.nodes,
                       np.concatenate([p.nodes for p in mesh.pieces]))


def test_interp_weights_at_nodes():
    mesh = make_mesh((0.0, 1.0), n=4)
    r, wl, wr = interp_weights(mesh, 0.25)
    assert (r, wl, wr) == (1, 1.0, 0.0)
    # Right endpoint owned by the last cell.
    r, wl, wr = interp_weights(mesh, 1.0)
    assert (r, wl, wr) == (3, 0.0, 1.0)
    r, wl, wr = interp_weights(mesh, 0.0)
    assert (r, wl, wr) == (0, 1.0, 0.0)


def test_interp_weights_interior_point():
    mesh = make_mesh((0.0, 1.0), n=4)
    r, wl, wr = interp_weights(mesh, 2.0 / 7.0)
    # (1/2 - 2/7) / (1/4) = 6/7.
    assert r == 1
    assert wl == pytest.approx(6.0 / 7.0, rel=1e-15)
    assert wr == pytest.approx(1.0 / 7.0, rel=1e-15)


def test_interp_weights_partition_of_unity():
    mesh = make_mesh((0.0, 1.0), n=37)
    rng = np.random.default_rng(2)
    ys = rng.uniform(0.0, 1.0, size=10000)
    for y in ys[:200]:
        r, wl, wr = interp_weights(mesh, y)
        assert wl + wr == 1.0
        assert 0.0 <= wl <= 1.0
    # Hat interpolation reproduces affine functions exactly.
    nodes = mesh.nodes
    f = 3.0 * nodes - 1.25
    for y in ys[:200]:
        r, wl, wr = interp_weights(mesh, y)
        assert wl * f[r] + wr * f[r + 1] == pytest.approx(3.0 * y - 1.25,
                                                          abs=1e-13)


def test_interp_weights_out_of_domain():
    mesh = make_mesh((0.0, 1.0), n=4)
    with pytest.raises(OutOfDomain):
        interp_weights(mesh, 1.5)
    with pytest.raises(OutOfDomain):
        interp_weights(mesh, -0.5)


def test_interp_weights_in_a_gap_between_pieces():
    mesh = make_mesh([(0.0, 0.25), (0.75, 1.0)], n=8)
    assert interp_weights(mesh, 0.8)[0] >= mesh.pieces[0].n + 1
    with pytest.raises(OutOfDomain, match="gap between pieces"):
        interp_weights(mesh, 0.5)


def test_nan_point_is_not_in_a_gap():
    # NaN compares false with every piece end; it is a bad value, named
    # as such, on one piece and on several alike.
    for mesh in (make_mesh((0.0, 1.0), h=0.1),
                 make_mesh([(0.0, 0.25), (0.75, 1.0)], n=8)):
        with pytest.raises(ParamOutOfRange, match="point is NaN"):
            interp_weights(mesh, math.nan)


def test_map_with_nan_image_is_named():
    # A custom map that gives NaN at one mesh node inside its domain is
    # a configuration error (CLI exit 2) naming the map and the node,
    # not an image in a gap between pieces.
    def const(value):
        return lambda x: np.full_like(np.asarray(x, float), value)

    def third(label, shift, x_nan=None):
        def ev(x):
            y = (np.asarray(x, float) + shift) / 3.0
            return y if x_nan is None else np.where(x == x_nan, math.nan, y)
        return MapSpec(label=label, eval=ev, d1=const(1.0 / 3.0),
                       d2=const(0.0), log_weight=const(math.log(1.0 / 3.0)),
                       weight_r1=const(0.0), weight_r2=const(0.0),
                       d1_sup=1.0 / 3.0)

    fam = make_custom_family([third("third", 0.0),
                              third("nanmap", 2.0, x_nan=0.5)], (0.0, 1.0))
    match = "map 'nanmap' gives NaN at x = 0.5"
    for mesh in (make_mesh(fam.domain, n=100),
                 make_mesh([(0.0, 1.0 / 3.0), (0.5, 1.0)], h=0.01)):
        for degree in (1, 3):
            with pytest.raises(ParamOutOfRange, match=match):
                collocation_plan(fam, mesh, degree)
    mesh = make_mesh(fam.domain, n=100)
    with pytest.raises(ParamOutOfRange, match=match):
        bracket_dimension(fam, mesh)
    with pytest.raises(ParamOutOfRange, match=match):
        highorder_dimension(fam, mesh, 3)


def test_error_model_mobius_midpoint_value():
    fam = make_mobius_family([1, 2])
    model = error_model(fam, 0.5, 0.1)
    # R_hi = 2s(2s+1)/gamma^2 = 2, osc = 2s/gamma = 1.
    assert model.R_hi == pytest.approx(2.0)
    assert model.osc == pytest.approx(1.0)
    assert model.coef_hi == pytest.approx(math.exp(0.1), rel=1e-14)
    # Mid-cell correction err_hi = coef_hi * (h/2)^2 = 0.0025 e^0.1.
    assert model.coef_hi * 0.05 * 0.05 == pytest.approx(
        0.0025 * math.exp(0.1), rel=1e-14)
    # coef_lo uses the lower ratio bound with the reciprocal factor.
    expected_lo = 0.5 * 2.0 * (2.0 + 1.0 + 1.0) ** -2 * math.exp(-0.1)
    assert model.coef_lo == pytest.approx(expected_lo, rel=1e-14)


def test_error_model_zero_for_affine_cantor():
    model = error_model(make_cantor_family(0.0), 0.6, 0.01)
    assert model.coef_hi == 0.0
    assert model.coef_lo == 0.0
    assert model.osc == 0.0


def test_error_model_too_large():
    fam = make_mobius_family([1, 2])
    # s = 1.5, h = 0.5: coef_hi h^2/4 = 1.5 * 12 e^{1.5} / 16 > 1.
    with pytest.raises(ErrTooLarge):
        error_model(fam, 1.5, 0.5)
    with pytest.raises(BadParams):
        error_model(fam, 0.5, -0.1)
    with pytest.raises(BadParams):
        error_model(fam, 0.5, math.nan)
    with pytest.raises(BadParams):
        error_model(fam, math.nan, 0.01)


def test_error_model_builds_constants_once(poly_fam, monkeypatch):
    # The v''/v enclosure and the oscillation rate share one bound plan,
    # which reads each of the three suprema they need once.
    import hausdim.bounds as bounds

    calls = []
    real = bounds.BoundPlan.sup

    def counting(self, key, s):
        calls.append((id(self), key))
        return real(self, key, s)

    monkeypatch.setattr(bounds.BoundPlan, "sup", counting)
    model = error_model(poly_fam, 0.8, 0.01)
    assert len({plan for plan, _ in calls}) == 1
    assert [key for _, key in calls] == ["C1", "E2", "K2"]
    monkeypatch.undo()
    bc = bounds.general_constants(poly_fam, 0.8)
    assert (model.R_lo, model.R_hi) == (-bc.M2, bc.M2)
    assert model.osc == bc.M1


def test_assemble_column_support():
    # Maps into [1/6, 1/3] touch only the first two cells of a 4-cell
    # mesh on [0, 1]: columns 0, 1, 2.
    fam = make_mobius_family([3, 5], domain=(0.0, 1.0))
    mesh = make_mesh((0.0, 1.0), n=4)
    for mat in hat_matrices(fam, mesh, 0.5)[:3]:
        assert set(mat.indices.tolist()) <= {0, 1, 2}
        assert mat.dim == 5


def test_assemble_single_map_row_structure():
    fam = make_mobius_family([3])
    mesh = make_mesh(fam.domain, n=4)
    counts = np.diff(collocation_plan(fam, mesh).matrix(0.5).indptr)
    assert np.all(counts >= 1)
    assert np.all(counts <= 2)


def test_assemble_affine_cantor_row_sums():
    fam = make_cantor_family(0.0)
    mesh = make_mesh(fam.domain, n=50)
    s = math.log(2.0) / math.log(3.0)
    A, M, B, _ = hat_matrices(fam, mesh, s)
    sums = M.matvec(np.ones(mesh.dim))
    # Constant weight (1/3)^s per map, hat weights sum to one.
    assert np.allclose(sums, 2.0 * 3.0**-s, rtol=1e-14, atol=0)
    assert np.allclose(sums, 1.0, rtol=1e-14, atol=0)
    # Zero error model: all three matrices identical.
    assert np.array_equal(A.data, M.data)
    assert np.array_equal(B.data, M.data)
    assert np.array_equal(A.indices, M.indices)


def test_assemble_matches_direct_interpolation():
    # Rebuild (M w)_k and (B w)_k by a direct per-node loop.
    fam = make_mobius_family([1, 2])
    mesh = make_mesh(fam.domain, n=23)
    s = 0.61
    A, M, B, model = hat_matrices(fam, mesh, s)
    rng = np.random.default_rng(8)
    w = rng.uniform(0.5, 2.0, size=mesh.dim)
    got_m = M.matvec(w)
    got_a = A.matvec(w)
    got_b = B.matvec(w)
    for k, x in enumerate(mesh.nodes):
        acc_m = acc_a = acc_b = 0.0
        for j in range(fam.n_maps):
            y = float(eval_map(fam, j, x))
            gpow = abs(float(eval_map(fam, j, x, order=1))) ** s
            r, wl, wr = interp_weights(mesh, y)
            q = (mesh.nodes[r + 1] - y) * (y - mesh.nodes[r])
            base = wl * w[r] + wr * w[r + 1]
            acc_m += gpow * base
            acc_a += gpow * (1.0 - model.coef_hi * q) * base
            acc_b += gpow * (1.0 - model.coef_lo * q) * base
        assert got_m[k] == pytest.approx(acc_m, rel=1e-13)
        assert got_a[k] == pytest.approx(acc_a, rel=1e-13)
        assert got_b[k] == pytest.approx(acc_b, rel=1e-13)


def test_assemble_entrywise_relations(poly_fam):
    # coef_hi >= coef_lo always: A <= B entrywise; A <= M since R_hi >= 0.
    # The B/M order tracks the sign of coef_lo.
    cases = [
        (make_mobius_family([1, 2]), 0.5),
        (make_mobius_family([2, 3]), 0.4),
        (make_cantor_family(0.5), 0.8),
        (poly_fam, 0.8),
    ]
    for fam, s in cases:
        mesh = make_mesh(fam.domain, n=60)
        *mats, model = hat_matrices(fam, mesh, s)
        A, M, B = (m.toarray() for m in mats)
        assert np.all(A <= M + 1e-15)
        assert np.all(A <= B + 1e-15)
        if model.coef_lo >= 0.0:
            assert np.all(B <= M + 1e-15)
        else:
            assert np.all(B >= M - 1e-15)
        if model.coef_hi > 0.0:
            assert np.any(A < M)


def test_assemble_certified_cantor_collapses_b():
    # Sign-certified Cantor: R_lo = 0, so B equals M exactly.
    fam = make_cantor_family(0.5)
    mesh = make_mesh(fam.domain, n=40)
    A, M, B, model = hat_matrices(fam, mesh, 0.8)
    assert model.coef_lo == 0.0
    assert np.array_equal(B.data, M.data)
    assert np.any(A.data < M.data)


def test_assemble_map_escapes_mesh():
    fam = make_mobius_family([1, 2])
    mesh = make_mesh((0.0, 0.2), n=10)
    with pytest.raises((MapEscapesDomain, OutOfDomain)):
        hat_matrices(fam, mesh, 0.5)


@pytest.mark.parametrize("degree", [1, 2, 4])
def test_collocation_plan_map_escape_names_the_map(degree):
    # 1/(x+1) maps [0, 0.5] onto [2/3, 1], outside the mesh: a numeric
    # failure (exit 3) at every degree, not a configuration error.
    fam = make_mobius_family([1, 2])
    mesh = make_mesh((0.0, 0.5), n=10)
    with pytest.raises(MapEscapesDomain, match=r"map '1/\(x\+1\)'"):
        collocation_plan(fam, mesh, degree)


@pytest.mark.parametrize("degree", [1, 2, 4])
@pytest.mark.parametrize("span", [(0.0, 2.0), (-0.5, 1.0)])
def test_collocation_plan_mesh_must_stay_in_domain(degree, span):
    # cf{1,2} lives on [0, 1]; its maps are defined beyond, but the mesh
    # may not leave the domain at any degree (a configuration error).
    with pytest.raises(OutOfDomain, match="leaves the domain"):
        collocation_plan(make_mobius_family([1, 2]), make_mesh(span, n=20),
                         degree)


def test_assemble_on_reduced_union():
    fam = make_mobius_family([1, 2])
    parts = reduce_domain(fam, 2)
    mesh = make_mesh(parts, h=0.005)
    M = collocation_plan(fam, mesh).matrix(0.53)
    assert M.dim == mesh.dim
    # Matrix action keeps positive vectors positive (no zero rows).
    out = M.matvec(np.ones(mesh.dim))
    assert np.all(out > 0.0)


def test_assemble_deterministic():
    fam = make_mobius_family([1, 2])
    mesh = make_mesh(fam.domain, n=30)
    A1, M1, _, _ = hat_matrices(fam, mesh, 0.5)
    A2, M2, _, _ = hat_matrices(fam, mesh, 0.5)
    assert np.array_equal(M1.data, M2.data)
    assert np.array_equal(A1.data, A2.data)
    assert np.array_equal(M1.indices, M2.indices)
    assert np.array_equal(M1.indptr, M2.indptr)


def test_sparse_matrix_rejects_negative_entries():
    for bad in (-0.5, math.nan):
        with pytest.raises(NegativeEntry):
            SparseNonnegMatrix(2, np.array([0, 1, 2]), np.array([0, 1]),
                               np.array([1.0, bad]))


def _shared_cell_plans():
    # {3, 5} on four cells and cf{1..34} at h = 1e-3 both have maps
    # whose images share a cell, so (row, col) pairs repeat.
    yield make_mobius_family([3, 5], domain=(0.0, 1.0)), make_mesh((0.0, 1.0), n=4)
    fam = make_mobius_family(list(range(1, 35)))
    yield fam, make_mesh(fam.domain, h=1e-3)


@pytest.mark.parametrize("degree", [1, 3])
def test_collocation_plan_one_entry_per_contribution(degree):
    for fam, mesh in _shared_cell_plans():
        plan = collocation_plan(fam, mesh, degree)
        n_maps = len(fam.maps)
        per_row = (degree + 1) * n_maps
        assert np.array_equal(plan.indptr,
                              np.arange(0, per_row * plan.dim + 1, per_row))
        # Row k holds map j's d+1 consecutive columns, maps in order.
        cols = plan.indices.reshape(plan.dim, n_maps, degree + 1)
        assert np.all(np.diff(cols, axis=2) == 1)
        assert plan.weight.size == plan.indices.size
        assert plan.log_weight.size == plan.dim * n_maps
        if degree == 1:
            assert plan.q.size == plan.dim * n_maps
        # Where two maps share a cell, a (row, col) pair repeats.
        rows = np.repeat(np.arange(plan.dim), per_row)
        pairs = rows.astype(np.int64) * plan.dim + plan.indices
        assert np.unique(pairs).size < pairs.size


@settings(max_examples=500, derandomize=True, deadline=None, database=None)
@given(st.floats(0.0, 1.0))
def test_hat_weights_from_the_right_weight(t):
    # The hat basis is the degree-1 Lagrange basis at w_right: with
    # w_left = fl(1 - t) and w_right = fl(1 - w_left), fl(1 - w_right)
    # gives back w_left, so _lagrange_rows(w_right, 1) is (w_left, w_right).
    wl = 1.0 - t
    wr = 1.0 - wl
    assert 1.0 - wr == wl
    basis = _lagrange_rows(np.array([wr]), 1)
    assert (basis[0, 0], basis[1, 0]) == (wl, wr)


def _reference_locate(mesh, ys):
    # _locate as it was with a searchsorted cell lookup, kept as the oracle
    # for the arithmetic one.
    pieces, offsets = mesh.pieces, mesh.offsets
    lo, hi = mesh.span
    tol = CLAMP_REL_TOL * (hi - lo)
    ys = np.asarray(ys, dtype=float)
    if np.any(ys < lo - tol) or np.any(ys > hi + tol):
        raise OutOfDomain("interpolation point outside the meshed domain")
    c0 = np.empty(ys.shape, dtype=np.int64)
    wr = np.empty(ys.shape, dtype=float)
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
        wr[mask] = 1.0 - (1.0 - t)
        q[mask] = np.maximum((piece.nodes[r + 1] - y) * (y - piece.nodes[r]), 0.0)
        assigned[mask] = True
    if not np.all(assigned):
        raise OutOfDomain("interpolation point falls in a gap between pieces")
    return c0, wr, q


_LOCATE_MESHES = (
    make_mesh((0.0, 1.0), n=4),
    make_mesh((0.0, 1.0), n=997),
    make_mesh((0.3, 1.7), h=1e-3),
    make_mesh((-2.5, -0.1), n=3001),
    make_mesh(reduce_domain(make_mobius_family([1, 2]), 2), h=0.003),
    make_mesh(reduce_domain(make_mobius_family([1, 2, 3]), 1), h=1e-3),
    # 256 pieces.
    make_mesh(reduce_domain(make_cantor_family(0.5), 8), h=1e-4),
    # Gaps of 1e-13 and 3e-12 on a span of 1: a point near the first gap
    # is within the clamp tolerance (1e-12) of both its pieces, and one
    # more than that from both ends of the second is in no piece's reach.
    make_mesh([(0.0, 0.4), (0.4 + 1e-13, 0.7), (0.7 + 3e-12, 1.0)], n=30),
)


@st.composite
def _mesh_points(draw):
    # Nodes and their ulp neighbours, piece ends, points just inside and
    # just outside the clamp tolerance, and points anywhere in the span.
    mesh = draw(st.sampled_from(_LOCATE_MESHES))
    lo, hi = mesh.span
    tol = CLAMP_REL_TOL * (hi - lo)
    points = []
    for _ in range(draw(st.integers(1, 40))):
        piece = draw(st.sampled_from(mesh.pieces))
        node = piece.nodes[draw(st.integers(0, piece.n))]
        points.append(draw(st.sampled_from([
            node, np.nextafter(node, math.inf), np.nextafter(node, -math.inf),
            piece.a, piece.b, piece.a - 0.99 * tol, piece.b + 0.99 * tol,
            piece.a - 1.01 * tol, piece.b + 1.01 * tol,
            draw(st.floats(lo, hi)),
        ])))
    return mesh, np.array(points)


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(_mesh_points())
def test_arithmetic_locate_matches_searchsorted(case):
    mesh, ys = case
    lo, hi = mesh.span
    tol = CLAMP_REL_TOL * (hi - lo)
    reached = np.zeros(ys.shape, dtype=bool)
    for piece in mesh.pieces:
        reached |= (ys >= piece.a - tol) & (ys <= piece.b + tol)
    if not reached.all():
        # The same error as the reference; the points in reach still
        # locate as the reference locates them.
        with pytest.raises(OutOfDomain) as exc:
            _reference_locate(mesh, ys)
        with pytest.raises(OutOfDomain, match=str(exc.value)):
            _locate(mesh, ys)
        ys = ys[reached]
    want = _reference_locate(mesh, ys)
    got = _locate(mesh, ys)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)
    c0, wr, _ = want
    for y, c, r in zip(ys, c0, wr):
        assert interp_weights(mesh, y) == (int(c), float(1.0 - r), float(r))


def _reference_lagrange_rows(t, degree):
    # The product formula the basis weights came from before they were
    # built from prefix and suffix products: basis q is the product of
    # (u - p)/(q - p) over p != q, with u = d t.
    u = degree * t
    out = np.ones((degree + 1, t.size))
    for q in range(degree + 1):
        for p in range(degree + 1):
            if p != q:
                out[q] *= (u - p) / (q - p)
    return out


@pytest.mark.parametrize("degree", range(1, 9))
def test_lagrange_rows_against_the_product_formula(degree):
    # Degree 1 is bit for bit the product formula, signed zeros included.
    # Above it the weights divide once by an exact integer, so at a node
    # (u = d t an integer) they are exactly the unit vector, and elsewhere
    # each lies within 2d ulps (relative) of the product formula: both
    # multiply the same d factors u - p, in another order.  The points
    # are normal floats, as the plan's local coordinates are.
    rng = np.random.default_rng(degree)
    nodes = np.arange(degree + 1) / degree
    assert np.array_equal(degree * nodes, np.arange(degree + 1))
    eps = np.finfo(float).eps
    t = np.concatenate([rng.uniform(0.0, 1.0, 20000), nodes,
                        nodes[1:] * (1.0 - eps), nodes[:-1] + eps,
                        rng.uniform(0.0, 1e-12, 100)])
    got, want = _lagrange_rows(t, degree), _reference_lagrange_rows(t, degree)
    if degree == 1:
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))
    assert np.array_equal(_lagrange_rows(nodes, degree), np.eye(degree + 1))
    assert np.all(np.abs(got - want) <= 2 * degree * eps * np.abs(want))
    # out is filled in place, as the plan's transposed weight view is.
    out = np.empty((t.size, degree + 1)).T
    assert _lagrange_rows(t, degree, out=out) is out
    assert np.array_equal(out, got)


def _reference_plan(fam, mesh, degree):
    # The per-map plan builder as it was before the block fill: map by
    # map, strided writes into (dim, n_maps, d+1) arrays, every basis
    # weight from one _lagrange_rows call on all of a map's points.
    fine = _join([_mesh_piece(p.a, p.b, p.n * degree) for p in mesh.pieces])
    base = np.concatenate([off + degree * np.arange(p.n + 1)
                           for p, off in zip(mesh.pieces, fine.offsets)])
    shape = (fine.dim, fam.n_maps)
    cols = np.empty(shape + (degree + 1,), dtype=np.int32)
    weight = np.empty(shape + (degree + 1,))
    log_weight = np.empty(shape)
    q = np.empty(shape)
    for j, spec in enumerate(fam.maps):
        cell, wr, q[:, j] = _reference_locate(mesh, eval_map(fam, j, fine.nodes))
        log_weight[:, j] = spec.log_weight(fine.nodes)
        cols[:, j] = base[cell, None] + np.arange(degree + 1)
        weight[:, j] = _lagrange_rows(wr, degree).T
    q = q.ravel() if degree == 1 else None
    return dict(
        indptr=np.arange(0, cols.size + 1, cols[0].size, dtype=np.int32),
        indices=cols.ravel(), weight=weight.ravel(),
        log_weight=log_weight.ravel(), q=q,
        q_max=None if q is None else float(q.max()),
    )


def _one_map_family():
    maps = [MapSpec(label="(x+1)/(x+3)", eval=lambda x: (x + 1.0) / (x + 3.0),
                    d1=lambda x: 2.0 / (x + 3.0) ** 2,
                    log_weight=lambda x: math.log(2.0) - 2.0 * np.log(x + 3.0))]
    return make_custom_family(maps, (0.0, 1.0))


@pytest.mark.parametrize("block", [None, 1000])
@pytest.mark.parametrize("degree", [1, 3, 6, 8])
def test_block_plan_equals_the_per_map_plan(degree, block, monkeypatch):
    # cf{1..34} at h = degree * 2e-4 collocates at 5001 nodes at every
    # degree, more than one block of (node, map) pairs; a block of 1000
    # pairs puts every case through many blocks, the last one partial.
    if block is not None:
        monkeypatch.setattr(discretize, "_BLOCK", block)
    wide = make_mobius_family(list(range(1, 35)))
    pair = make_mobius_family([1, 2])
    cantor = make_cantor_family(0.0)
    one = _one_map_family()
    cases = [
        (wide, make_mesh(wide.domain, h=degree * 2e-4)),
        (pair, make_mesh(reduce_domain(pair, 2), h=0.003)),
        (cantor, make_mesh(cantor.domain, h=1e-3)),
        (one, make_mesh(one.domain, n=101)),
    ]
    assert 5001 * 34 > discretize._BLOCK
    for fam, mesh in cases:
        plan = collocation_plan(fam, mesh, degree)
        want = _reference_plan(fam, mesh, degree)
        for name, value in want.items():
            got = getattr(plan, name)
            if value is None or isinstance(value, float):
                assert got == value, name
            else:
                assert got.dtype == value.dtype, name
                assert np.array_equal(got, value), name
        # The entries at s, block by block or whole, are the plain formula.
        coefs = [None, 0.5 / plan.q_max, -3.0] if degree == 1 else [None]
        for s, coef in itertools.product((0.3, 0.8), coefs):
            g = np.exp(s * want["log_weight"])
            if coef is not None:
                g *= 1.0 - coef * want["q"]
            vals = np.repeat(g, degree + 1) * want["weight"]
            assert np.array_equal(plan.data(s, coef), vals)


def test_plan_errors_keep_map_order_across_blocks():
    # The plan fills blocks of nodes, all maps at once, yet reports the
    # first failing map in map order, as a map-by-map build would: here
    # map 1 fails in the first block and map 0 only in the last.
    def const(value):
        return lambda x: np.full_like(np.asarray(x, float), value)

    def affine(j, ratio, shift, log_weight):
        return MapSpec(label=f"affine-{j}",
                       eval=lambda x: ratio * np.asarray(x, float) + shift,
                       d1=const(ratio), d2=const(0.0), log_weight=log_weight,
                       weight_r1=const(0.0), weight_r2=const(0.0),
                       d1_sup=ratio)

    mesh = make_mesh((0.0, 0.61), n=discretize._BLOCK // 2 + 1000)
    x_bad = mesh.nodes[-2]

    def nan_near_end(x):
        x = np.asarray(x, float)
        return np.where(x == x_bad, math.nan, math.log(1.0 / 3.0))

    # Map 1 leaves the mesh everywhere, map 0's weight fails at one node.
    third = const(math.log(1.0 / 3.0))
    fam = make_custom_family([affine(0, 1.0 / 3.0, 0.0, nan_near_end),
                              affine(1, 1.0 / 3.0, 2.0 / 3.0, third)],
                             (0.0, 1.0))
    with pytest.raises(ParamOutOfRange, match="'affine-0' is not positive"):
        collocation_plan(fam, mesh)
    # Map 0 leaves the mesh only near its right end.
    fam = make_custom_family([affine(0, 0.5, 0.31, const(math.log(0.5))),
                              affine(1, 1.0 / 3.0, 2.0 / 3.0, third)],
                             (0.0, 1.0))
    with pytest.raises(MapEscapesDomain,
                       match="map 'affine-0': interpolation point outside"):
        collocation_plan(fam, mesh)


def test_collocation_plan_matrices_share_the_pattern():
    rng = np.random.default_rng(3)
    for fam, mesh in _shared_cell_plans():
        plan = collocation_plan(fam, mesh)
        model = error_model(fam, 0.5, mesh.h)
        mats = (plan.matrix(0.5, model.coef_hi), plan.matrix(0.5),
                plan.matrix(0.5, model.coef_lo))
        w = rng.uniform(0.5, 2.0, size=plan.dim)
        for mat in mats:
            assert np.shares_memory(mat.indptr, plan.indptr)
            assert np.shares_memory(mat.indices, plan.indices)
            dense = mat.toarray() @ w
            assert np.allclose(mat.matvec(w), dense, rtol=1e-14, atol=0)


def test_plan_correction_must_stay_below_one():
    fam = make_mobius_family([1, 2])
    mesh = make_mesh(fam.domain, h=0.01)
    plan = collocation_plan(fam, mesh)
    for coef in (math.nan, math.inf, -math.inf, 2.0 / plan.q_max):
        with pytest.raises(ErrTooLarge):
            plan.matrix(0.5, coef)
    # Inside the limit every factor 1 - coef Q stays positive.
    positive = plan.data(0.5) > 0.0
    for coef in (0.999 / plan.q_max, -1e6):
        assert np.array_equal(plan.data(0.5, coef) > 0.0, positive)


def test_plan_correction_needs_the_hat_basis():
    fam = make_mobius_family([1, 2])
    plan = collocation_plan(fam, make_mesh(fam.domain, n=10), 2)
    assert plan.q is None and plan.q_max is None
    with pytest.raises(BadParams, match="degree 2"):
        plan.matrix(0.5, 0.0)


def test_map_without_log_weight_is_named():
    maps = [MapSpec(label=f"half-{j}", eval=lambda x, j=j: 0.5 * (x + j),
                    d1=lambda x: np.full_like(np.asarray(x, float), 0.5))
            for j in range(2)]
    fam = make_custom_family(maps, (0.0, 1.0))
    mesh = make_mesh(fam.domain, n=10)
    with pytest.raises(MissingDerivatives, match="'half-0' has no log_weight"):
        collocation_plan(fam, mesh)
    with pytest.raises(MissingDerivatives):
        bracket_dimension(fam, mesh)
    with pytest.raises(MissingDerivatives):
        highorder_dimension(fam, mesh, 2)

    # log_weight NaN only at x = 0.5: a mesh node, but not one of the
    # points make_custom_family samples.  Every route that builds a
    # collocation plan names the map before any matrix is built.
    def const(value):
        return lambda x: np.full_like(np.asarray(x, float), value)

    def log_w(x):
        x = np.asarray(x, float)
        return np.where(x == 0.5, math.nan, math.log(1.0 / 3.0))

    maps = [MapSpec(label=f"third-{j}",
                    eval=lambda x, j=j: (np.asarray(x, float) + 2 * j) / 3.0,
                    d1=const(1.0 / 3.0), d2=const(0.0), log_weight=log_w,
                    weight_r1=const(0.0), weight_r2=const(0.0),
                    d1_sup=1.0 / 3.0)
            for j in range(2)]
    fam = make_custom_family(maps, (0.0, 1.0))
    mesh = make_mesh(fam.domain, n=100)
    match = "weight of map 'third-0' is not positive on the domain"
    for degree in (1, 3):
        with pytest.raises(ParamOutOfRange, match=match):
            collocation_plan(fam, mesh, degree)
    with pytest.raises(ParamOutOfRange, match=match):
        bracket_dimension(fam, mesh)
    with pytest.raises(ParamOutOfRange, match=match):
        highorder_dimension(fam, mesh, 3)


def test_row_sums_with_empty_row():
    mat = SparseNonnegMatrix(3, np.array([0, 1, 1, 2]), np.array([0, 2]),
                             np.array([2.0, 3.0]))
    assert np.array_equal(mat.matvec(np.ones(3)), [2.0, 0.0, 3.0])


def _kernel_matrices():
    # Hat plans whose maps share a cell, so (row, col) pairs repeat,
    # and a signed degree-6 plan.
    for fam, mesh in _shared_cell_plans():
        yield collocation_plan(fam, mesh).matrix(0.7)
    fam = make_mobius_family([1, 2])
    plan = collocation_plan(fam, make_mesh(fam.domain, h=0.01), 6)
    yield HighOrderMatrix(plan.dim, plan.indptr, plan.indices, plan.data(0.7))


def test_matvec_is_scipys_csr_product_bit_for_bit():
    rng = np.random.default_rng(11)
    signed = False
    for mat in _kernel_matrices():
        signed |= bool((mat.data < 0.0).any())
        ref = scipy.sparse.csr_matrix((mat.data, mat.indices, mat.indptr),
                                      shape=(mat.dim, mat.dim))
        assert np.array_equal(mat.toarray(), ref.toarray())
        for w in (np.ones(mat.dim), rng.uniform(-1.0, 2.0, mat.dim)):
            want = (ref @ w).tobytes()
            assert mat.matvec(w).tobytes() == want
            out = np.full(mat.dim, np.nan)
            assert mat.matvec(w, out) is out
            assert out.tobytes() == want
    assert signed


def _without_kernel_module(monkeypatch):
    # This process imported scipy.sparse; drop its kernel module from
    # sys.modules (restored after the test) so the loader looks again.
    monkeypatch.delitem(sys.modules, discretize._KERNEL)


def test_kernel_loads_from_its_file(monkeypatch):
    _without_kernel_module(monkeypatch)
    assert discretize._kernel_file() is not None
    kernel = discretize._load_sparsetools()
    assert kernel.__file__ == discretize._kernel_file()
    # The loaded module is not left in sys.modules for scipy.sparse.
    assert discretize._KERNEL not in sys.modules
    monkeypatch.setattr(discretize, "_sparsetools", kernel)
    test_matvec_is_scipys_csr_product_bit_for_bit()


def test_kernel_reuses_an_imported_module():
    assert discretize._load_sparsetools() is scipy.sparse._sparsetools


@pytest.mark.parametrize("case", ["missing", "unloadable"])
def test_kernel_falls_back_to_scipy_sparse(monkeypatch, tmp_path, case):
    # With no file found, or a file that is no extension module, the
    # kernel comes from scipy.sparse and passes the same pins.
    bad = tmp_path / "_sparsetools.so"
    bad.write_bytes(b"not a shared object")
    path = None if case == "missing" else str(bad)
    monkeypatch.setattr(discretize, "_kernel_file", lambda: path)
    _without_kernel_module(monkeypatch)
    kernel = discretize._load_sparsetools()
    assert kernel is scipy.sparse._sparsetools
    monkeypatch.setattr(discretize, "_sparsetools", kernel)
    test_matvec_is_scipys_csr_product_bit_for_bit()


def _python(*args):
    """Run python with this checkout's src first on PYTHONPATH."""
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=src if not path else src + os.pathsep + path)
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env)


def test_import_leaves_scipy_sparse_unimported():
    # Then a later import of scipy.sparse binds its own kernel module,
    # and its products agree with the plan matrices' bit for bit.  The
    # two-thread paths need no thread pool module either.
    proc = _python("-c", """if True:
        import sys
        import numpy as np
        import hausdim
        assert "scipy.sparse" not in sys.modules
        assert "concurrent.futures" not in sys.modules
        fam = hausdim.make_mobius_family([3, 5], domain=(0.0, 1.0))
        mat = hausdim.collocation_plan(
            fam, hausdim.make_mesh((0.0, 1.0), n=4)).matrix(0.7)
        w = np.linspace(-1.0, 2.0, mat.dim)
        got = mat.matvec(w)
        import scipy.sparse
        ref = scipy.sparse.csr_matrix((mat.data, mat.indices, mat.indptr),
                                      shape=(mat.dim, mat.dim))
        assert (ref @ w).tobytes() == got.tobytes()
        assert scipy.sparse._sparsetools is sys.modules[
            "scipy.sparse._sparsetools"]
        a = scipy.sparse.csr_matrix(np.array([[1.0, 2.0], [0.0, 3.0]]))
        assert ((a @ a).toarray() == [[1.0, 8.0], [0.0, 9.0]]).all()
        assert (mat.toarray() == ref.toarray()).all()
        print("ok")
        """)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"


def test_cli_dim_leaves_scipy_sparse_unimported():
    proc = _python("-c", """if True:
        import sys
        from hausdim.cli import main
        code = main(["--cf", "1,2", "--h", "0.01", "--format", "json", "dim"])
        sys.exit(code or 7 * ("scipy.sparse" in sys.modules))
        """)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["certified"] is True


def _csr(dim, indptr, indices, data):
    return SparseNonnegMatrix(dim, np.array(indptr, np.int32),
                              np.array(indices, np.int32), np.array(data))


def test_toarray_is_scipys_bit_for_bit():
    # Repeated (row, col) entries sum in stored order: 1 + eps/2 + eps/2
    # rounds to 1, eps/2 + eps/2 + 1 does not.  Entries past indptr[-1]
    # are not part of the matrix.
    half = float(np.finfo(float).eps) / 2.0
    mats = [
        _csr(2, [0, 3, 6], [1, 1, 1, 0, 0, 0],
             [1.0, half, half, half, half, 1.0]),
        _csr(3, [0, 1, 1, 2], [2, 0, 1, 2], [2.0, 3.0, 5.0, 7.0]),
        *_kernel_matrices(),
    ]
    assert mats[0].toarray()[0, 1] == 1.0 < mats[0].toarray()[1, 0]
    for mat in mats:
        ref = scipy.sparse.csr_matrix((mat.data, mat.indices, mat.indptr),
                                      shape=(mat.dim, mat.dim)).toarray()
        got = mat.toarray()
        assert got.dtype == ref.dtype and got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()


def _i32(*values):
    return np.array(values, dtype=np.int32)


@pytest.mark.parametrize("indptr, indices, data", [
    (_i32(0, 1), _i32(0, 1), np.array([1.0, 2.0])),  # indptr one short
    (_i32(0, 1, 2), _i32(0), np.array([1.0, 2.0])),  # fewer indices
    (_i32(0, 1, 3), _i32(0, 1), np.array([1.0, 2.0])),  # past the entries
    (_i32(1, 1, 2), _i32(0, 1), np.array([1.0, 2.0])),  # not from 0
    (_i32(0, 1, 2), _i32(0, 1), np.array([1.0, 2.0], np.float32)),
    (np.array([0, 1, 2], np.int64), _i32(0, 1), np.array([1.0, 2.0])),
])
def test_malformed_csr_arrays_never_reach_the_kernel(monkeypatch, indptr,
                                                      indices, data):
    # The compiled loop does not bounds-check; the constructor must.
    monkeypatch.setattr(discretize, "_sparsetools", None)
    with pytest.raises(BadParams):
        SparseNonnegMatrix(2, indptr, indices, data)


def test_matvec_rejects_vectors_of_another_length(monkeypatch):
    mat = SparseNonnegMatrix(2, _i32(0, 1, 2), _i32(0, 1), np.array([1.0, 2.0]))
    monkeypatch.setattr(discretize, "_sparsetools", None)
    for w, out in ((np.ones(1), None), (np.ones(3), None),
                   (np.ones(2), np.empty(1))):
        with pytest.raises(BadParams):
            mat.matvec(w, out)


def test_dump_matrix_format():
    fam = make_mobius_family([3, 5], domain=(0.0, 1.0))
    mesh = make_mesh((0.0, 1.0), n=4)
    M = collocation_plan(fam, mesh).matrix(0.5)
    text = dump_matrix(M, mesh.n, 0.5, fam.family_id)
    lines = text.strip().split("\n")
    head = lines[0].split()
    assert int(head[0]) == 5
    assert int(head[1]) == 4
    assert float(head[2]) == 0.5
    assert head[3] == fam.family_id
    assert len(lines) == 1 + M.nnz
    for ln in lines[1:]:
        r, c, v = ln.split()
        assert 0 <= int(r) < 5
        assert 0 <= int(c) < 5
        # node hits store an explicit zero weight
        assert float(v) >= 0.0
    # Full precision round trip.
    vals = sorted(float(ln.split()[2]) for ln in lines[1:])
    assert vals == sorted(M.data.tolist())


def _interpolation_meshes(domain):
    fam = make_mobius_family([1, 2])
    intervals = [fam.domain] if domain == "one piece" else reduce_domain(fam, 2)
    return make_mesh(intervals, h=0.16), make_mesh(intervals, h=0.01)


@pytest.mark.parametrize("domain", ["one piece", "reduced:2"])
@pytest.mark.parametrize("degree", [1, 3, 6])
def test_interpolate_nodal_reproduces_polynomials(degree, domain):
    # A polynomial of degree <= d is its own degree-d interpolant, so
    # the other mesh's nodes read it to rounding, coarse to fine and
    # fine to coarse.
    coarse, fine = _interpolation_meshes(domain)
    x_coarse = _degree_nodes(coarse, degree).nodes
    x_fine = _degree_nodes(fine, degree).nodes
    rng = np.random.default_rng(degree)
    for p in range(degree + 1):
        coef = rng.uniform(-1.0, 1.0, p + 1)
        got = _interpolate_nodal(np.polyval(coef, x_coarse), coarse, fine,
                                degree)
        assert np.allclose(got, np.polyval(coef, x_fine), rtol=0, atol=1e-14)
        back = _interpolate_nodal(np.polyval(coef, x_fine), fine, coarse,
                                 degree)
        assert np.allclose(back, np.polyval(coef, x_coarse), rtol=0,
                           atol=1e-14)


@pytest.mark.parametrize("degree", [1, 3, 6])
def test_interpolate_nodal_keeps_to_each_piece(degree):
    # With NaN on every other piece, a piece still reads its own
    # polynomial exactly and every other piece stays NaN.
    coarse, fine = _interpolation_meshes("reduced:2")
    source = _degree_nodes(coarse, degree)
    target = _degree_nodes(fine, degree)
    assert len(coarse.pieces) > 1
    for k in range(len(coarse.pieces)):
        values = np.full(source.dim, math.nan)
        own = slice(source.offsets[k], source.offsets[k + 1])
        values[own] = source.nodes[own] ** degree
        got = _interpolate_nodal(values, coarse, fine, degree)
        mine = slice(target.offsets[k], target.offsets[k + 1])
        assert np.allclose(got[mine], target.nodes[mine] ** degree,
                           rtol=0, atol=1e-14)
        assert np.isnan(np.delete(got, np.arange(target.dim)[mine])).all()


def test_interpolate_nodal_rejects_mismatched_input():
    coarse, fine = _interpolation_meshes("one piece")
    with pytest.raises(BadParams, match="nodal values"):
        _interpolate_nodal(np.ones(coarse.dim + 1), coarse, fine, 1)
    other = make_mesh((0.0, 0.5), h=0.01)
    with pytest.raises(BadParams, match="same pieces"):
        _interpolate_nodal(np.ones(coarse.dim), coarse, other, 1)
    for bad in (0, 9, 2.5, True):
        with pytest.raises(ParamOutOfRange, match="degree"):
            _interpolate_nodal(np.ones(coarse.dim), coarse, fine, bad)


def _affine_pair():
    """Two affine maps with a gap on [0, 1], as a custom family."""
    def const(value):
        return lambda x: np.full_like(np.asarray(x, dtype=float), value)

    def spec(j, ratio, offset):
        return MapSpec(label=f"affine-{j}",
                       eval=lambda x: ratio * np.asarray(x, dtype=float) + offset,
                       d1=const(ratio), d2=const(0.0), d3=const(0.0),
                       log_weight=const(math.log(ratio)), weight_r1=const(0.0),
                       weight_r2=const(0.0), weight_r3=const(0.0),
                       d1_sup=ratio)

    return make_custom_family([spec(0, 0.3, 0.0), spec(1, 0.45, 0.55)],
                              (0.0, 1.0), label="affine-pair")


_CLOSED_FAMILIES = {
    "cf12": lambda: make_mobius_family([1, 2]),
    "cf1..20": lambda: make_mobius_family(list(range(1, 21))),
    "cantor05": lambda: make_cantor_family(0.5),
    "affine": _affine_pair,
}


def _closed_case(name, pieces):
    fam = _CLOSED_FAMILIES[name]()
    domain = reduce_domain(fam, pieces)
    return fam, make_mesh(domain, n=max(60, 4 * len(domain)))


def _reference_closed(fam, mesh, degree):
    """closed_plan rebuilt from the naive fixpoint S <- cols(S).

    Starting from every node, S shrinks to the columns its rows read
    until it stops shrinking; the plan's arrays are then gathered to S's
    rows and the columns renumbered, or left whole where S keeps more
    than discretize._CLOSED_MAX_SHARE of the rows.
    """
    full = collocation_plan(fam, mesh, degree)
    reads = full.indices.reshape(full.dim, -1)
    rows = np.arange(full.dim)
    while True:
        kept = np.unique(reads[rows])
        if kept.size == rows.size:
            break
        rows = kept
    if rows.size > discretize._CLOSED_MAX_SHARE * full.dim:
        return full, np.arange(full.dim), full
    column = np.full(full.dim, -1)
    column[rows] = np.arange(rows.size)

    def gather(arr):
        return None if arr is None else arr.reshape(full.dim, -1)[rows].ravel()

    per_row = reads.shape[1]
    return full, rows, discretize.CollocationPlan(
        dim=rows.size, degree=degree,
        indptr=np.arange(0, per_row * rows.size + 1, per_row),
        indices=column[reads[rows]].ravel(), weight=gather(full.weight),
        log_weight=gather(full.log_weight), q=gather(full.q),
        q_max=full.q_max)


@pytest.mark.parametrize("degree", [1, 3, 6])
@pytest.mark.parametrize("pieces", [0, 2], ids=["one piece", "reduced:2"])
@pytest.mark.parametrize("name", sorted(_CLOSED_FAMILIES))
def test_closed_plan_matches_naive_fixpoint(name, pieces, degree):
    fam, mesh = _closed_case(name, pieces)
    full, rows, want = _reference_closed(fam, mesh, degree)
    got = closed_plan(fam, mesh, degree)
    assert np.array_equal(got.rows, rows)
    assert (got.dim, got.degree, got.q_max) == (want.dim, degree, want.q_max)
    for field in ("indptr", "indices", "weight", "log_weight", "q"):
        a, b = getattr(got, field), getattr(want, field)
        assert (a is None and b is None) or np.array_equal(a, b), field
    assert 0 <= got.indices.min() and got.indices.max() < got.dim


def test_closed_plan_cases_compact_and_stay_whole():
    # The cases above cover both outcomes at every degree: cf{1,2} keeps
    # under a third of its nodes, cf{1..20} all of them.
    for name, pieces, compact in [("cf12", 0, True), ("cf1..20", 0, False),
                                  ("cantor05", 0, True),
                                  ("cantor05", 2, False)]:
        fam, mesh = _closed_case(name, pieces)
        for degree in (1, 3, 6):
            plan = closed_plan(fam, mesh, degree)
            full_dim = _degree_nodes(mesh, degree).dim
            assert (plan.dim < full_dim) == compact, (name, pieces, degree)


@pytest.mark.parametrize("pieces", [0, 2], ids=["one piece", "reduced:2"])
@pytest.mark.parametrize("name", sorted(_CLOSED_FAMILIES))
def test_closed_plan_keeps_every_radius(name, pieces):
    # The rows outside S form a nilpotent block below S's, so r(A),
    # r(M), r(B) and the degree-d |lambda| are those of the S x S block.
    fam, mesh = _closed_case(name, pieces)
    full, closed = collocation_plan(fam, mesh), closed_plan(fam, mesh)
    full6, closed6 = (collocation_plan(fam, mesh, 6),
                      closed_plan(fam, mesh, 6))
    for s in (0.3, 0.6, 0.9):
        model = error_model(fam, s, mesh.h)
        for coef in (model.coef_hi, None, model.coef_lo):
            want, got = (power_enclosure(plan.matrix(s, coef)).midpoint
                         for plan in (full, closed))
            assert abs(got - want) <= RADIUS_TOL * want
        want, got = (dominant_magnitude(HighOrderMatrix(
            plan.dim, plan.indptr, plan.indices, plan.data(s)))
            for plan in (full6, closed6))
        assert abs(got - want) <= RADIUS_TOL * want


def test_closed_plan_weighs_only_the_closed_rows(monkeypatch):
    # Pass 2 weighs S's rows only: cf{1,2} at degree 6 keeps under a
    # tenth of its 3001 nodes, and _lagrange_rows sees |S| * n_maps
    # points in all, not one per (node, map) pair of the grid.
    seen = []

    def counting(t, degree, **kwargs):
        seen.append(t.size)
        return real(t, degree, **kwargs)

    real = discretize._lagrange_rows
    monkeypatch.setattr(discretize, "_lagrange_rows", counting)
    fam = make_mobius_family([1, 2])
    mesh = make_mesh(fam.domain, h=1e-3)
    plan = closed_plan(fam, mesh, 6)
    assert plan.dim < _degree_nodes(mesh, 6).dim // 10
    assert sum(seen) == plan.dim * fam.n_maps


def test_closed_plan_checks_the_dropped_nodes():
    # Map 0's log weight is NaN at one node that S drops; pass 1 checks
    # every node, so closed_plan and a bracket raise as collocation_plan
    # does.  The digits {2, 3} contract in one step (kappa = 1/4), so the
    # bracket's bound plan accepts the wrapped family and its plans are
    # built.
    digits = make_mobius_family([2, 3])
    mesh = make_mesh(digits.domain, h=0.01)
    x_bad = mesh.nodes[3]
    assert 3 not in closed_plan(digits, mesh).rows
    log_w = digits.maps[0].log_weight

    def nan_at_x_bad(x):
        return np.where(np.asarray(x) == x_bad, math.nan, log_w(x))

    fam = make_custom_family(
        [dataclasses.replace(digits.maps[0], log_weight=nan_at_x_bad),
         digits.maps[1]], digits.domain)
    for build in (collocation_plan, closed_plan):
        with pytest.raises(ParamOutOfRange,
                           match="'1/\\(x\\+2\\)' is not positive"):
            build(fam, mesh)
    with pytest.raises(ParamOutOfRange, match="is not positive"):
        bracket_dimension(fam, mesh)


class _ThreadCount:
    """Stands in for discretize's threading module; counts the threads."""

    def __init__(self):
        self.started = 0

    def Thread(self, **kwargs):
        self.started += 1
        return threading.Thread(**kwargs)

    def __getattr__(self, name):
        return getattr(threading, name)


def _force_split(monkeypatch, cpus):
    """Every split path on at any size, blocks of 1000 pairs, `cpus` CPUs."""
    threads = _ThreadCount()
    monkeypatch.setattr(discretize, "threading", threads)
    monkeypatch.setattr(discretize, "_cpu_count", lambda: cpus)
    monkeypatch.setattr(discretize, "_SPLIT_MATVEC_ENTRIES", 0)
    monkeypatch.setattr(discretize, "_SPLIT_MIN_ENTRIES", 0)
    monkeypatch.setattr(discretize, "_BLOCK", 1000)
    return threads


_SPLIT_FAMILIES = {"cf{1,2}": make_mobius_family([1, 2]),
                   "cantor 0.5": make_cantor_family(0.5)}


def _split_outputs(fam, mesh, degree):
    """Every plan array, entry array and matvec of both plan builders."""
    out = []
    for build in (collocation_plan, closed_plan):
        plan = build(fam, mesh, degree)
        out += [plan.indptr, plan.indices, plan.weight, plan.log_weight,
                plan.q, plan.rows, np.array(plan.q_max)]
        w = 1.0 + np.arange(plan.dim) / plan.dim
        coefs = [None] if degree > 1 else [None, 0.5 / plan.q_max, -3.0]
        for coef in coefs:
            data = plan.data(0.7, coef)
            matrix = discretize.CsrMatrix(plan.dim, plan.indptr,
                                          plan.indices, data)
            out += [data, matrix.matvec(w), matrix.matvec(w, np.ones(plan.dim))]
    return out


@pytest.mark.parametrize("degree", [1, 6])
@pytest.mark.parametrize("pieces", [0, 2], ids=["one piece", "reduced:2"])
@pytest.mark.parametrize("name", sorted(_SPLIT_FAMILIES))
def test_split_paths_are_bit_identical(name, pieces, degree, monkeypatch):
    # The matvec halves, the data blocks and both plan passes give every
    # bit of the serial loops; with one CPU nothing runs on a thread.
    fam = _SPLIT_FAMILIES[name]
    mesh = make_mesh(reduce_domain(fam, pieces), h=1e-3)
    threads = _force_split(monkeypatch, cpus=1)
    want = _split_outputs(fam, mesh, degree)
    assert threads.started == 0
    threads = _force_split(monkeypatch, cpus=2)
    got = _split_outputs(fam, mesh, degree)
    assert threads.started > 0
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (a is None and b is None) or (
            np.array_equal(a, b) and a.tobytes() == b.tobytes())


@pytest.mark.parametrize("name", sorted(_SPLIT_FAMILIES))
def test_split_brackets_and_estimates_are_bit_identical(name, monkeypatch):
    fam = _SPLIT_FAMILIES[name]
    mesh, coarse = make_mesh(fam.domain, h=1e-3), make_mesh(fam.domain, h=0.01)

    def results():
        br = bracket_dimension(fam, mesh)
        est = highorder_dimension(fam, coarse, 6)
        return (br.s_lower.hex(), br.s_upper.hex(), br.evals, br.certified,
                est.s.hex(), est.evals)

    threads = _force_split(monkeypatch, cpus=1)
    want = results()
    assert threads.started == 0
    threads = _force_split(monkeypatch, cpus=2)
    before = threading.active_count()
    assert results() == want
    assert threads.started > 0
    assert threading.active_count() == before


def test_split_plan_errors_match_the_serial_ones(monkeypatch):
    # A failing pass-1 block raises _map_error's error, read off every
    # node, so the split build raises as the serial one: map 1 of cf{1,2}
    # leaves the mesh only in the last blocks, and the dropped-node family
    # (a custom family, so its pass 1 stays serial) fails at one node.
    digits = make_mobius_family([2, 3])
    dropped = make_mesh(digits.domain, h=0.01)
    x_bad = dropped.nodes[3]
    log_w = digits.maps[0].log_weight
    nan_fam = make_custom_family(
        [dataclasses.replace(digits.maps[0], log_weight=lambda x: np.where(
            np.asarray(x) == x_bad, math.nan, log_w(x))),
         digits.maps[1]], digits.domain)
    cases = [(make_mobius_family([1, 2]), make_mesh((0.35, 1.0), n=3000),
              MapEscapesDomain, "map '1/(x+2)': interpolation point outside"),
             (nan_fam, dropped,
              ParamOutOfRange, "weight of map '1/(x+2)' is not positive")]
    for fam, mesh, error, message in cases:
        for cpus in (1, 2):
            _force_split(monkeypatch, cpus)
            before = threading.active_count()
            with pytest.raises(error) as info:
                closed_plan(fam, mesh)
            assert threading.active_count() == before
            assert str(info.value).startswith(message)


def test_split_kernel_errors_reach_the_caller(monkeypatch):
    # The second half runs on the thread; its error is raised here, and
    # the first half's wins when both fail, as in the serial loop.
    class Failing:
        def __init__(self, halves):
            self.halves = halves

        def csr_matvec(self, n_row, n_col, indptr, *args):
            half = "first" if indptr[0] == 0 else "second"
            if half in self.halves:
                raise RuntimeError(half)

    _force_split(monkeypatch, cpus=2)
    matrix = collocation_plan(make_mobius_family([1, 2]),
                              make_mesh((0.0, 1.0), n=100)).matrix(0.5)
    before = threading.active_count()
    for halves, raised in [({"second"}, "second"), ({"first"}, "first"),
                           ({"first", "second"}, "first")]:
        monkeypatch.setattr(discretize, "_sparsetools", Failing(halves))
        with pytest.raises(RuntimeError, match=raised):
            matrix.matvec(np.ones(matrix.dim))
        assert threading.active_count() == before


def test_in_halves_runs_every_item_once(monkeypatch):
    monkeypatch.setattr(discretize, "_cpu_count", lambda: 2)
    for n in range(5):
        for split in (False, True):
            seen = []
            discretize._in_halves(
                lambda part: seen.extend((i, threading.get_ident())
                                         for i in part),
                range(n), split=split)
            assert sorted(i for i, _ in seen) == list(range(n))
            here = [i for i, ident in seen if ident == threading.get_ident()]
            assert here == list(range((n + 1) // 2 if split and n > 1 else n))


# ---------------------------------------------------------------------------
# work arrays, entry buffers and the solve's helper thread


def _frozen_find_cells(mesh, ys):
    # _find_cells as it was before it worked in a _Scratch, every step a
    # new array; the in-place one must give its every bit.
    lo, hi = mesh.span
    tol = CLAMP_REL_TOL * (hi - lo)
    ys = np.asarray(ys, dtype=float)
    a, b, h, n, first = mesh._piece_arrays
    i = 0 if b.size == 1 else np.minimum(np.searchsorted(b + tol, ys),
                                         b.size - 1)
    a, b, h, n, first = a[i], b[i], h[i], n[i], first[i]
    assert ((ys >= a - tol) & (ys <= b + tol)).all()
    nodes = mesh.nodes
    y = np.clip(ys, a, b)
    r = np.minimum((y - a) / h, n - 1).astype(np.intp)
    r += first
    r = r - (nodes[r] > y)
    r = r + ((nodes[r + 1] <= y) & (r < first + n - 1))
    return r, y, h


def _frozen_hat(mesh, r, y, h, q=None):
    # _hat as it was before it wrote into out and work.
    nodes = mesh.nodes
    x_r = nodes[r]
    if q is not None:
        np.maximum((nodes[r + 1] - y) * (y - x_r), 0.0, out=q)
    t = np.clip((y - x_r) / h, 0.0, 1.0)
    return 1.0 - (1.0 - t)


def _frozen_lagrange_rows(t, degree):
    # _lagrange_rows as it was before it kept its products in out or work.
    out = np.empty((degree + 1, t.size))
    denom = [(-1) ** (degree - q) * math.factorial(q)
             * math.factorial(degree - q) for q in range(degree + 1)]
    u = degree * t
    left = np.empty((degree, t.size))
    left[0] = u
    diff = np.empty(t.size)
    for q in range(1, degree):
        np.subtract(u, q, out=diff)
        np.multiply(left[q - 1], diff, out=left[q])
    np.divide(left[degree - 1], denom[degree], out=out[degree])
    right = np.subtract(u, degree)
    for q in range(degree - 1, 0, -1):
        np.multiply(left[q - 1], right, out=diff)
        np.divide(diff, denom[q], out=out[q])
        np.subtract(u, q, out=diff)
        right *= diff
    np.divide(right, denom[0], out=out[0])
    return out


def _same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return (got.dtype == want.dtype and got.shape == want.shape
            and got.tobytes() == want.tobytes())


def _points_in_reach(mesh, rng):
    # Every node and both its ulp neighbours, the piece ends and points
    # just inside the clamp tolerance, and points anywhere in the span,
    # keeping those some piece reaches.
    lo, hi = mesh.span
    tol = CLAMP_REL_TOL * (hi - lo)
    ends = np.array([[p.a - 0.99 * tol, p.b + 0.99 * tol]
                     for p in mesh.pieces]).ravel()
    ys = np.concatenate([mesh.nodes, np.nextafter(mesh.nodes, math.inf),
                         np.nextafter(mesh.nodes, -math.inf), ends,
                         rng.uniform(lo, hi, 3000)])
    reached = np.zeros(ys.shape, dtype=bool)
    for piece in mesh.pieces:
        reached |= (ys >= piece.a - tol) & (ys <= piece.b + tol)
    return ys[reached]


@pytest.mark.parametrize("index", range(len(_LOCATE_MESHES)))
def test_in_place_locate_steps_are_bit_identical(index):
    # With or without a _Scratch, larger than the points or not, the
    # cell and t/Q steps give the frozen ones' every bit on every mesh
    # of _LOCATE_MESHES, the many-piece ones included.
    mesh = _LOCATE_MESHES[index]
    ys = _points_in_reach(mesh, np.random.default_rng(index))
    r0, y0, h0 = _frozen_find_cells(mesh, ys)
    q0 = np.empty(ys.size)
    wr0 = _frozen_hat(mesh, r0, y0, h0, q0)
    for work in (None, discretize._Scratch(ys.size),
                 discretize._Scratch(ys.size + 7)):
        r, y, h = discretize._find_cells(mesh, ys, work)
        assert _same_bits(r, r0) and _same_bits(y, y0) and _same_bits(h, h0)
        q, out = np.full(ys.size, np.nan), np.full(ys.size, np.nan)
        assert discretize._hat(mesh, r, y, h, q, out=out, work=work) is out
        assert _same_bits(out, wr0) and _same_bits(q, q0)
        assert _same_bits(discretize._hat(mesh, r, y, h, work=work), wr0)
    # The points a plan locates from may be the array its weights go to.
    work = discretize._Scratch(ys.size)
    images = ys.copy()
    r, y, h = discretize._find_cells(mesh, images, work)
    discretize._hat(mesh, r, y, h, out=images, work=work)
    assert _same_bits(images, wr0)


@pytest.mark.parametrize("degree", range(1, 9))
def test_in_place_lagrange_rows_are_bit_identical(degree):
    # Signed zeros included, for a new, a contiguous and a strided out,
    # with and without work, at the nodes, their ulp neighbours and
    # anywhere in [0, 1].
    nodes = np.arange(degree + 1) / degree
    t = np.concatenate([
        nodes, np.nextafter(nodes, math.inf)[:-1],
        np.nextafter(nodes, -math.inf)[1:], [0.0, -0.0, 1.0],
        np.random.default_rng(degree).uniform(0.0, 1.0, 5000)])
    want = _frozen_lagrange_rows(t, degree)
    assert _same_bits(_lagrange_rows(t, degree), want)
    for work in (None, np.full((degree + 3, t.size + 5), np.nan)):
        for out in (np.full((degree + 1, t.size), np.nan),
                    np.full((t.size, degree + 1), np.nan).T):
            assert _lagrange_rows(t, degree, out=out, work=work) is out
            assert _same_bits(np.ascontiguousarray(out), want)


def test_locate_steps_with_a_scratch_allocate_no_block():
    # A 2^15-pair block located in a _Scratch allocates no block-sized
    # array: at peak under 2^17 bytes, numpy's cast buffers of 8192
    # elements for the bool steps (one float block is 2^18 bytes).  Each
    # step making a new array, the same block peaked at 1.58 MB.
    import tracemalloc

    mesh = make_mesh((0.0, 1.0), n=20000)
    ys = np.random.default_rng(0).uniform(0.0, 1.0, 1 << 15)
    work = discretize._Scratch(ys.size)
    q, out = np.empty(ys.size), np.empty(ys.size)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        r, y, h = discretize._find_cells(mesh, ys, work)
        discretize._hat(mesh, r, y, h, q, out=out, work=work)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 1 << 17


def test_plan_levels_build_every_matrix_in_one_buffer():
    # A bracket's fine level (solver._enclosures) and a degree-d level
    # (higher_order._log_magnitude) allocate one entry-sized array, when
    # they start: no matrix after that allocates as much as one more at
    # its peak, build and power solve included.
    import tracemalloc

    from hausdim import higher_order, solver

    fam = make_mobius_family(range(1, 35))
    mesh = make_mesh(fam.domain, h=2e-4)
    plan = closed_plan(fam, mesh)
    models = {s: error_model(fam, s, mesh.h) for s in (0.6, 0.7, 0.8)}
    plan6 = closed_plan(fam, make_mesh(fam.domain, h=0.01), 6)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        enclose, _ = solver._enclosures(
            plan, lambda s, which: None if which == "M"
            else solver._coef(models[s], which), RADIUS_TOL)
        log_mag = higher_order._log_magnitude(
            plan6, RADIUS_TOL, higher_order._start_vector(plan6.dim))
        held = plan.weight.nbytes + plan6.weight.nbytes
        assert tracemalloc.get_traced_memory()[0] - base >= held
        for level, nbytes, calls in (
                (enclose, plan.weight.nbytes,
                 [(0.6, "B"), (0.7, "B"), (0.7, "A"), (0.8, "M")]),
                (log_mag, plan6.weight.nbytes, [(0.6,), (0.7,), (0.8,)])):
            for args in calls:
                now = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                level(*args)
                assert tracemalloc.get_traced_memory()[1] - now < nbytes
    finally:
        tracemalloc.stop()


def test_data_into_out_is_bit_identical_and_checked():
    fam = make_mobius_family([1, 2, 3])
    mesh = make_mesh(fam.domain, h=1e-3)
    for plan in (collocation_plan(fam, mesh), closed_plan(fam, mesh, 3)):
        coefs = [None] if plan.q is None else [None, 0.5 / plan.q_max, -3.0]
        out = np.full(plan.weight.size, np.nan)
        for coef in coefs:
            want = plan.data(0.7, coef)
            assert plan.data(0.7, coef, out=out) is out
            assert _same_bits(out, want)
        size = plan.weight.size
        for bad in (np.empty(size - 1), np.empty(size, dtype=np.float32),
                    np.empty(2 * size)[::2], np.empty((size, 1)),
                    np.frombuffer(bytes(8 * size)), list(range(size)),
                    plan.weight, plan.log_weight.repeat(plan.degree + 1)[:0],
                    plan.weight[::-1]):
            with pytest.raises(BadParams):
                plan.data(0.7, out=bad)
            with pytest.raises(BadParams):
                plan.matrix(0.7, out=bad)


def test_plan_matrix_checks_entries_where_they_are_written(monkeypatch):
    # No rescan: each block's entries are checked on the thread that
    # wrote them, and NegativeEntry still fires for a NaN entry, a
    # negative one and a degree > 1 plan's signed weights, in the first
    # block or the last, on one CPU or two.  data gives the entries
    # without a check, as the degree-d matrices need.
    fam = make_mobius_family([1, 2])
    mesh = make_mesh(fam.domain, h=1e-3)
    for cpus in (1, 2):
        _force_split(monkeypatch, cpus)
        plan = collocation_plan(fam, mesh)
        assert plan.log_weight.size > 2 * discretize._BLOCK
        matrix = plan.matrix(0.7, out=np.empty(plan.weight.size))
        assert isinstance(matrix, SparseNonnegMatrix)
        assert _same_bits(matrix.data, plan.data(0.7))
        with pytest.raises(NegativeEntry):
            plan.matrix(math.nan)
        for entry in (0, plan.weight.size - 1):
            for value in (-1e-300, math.nan):
                weight = plan.weight.copy()
                weight[entry] = value
                bad = dataclasses.replace(plan, weight=weight)
                assert np.isnan(bad.data(0.7)[entry]) == math.isnan(value)
                with pytest.raises(NegativeEntry):
                    bad.matrix(0.7)
                with pytest.raises(NegativeEntry):
                    SparseNonnegMatrix(bad.dim, bad.indptr, bad.indices,
                                       bad.data(0.7))
        signed = collocation_plan(fam, mesh, 2)
        assert (signed.data(0.7) < 0.0).any()
        with pytest.raises(NegativeEntry):
            signed.matrix(0.7)


def test_matvec_refuses_an_out_that_shares_w():
    # Zeroing out before the sum zeroed w too: matvec(w, out=w) gave
    # all zeros where M w has none.
    fam = make_mobius_family([1, 2])
    matrix = collocation_plan(fam, make_mesh(fam.domain, h=0.1)).matrix(1.0)
    w = 1.0 + np.arange(matrix.dim)
    want = matrix.matvec(w)
    assert (want > 0.0).all()
    twice = np.concatenate([w, w])
    for v, out in ((w, w), (w, w[::-1]), (twice[1:matrix.dim + 1],
                                          twice[:matrix.dim])):
        kept = v.copy()
        with pytest.raises(BadParams):
            matrix.matvec(v, out)
        assert _same_bits(v, kept)
    out = np.empty(matrix.dim)
    assert _same_bits(matrix.matvec(w, out), want)


def test_split_power_solves_hold_one_helper_thread(monkeypatch):
    # A split solve starts one thread for all its matvecs, joined before
    # it returns, and its every bit is that of the solve on one CPU.
    fam = make_mobius_family([1, 2])
    mesh = make_mesh(fam.domain, h=1e-3)
    results = {}
    for cpus in (1, 2):
        threads = _force_split(monkeypatch, cpus)
        matrix = collocation_plan(fam, mesh).matrix(0.5)
        signed = _plan_highorder(fam, make_mesh(fam.domain, h=0.01))
        before, threads.started = threading.active_count(), 0
        enc = power_enclosure(matrix, tol=1e-14)
        vec = np.ones(signed.dim)
        lam = dominant_magnitude(signed, vec=vec)
        assert threads.started == (2 if cpus == 2 else 0)
        assert threading.active_count() == before
        assert enc.iterations > 2
        results[cpus] = (enc.r_lo, enc.r_hi, enc.eigvec.tobytes(),
                         enc.iterations, lam, vec.tobytes())
    assert results[1] == results[2]


def _plan_highorder(fam, mesh):
    plan = collocation_plan(fam, mesh, 6)
    return HighOrderMatrix(plan.dim, plan.indptr, plan.indices,
                           plan.data(0.7))


def test_split_power_solve_joins_its_helper_when_it_raises(monkeypatch):
    # Row 1's entry 1e-200 underflows M w there to 0 at the second step,
    # so the solve raises ZeroRowSum partway; its helper is joined.
    from hausdim import ZeroRowSum

    threads = _force_split(monkeypatch, cpus=2)
    matrix = SparseNonnegMatrix(4, _i32(0, 1, 2, 3, 4), _i32(0, 1, 2, 3),
                                np.array([1.0, 1e-200, 1.0, 0.5]))
    steps = []
    matvec = SparseNonnegMatrix.matvec

    def counting(self, w, out=None):
        steps.append(self._helper)
        return matvec(self, w, out)

    monkeypatch.setattr(SparseNonnegMatrix, "matvec", counting)
    before = threading.active_count()
    with pytest.raises(ZeroRowSum):
        power_enclosure(matrix)
    assert len(steps) == 2 and steps[0] is steps[1] is not None
    assert steps[0]._thread.ident is not None
    assert not steps[0]._thread.is_alive()
    assert threads.started == 1
    assert threading.active_count() == before


def test_helpers_under_many_solves_and_fast_switching(monkeypatch):
    # Four threads, more than the CPUs, each run split solves with a
    # helper of their own while the interpreter switches threads every
    # microsecond: a lost handoff would change a bit or hang.
    fam = make_mobius_family([1, 2, 3])
    mesh = make_mesh(fam.domain, h=2e-3)
    _force_split(monkeypatch, cpus=1)
    matrices = [collocation_plan(fam, mesh).matrix(s) for s in (0.4, 0.6)]
    want = [power_enclosure(m, tol=1e-14).eigvec.tobytes() for m in matrices]
    _force_split(monkeypatch, cpus=2)
    got, errors = [], []

    def solve():
        try:
            for _ in range(5):
                got.append([power_enclosure(m, tol=1e-14).eigvec.tobytes()
                            for m in matrices])
        except BaseException as exc:
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=solve) for _ in range(4)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert not errors
    assert got == [want] * 20
