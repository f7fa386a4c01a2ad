import itertools
import math

import numpy as np
import pytest
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
    reduce_domain,
)
from hausdim import discretize
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
    try:
        want = _reference_locate(mesh, ys)
    except OutOfDomain as exc:
        with pytest.raises(OutOfDomain, match=str(exc)):
            _locate(mesh, ys)
        return
    got = _locate(mesh, ys)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)
    c0, wr, _ = want
    for y, c, r in zip(ys, c0, wr):
        assert interp_weights(mesh, y) == (int(c), float(1.0 - r), float(r))


def _reference_lagrange_rows(t, degree):
    u = degree * t
    out = np.ones((degree + 1, t.size))
    for q in range(degree + 1):
        for p in range(degree + 1):
            if p != q:
                out[q] *= (u - p) / (q - p)
    return out


def _reference_plan(fam, mesh, degree):
    # The per-map plan builder as it was before the block fill: map by
    # map, strided writes into (dim, n_maps, d+1) arrays.
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
        weight[:, j] = _reference_lagrange_rows(wr, degree).T
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
    fam = make_custom_family([affine(0, 1.0 / 3.0, 0.0, nan_near_end),
                              affine(1, 1.0 / 3.0, 2.0 / 3.0, const(0.0))],
                             (0.0, 1.0))
    with pytest.raises(ParamOutOfRange, match="'affine-0' is not positive"):
        collocation_plan(fam, mesh)
    # Map 0 leaves the mesh only near its right end.
    fam = make_custom_family([affine(0, 0.5, 0.31, const(0.0)),
                              affine(1, 1.0 / 3.0, 2.0 / 3.0, const(0.0))],
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
