import math

import numpy as np
import pytest

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
    assemble,
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
    row_sums,
)


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
    for n in (2.5, 4.0, "4", 3 + 0j):
        with pytest.raises(BadParams, match="integer"):
            make_mesh((0.0, 1.0), n=n)
    assert make_mesh((0.0, 1.0), n=np.int64(4)).n == 4
    with pytest.raises(BadParams):
        make_mesh([(0.0, 0.4), (0.6, 1.0)], n=1)
    with pytest.raises(BadParams):
        make_mesh((1.0, 0.0), n=4)
    # Intervals must be present, increasing and disjoint.
    for intervals in ([], (), [(0.5, 1.0), (0.0, 0.4)],
                      [(0.0, 0.6), (0.4, 1.0)], [(0.0, 0.5), (0.5, 1.0)]):
        with pytest.raises(BadParams):
            make_mesh(intervals, h=0.1)
    # h must be finite: round() fails on NaN, and inf would give 2 cells.
    for h in (math.nan, math.inf):
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
    triple = assemble(fam, mesh, 0.5)
    for mat in (triple.A, triple.M, triple.B):
        assert set(mat.indices.tolist()) <= {0, 1, 2}
        assert mat.dim == 5


def test_assemble_single_map_row_structure():
    fam = make_mobius_family([3])
    mesh = make_mesh(fam.domain, n=4)
    triple = assemble(fam, mesh, 0.5)
    counts = np.diff(triple.M.indptr)
    assert np.all(counts >= 1)
    assert np.all(counts <= 2)


def test_assemble_affine_cantor_row_sums():
    fam = make_cantor_family(0.0)
    mesh = make_mesh(fam.domain, n=50)
    s = math.log(2.0) / math.log(3.0)
    triple = assemble(fam, mesh, s)
    sums = row_sums(triple.M)
    # Constant weight (1/3)^s per map, hat weights sum to one.
    assert np.allclose(sums, 2.0 * 3.0**-s, rtol=1e-14, atol=0)
    assert np.allclose(sums, 1.0, rtol=1e-14, atol=0)
    # Zero error model: all three matrices identical.
    assert np.array_equal(triple.A.data, triple.M.data)
    assert np.array_equal(triple.B.data, triple.M.data)
    assert np.array_equal(triple.A.indices, triple.M.indices)


def test_assemble_matches_direct_interpolation():
    # Rebuild (M w)_k and (B w)_k by a direct per-node loop.
    fam = make_mobius_family([1, 2])
    mesh = make_mesh(fam.domain, n=23)
    s = 0.61
    triple = assemble(fam, mesh, s)
    model = triple.model
    rng = np.random.default_rng(8)
    w = rng.uniform(0.5, 2.0, size=mesh.dim)
    got_m = triple.M.matvec(w)
    got_a = triple.A.matvec(w)
    got_b = triple.B.matvec(w)
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
        t = assemble(fam, mesh, s)
        A, M, B = t.A.toarray(), t.M.toarray(), t.B.toarray()
        assert np.all(A <= M + 1e-15)
        assert np.all(A <= B + 1e-15)
        if t.model.coef_lo >= 0.0:
            assert np.all(B <= M + 1e-15)
        else:
            assert np.all(B >= M - 1e-15)
        if t.model.coef_hi > 0.0:
            assert np.any(A < M)


def test_assemble_certified_cantor_collapses_b():
    # Sign-certified Cantor: R_lo = 0, so B equals M exactly.
    fam = make_cantor_family(0.5)
    mesh = make_mesh(fam.domain, n=40)
    t = assemble(fam, mesh, 0.8)
    assert t.model.coef_lo == 0.0
    assert np.array_equal(t.B.data, t.M.data)
    assert np.any(t.A.data < t.M.data)


def test_assemble_map_escapes_mesh():
    fam = make_mobius_family([1, 2])
    mesh = make_mesh((0.0, 0.2), n=10)
    with pytest.raises((MapEscapesDomain, OutOfDomain)):
        assemble(fam, mesh, 0.5)


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
    triple = assemble(fam, mesh, 0.53)
    assert triple.M.dim == mesh.dim
    # Matrix action keeps positive vectors positive (no zero rows).
    out = triple.M.matvec(np.ones(mesh.dim))
    assert np.all(out > 0.0)


def test_assemble_deterministic():
    fam = make_mobius_family([1, 2])
    mesh = make_mesh(fam.domain, n=30)
    t1 = assemble(fam, mesh, 0.5)
    t2 = assemble(fam, mesh, 0.5)
    assert np.array_equal(t1.M.data, t2.M.data)
    assert np.array_equal(t1.A.data, t2.A.data)
    assert np.array_equal(t1.M.indices, t2.M.indices)
    assert np.array_equal(t1.M.indptr, t2.M.indptr)


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
        per_row = (degree + 1) * len(fam.maps)
        assert np.array_equal(plan.indptr,
                              np.arange(0, per_row * plan.dim + 1, per_row))
        cols = plan.indices.reshape(plan.dim, per_row)
        assert np.all(np.diff(cols, axis=1) >= 0)
        assert np.any(np.diff(cols, axis=1) == 0)


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
    assert np.allclose(mat.row_sums(), [2.0, 0.0, 3.0])


def test_dump_matrix_format():
    fam = make_mobius_family([3, 5], domain=(0.0, 1.0))
    mesh = make_mesh((0.0, 1.0), n=4)
    triple = assemble(fam, mesh, 0.5)
    text = dump_matrix(triple.M, mesh.n, 0.5, fam.family_id)
    lines = text.strip().split("\n")
    head = lines[0].split()
    assert int(head[0]) == 5
    assert int(head[1]) == 4
    assert float(head[2]) == 0.5
    assert head[3] == fam.family_id
    assert len(lines) == 1 + triple.M.nnz
    for ln in lines[1:]:
        r, c, v = ln.split()
        assert 0 <= int(r) < 5
        assert 0 <= int(c) < 5
        # node hits store an explicit zero weight
        assert float(v) >= 0.0
    # Full precision round trip.
    vals = sorted(float(ln.split()[2]) for ln in lines[1:])
    assert vals == sorted(triple.M.data.tolist())
