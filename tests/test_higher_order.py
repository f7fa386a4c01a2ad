import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hausdim import (
    BadParams,
    ParamOutOfRange,
    PowerDivergence,
    closed_plan,
    collocation_plan,
    dominant_magnitude,
    highorder_dimension,
    make_cantor_family,
    make_mesh,
    make_mobius_family,
    reduce_domain,
)
from hausdim import discretize, higher_order
from hausdim.discretize import (
    CollocationPlan,
    _interpolate_nodal,
    _lagrange_rows,
)
from hausdim.higher_order import (
    _COARSE_MIN_ENTRIES,
    _SETTLE_RUNS,
    HighOrderMatrix,
    _plan_matrix,
)
from hausdim.reference_data import DIM_12_BEST, TABLE2, TABLE2B
from hausdim.solver import INITIAL_BRACKET, _coarse_mesh, solve_root


class Dense:
    """A dense matrix with the matvec/toarray interface of the CSR types."""

    def __init__(self, arr):
        self.arr = np.asarray(arr, dtype=float)
        self.dim = self.arr.shape[0]

    def matvec(self, w):
        return self.arr @ w

    def toarray(self):
        return self.arr


class Counting(Dense):
    """A Dense matrix that counts its matvecs."""

    matvecs = 0

    def matvec(self, w):
        self.matvecs += 1
        return super().matvec(w)


def test_lagrange_rows_cardinal_at_nodes():
    # At the q-th equispaced node the basis is the q-th unit vector.
    # (Rows are basis functions, columns are query points.)
    for degree in (1, 2, 3, 5):
        for q in range(degree + 1):
            t = np.array([q / degree])
            out = _lagrange_rows(t, degree)
            expect = np.zeros(degree + 1)
            expect[q] = 1.0
            assert np.allclose(out[:, 0], expect, atol=1e-13)


def test_lagrange_rows_partition_of_unity():
    rng = np.random.default_rng(9)
    for degree in (1, 2, 3, 4, 5):
        t = rng.uniform(0.0, 1.0, size=64)
        out = _lagrange_rows(t, degree)
        assert np.allclose(out.sum(axis=0), 1.0, atol=1e-12)


def test_lagrange_rows_reproduce_polynomials():
    # Degree-d interpolation is exact on monomials up to degree d.
    degree = 3
    t = np.linspace(0.0, 1.0, 17)
    out = _lagrange_rows(t, degree)
    nodes = np.arange(degree + 1) / degree
    for p in range(degree + 1):
        vals = nodes**p @ out
        assert np.allclose(vals, t**p, atol=1e-12)


def test_degree_one_equals_hat_matrix():
    fam = make_mobius_family([1, 2])
    mesh = make_mesh(fam.domain, n=100)
    s = 0.531
    hi = _plan_matrix(collocation_plan(fam, mesh, 1), s)
    m = collocation_plan(fam, mesh).matrix(s)
    assert hi.dim == m.dim
    assert np.array_equal(hi.indptr, m.indptr)
    assert np.array_equal(hi.indices, m.indices)
    assert np.array_equal(hi.data, m.data)


def test_highorder_matrix_dimensions():
    fam = make_mobius_family([1, 2])
    mesh = make_mesh(fam.domain, n=50)
    for degree in (1, 2, 3, 4):
        mat = _plan_matrix(collocation_plan(fam, mesh, degree), 0.5)
        assert mat.dim == degree * 50 + 1
        assert mat.nnz > 0


def test_highorder_row_sums_partition():
    # Row sums equal sum_j g_j(x_k)^s since each basis row sums to one.
    fam = make_mobius_family([1, 2])
    mesh = make_mesh(fam.domain, n=40)
    s = 0.5
    arr = _plan_matrix(collocation_plan(fam, mesh, 3), s).toarray()
    # The degree-3 nodes are those of the mesh with three times the cells.
    xs = make_mesh(fam.domain, n=3 * 40).nodes
    expect = sum(np.abs(-1.0 / (xs + b) ** 2) ** s for b in (1.0, 2.0))
    assert np.allclose(arr.sum(axis=1), expect, rtol=1e-12)


def test_degree_validation():
    fam = make_mobius_family([1, 2])
    mesh = make_mesh(fam.domain, n=10)
    for bad in (0, 9, -1, 2.5, True):
        with pytest.raises(ParamOutOfRange):
            collocation_plan(fam, mesh, bad)


def test_dominant_magnitude_known_matrices():
    assert dominant_magnitude(Dense([[2.0, -0.5], [0.0, -1.0]])) \
        == pytest.approx(2.0, rel=1e-10)
    # Negative dominant eigenvalue: magnitude still recovered.
    assert dominant_magnitude(Dense([[-3.0, 0.0], [0.0, 1.0]])) \
        == pytest.approx(3.0, rel=1e-10)
    # Complex pair +-i sqrt(2) settles through the dense fallback.
    assert dominant_magnitude(Dense([[0.0, -2.0], [1.0, 0.0]])) \
        == pytest.approx(math.sqrt(2.0), rel=1e-8)


def test_dominant_magnitude_warm_start_and_sign_stop():
    # log|lambda| is pinned to sign_rel = 1% relative accuracy, and vec
    # ends as the last normalized iterate, near the dominant eigenvector.
    for arr, lam in (([[2.0, -0.5], [0.0, -1.0]], 2.0),
                     ([[-3.0, 0.0], [0.0, 1.0]], 3.0)):
        vec = np.array([1.0, 1.0])
        got = dominant_magnitude(Dense(arr), vec=vec, sign_rel=0.01)
        assert math.log(got) == pytest.approx(math.log(lam), rel=0.01)
        assert np.max(np.abs(vec)) == 1.0
        assert abs(vec[0]) == 1.0 and abs(vec[1]) < 0.05
        # Restarted from its own iterate, the full-precision solve agrees.
        assert dominant_magnitude(Dense(arr), vec=vec) \
            == pytest.approx(lam, rel=1e-10)
    # At |lambda| = 1 the sign stop cannot fire: full precision.
    assert dominant_magnitude(Dense([[1.0, 0.2], [0.0, 0.5]]),
                              vec=np.array([1.0, 1.0]), sign_rel=0.01) \
        == pytest.approx(1.0, rel=1e-12)
    # Complex pair +-i sqrt(2): the estimate alternates 2, 1, so neither
    # stop fires and the dense fallback still answers.  The iterates cycle
    # with period 4 through (1, 1), (-1, 0.5), (-1, -1), (1, -0.5); the
    # fallback comes after 66 steps, and that iterate overwrites vec.
    vec = np.array([2.0, 2.0])
    got = dominant_magnitude(Dense([[0.0, -2.0], [1.0, 0.0]]), vec=vec,
                             sign_rel=0.01)
    assert got == pytest.approx(math.sqrt(2.0), rel=1e-8)
    assert np.array_equal(vec, [-1.0, -1.0])


def test_dominant_magnitude_complex_pair_falls_back_early():
    # The estimate changes of a complex dominant pair do not shrink, so
    # the dense fallback answers once 64 steps have shown that, not
    # after all 10*dim + 2000 steps (2020 matvecs here before).
    mat = Counting([[0.0, -2.0], [1.0, 0.0]])
    assert dominant_magnitude(mat) == pytest.approx(math.sqrt(2.0), rel=1e-12)
    assert mat.matvecs <= 100


def test_dominant_magnitude_complex_pair_on_csr():
    # A CSR matrix reaches the same dense fallback through its toarray;
    # here the -2 is stored as two -1 entries, as where two maps share
    # a cell.
    arr = [[0.0, -2.0], [1.0, 0.0]]
    mat = HighOrderMatrix(2, np.array([0, 2, 3]), np.array([1, 1, 0]),
                          np.array([-1.0, -1.0, 1.0]))
    assert np.array_equal(mat.toarray(), arr)
    assert dominant_magnitude(mat) == dominant_magnitude(Dense(arr))
    vec, dense_vec = np.array([2.0, 2.0]), np.array([2.0, 2.0])
    assert dominant_magnitude(mat, vec=vec, sign_rel=0.01) \
        == dominant_magnitude(Dense(arr), vec=dense_vec, sign_rel=0.01)
    assert np.array_equal(vec, dense_vec)


def test_dominant_magnitude_complex_pair_beyond_dense_size():
    # Past dim 2000 there is no dense fallback: the oscillation is
    # reported as PowerDivergence after a few dozen steps.
    class Rotation:
        dim = 2002
        matvecs = 0

        def matvec(self, w):
            self.matvecs += 1
            out = np.empty_like(w)
            out[0::2] = -2.0 * w[1::2]
            out[1::2] = w[0::2]
            return out

    mat = Rotation()
    with pytest.raises(PowerDivergence):
        dominant_magnitude(mat)
    assert mat.matvecs <= 100


@pytest.mark.parametrize("vec", [
    np.ones(3), np.zeros(2), np.array([1.0, math.nan]),
    np.array([1.0, math.inf]), np.array([1, 1]), [1.0, 1.0]],
    ids=["shape", "zero", "nan", "inf", "int", "list"])
def test_dominant_magnitude_rejects_bad_start_vector(vec):
    before = np.array(vec, copy=True)
    with pytest.raises(BadParams, match="start vector"):
        dominant_magnitude(Dense([[2.0, 0.0], [0.0, 1.0]]), vec=vec)
    assert np.array_equal(np.asarray(vec), before, equal_nan=True)


def test_dominant_magnitude_exact_repeat_only_settles():
    # From vec the estimates read 0.5, 1, 1: the third step repeats the
    # second exactly (d = 0), at the root, where |log est| = 0.  Such a
    # repeat counts toward the ten settle runs and never fires the sign
    # stop, which returned after 3 matvecs before.
    mat = Counting([[1.0, 0.0], [0.0, 0.5]])
    vec = np.array([0.5, 1.0])
    assert dominant_magnitude(mat, vec=vec, sign_rel=0.01) == 1.0
    assert mat.matvecs == 2 + _SETTLE_RUNS


@pytest.mark.parametrize("rho,matvecs,settle_only", [
    (0.5, 44, 52), (0.8, 128, 130)])
def test_dominant_magnitude_tail_stop(rho, matvecs, settle_only):
    # The estimate changes d shrink by rho each step, so the solve stops
    # once two successive changes are <= tol * est and the tail
    # d/(1 - rho) is too: within 2 tol of |lambda| = 1, and before the
    # settle rule alone would (settle_only matvecs).  At rho = 0.8 the
    # tail, 5d, is what holds the stop back.
    mat = Counting([[1.0, 0.5], [0.0, rho]])
    assert abs(dominant_magnitude(mat) - 1.0) <= 2e-13
    assert mat.matvecs == matvecs < settle_only


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(st.integers(2, 6).flatmap(lambda n: st.tuples(
    st.floats(0.2, 5.0), st.booleans(),
    st.lists(st.floats(-0.6, 0.6), min_size=n - 1, max_size=n - 1),
    st.integers(0, 2**32 - 1))))
# Two cases where one tail <= tol * est alone stopped too early: the
# step ratios alternate about 0.05 and 5 (two subdominant eigenvalues
# of opposite sign), and a change of 3e-14 between two estimates both
# 7.7e-13 high (the sup norm moving to another entry).
@example(case=(1.0, False, [0.515625, -0.484375], 0))
@example(case=(1.0, False, [0.0, 0.2, 0.0, 0.17948800482423444, 0.0], 6))
def test_dominant_magnitude_within_tol_of_eigvals(case):
    # A signed matrix V diag(lambda) V^-1 whose dominant eigenvalue is
    # real and simple, with |lambda_2| <= 0.6 |lambda_1|: the estimate
    # changes shrink geometrically, so the tail stop (a tail <= tol * est
    # after two successive changes <= tol * est) and the settle rule both
    # leave it within 2 tol of |lambda_1|, started cold and from a random
    # vector alike.
    mag, negative, ratios, seed = case
    lam1 = -mag if negative else mag
    rng = np.random.default_rng(seed)
    n = len(ratios) + 1
    vecs = rng.uniform(-1.0, 1.0, (n, n)) + n * np.eye(n)
    arr = vecs @ np.diag([lam1] + [r * lam1 for r in ratios]) \
        @ np.linalg.inv(vecs)
    want = float(np.max(np.abs(np.linalg.eigvals(arr))))
    tol = 1e-13
    for vec in (None, rng.uniform(-1.0, 1.0, n)):
        got = dominant_magnitude(Dense(arr), tol, vec=vec)
        assert abs(got - want) <= 2.0 * tol * want


@pytest.mark.parametrize("sign_rel", [0.0, -0.01, math.nan])
def test_dominant_magnitude_rejects_bad_sign_rel(sign_rel):
    with pytest.raises(BadParams, match="sign_rel"):
        dominant_magnitude(Dense([[2.0, 0.0], [0.0, 1.0]]), sign_rel=sign_rel)


def test_highorder_dimension_matvec_budget():
    # One start vector carried across the root solve's evaluations,
    # sign-sufficient stops away from the root and tail stops at it, and
    # a root solve that starts at the plan's predicted root: 50 matvecs
    # over 5 matrices here, where a start from (0.01, 1.5) takes 66 over
    # 8 and cold full-precision solves take 201 (257 without the tail
    # stop).  Below 16384 entries (300 on the closed plan's 30 of 101
    # nodes here) the coarse start costs more than it saves, so every
    # matrix is built on the fine closed plan.
    fam = make_mobius_family([1, 2])
    mesh = make_mesh(fam.domain, h=0.04)
    closed = closed_plan(fam, mesh, 4)
    with mock.patch.object(CollocationPlan, "data", autospec=True,
                           side_effect=CollocationPlan.data) as data, \
            mock.patch.object(HighOrderMatrix, "matvec", autospec=True,
                              side_effect=HighOrderMatrix.matvec) as matvec:
        res = highorder_dimension(fam, mesh, 4)
    assert matvec.call_count <= 54
    assert {call.args[0].dim for call in data.call_args_list} == \
        {closed.dim}
    assert res.dim == 101
    assert res.evals == data.call_count == 5
    # The same root from cold, full-precision solves at every s.
    assert abs(res.s - _cold_root(collocation_plan(fam, mesh, 4))) <= 1e-12


def _cold_root(plan):
    """The estimate from cold, full-precision solves at every s."""
    return solve_root(
        lambda s: math.log(dominant_magnitude(_plan_matrix(plan, s),
                                              sign_rel=None)),
        INITIAL_BRACKET)[0]


@pytest.mark.parametrize("intervals,h", [("full", 0.001), ("reduced:2", 0.0006)])
def test_highorder_dimension_fine_matrix_budget(intervals, h):
    # A closed plan of 16384 entries or more (21945 and 32067 here, on
    # 1045 of 6001 and 1527 of 4687 nodes) starts on the mesh 16 times
    # coarser, one or two pieces alike: the coarse root leaves the fine
    # mesh one matrix, where a start from (0.01, 1.5) builds 8, and from
    # the interpolated coarse iterate its solve stops on the tail after
    # 5 and 3 matvecs, where a cold start takes 27.
    # cf{1,2} at h = 0.002 and on reduce_domain(., 2) at 0.0008 met the
    # cut-off on the whole mesh; their closed plans (3598 and 5320
    # entries) are below it.
    fam = make_mobius_family([1, 2, 3])
    domain = [fam.domain] if intervals == "full" else reduce_domain(fam, 2)
    mesh = make_mesh(domain, h=h)
    plan = closed_plan(fam, mesh, 6)
    assert plan.indices.size >= _COARSE_MIN_ENTRIES
    with mock.patch.object(CollocationPlan, "data", autospec=True,
                           side_effect=CollocationPlan.data) as data, \
            mock.patch.object(HighOrderMatrix, "matvec", autospec=True,
                              side_effect=HighOrderMatrix.matvec) as matvec:
        res = highorder_dimension(fam, mesh, 6)
    dims = [call.args[0].dim for call in data.call_args_list]
    assert 1 <= dims.count(plan.dim) <= 2
    assert res.evals == len(dims)
    fine = [call for call in matvec.call_args_list
            if call.args[0].dim == plan.dim]
    assert len(fine) <= 10
    assert abs(res.s - _cold_root(plan)) <= 1e-12


def test_highorder_dimension_starts_cold_where_the_coarse_iterate_misses():
    # The coarse iterate lives on the coarse closed set only; a fine row
    # whose coarse cell reads a node outside it interpolates to NaN, and
    # then the fine solve starts from the cold start vector instead.
    fam = make_mobius_family([1, 2, 3])
    mesh = make_mesh(fam.domain, h=0.001)
    plan = closed_plan(fam, mesh, 6)
    seeded = []

    def missing_one(values, *args):
        out = _interpolate_nodal(values, *args)  # read at plan.rows only
        seeded.append(np.isfinite(out).all())
        out[len(out) // 2] = math.nan
        return out

    starts = []  # (dim, start vector) of each solve, as it was passed

    def solve(mat, *args, vec, **kwargs):
        starts.append((mat.dim, vec.copy()))
        return dominant_magnitude(mat, *args, vec=vec, **kwargs)

    with mock.patch.object(discretize, "_interpolate_nodal",
                           side_effect=missing_one), \
            mock.patch.object(higher_order, "dominant_magnitude",
                              side_effect=solve):
        res = highorder_dimension(fam, mesh, 6)
    assert seeded == [True]
    first_fine = next(vec for dim, vec in starts if dim == plan.dim)
    assert np.array_equal(first_fine, higher_order._start_vector(plan.dim))
    assert abs(res.s - _cold_root(plan)) <= 1e-12


def test_highorder_dimension_skips_a_coarse_level_barely_coarser():
    # reduce_domain(cf{1,2}, 6) has 32 pieces and make_mesh keeps two
    # cells on each, so at h = 1e-4 the mesh 16 times coarser keeps 97
    # of the 380 nodes; with the coarse level the estimate built 8
    # coarse matrices and 1 fine one in 13.9 ms, without it 8 fine ones
    # in 8.3 ms.  There the closed plan (15834 entries) is below the
    # cut-off, so this takes h = 8e-5: 468 nodes, the closed plan keeps
    # 1337 of the 2648 degree-6 nodes (18718 entries) and is above the
    # cut-off, yet the estimate goes straight to solve_root on it.
    fam = make_mobius_family([1, 2])
    mesh = make_mesh(reduce_domain(fam, 6), h=8e-5)
    plan = closed_plan(fam, mesh, 6)
    assert plan.indices.size >= _COARSE_MIN_ENTRIES
    assert _coarse_mesh(mesh) is None
    with mock.patch.object(CollocationPlan, "data", autospec=True,
                           side_effect=CollocationPlan.data) as data:
        res = highorder_dimension(fam, mesh, 6)
    assert {call.args[0].dim for call in data.call_args_list} == {plan.dim}
    assert res.evals == data.call_count <= 8
    assert abs(res.s - _cold_root(plan)) <= 1e-12


def test_highorder_dimension_falls_back_to_the_fine_mesh_on_a_coarse_stall(
        monkeypatch):
    # A coarse power solve that stalls (PowerDivergence) leaves the fine
    # mesh to solve from INITIAL_BRACKET, as a bracket's does: the
    # estimate is the one found with no coarse level, and evals still
    # counts the coarse matrix built.
    from hausdim import solver

    fam = make_mobius_family([1, 2, 3])
    mesh = make_mesh(fam.domain, h=0.001)
    coarse_dim = closed_plan(fam, _coarse_mesh(mesh), 6).dim
    solve = higher_order.dominant_magnitude

    def stalling(mat, *args, **kwargs):
        if mat.dim == coarse_dim:
            raise PowerDivergence("coarse solve stalled")
        return solve(mat, *args, **kwargs)

    with mock.patch.object(higher_order, "dominant_magnitude", stalling):
        res = highorder_dimension(fam, mesh, 6)
    monkeypatch.setattr(solver, "_coarse_mesh", lambda mesh: None)
    alone = highorder_dimension(fam, mesh, 6)
    assert res.s == alone.s
    assert res.evals == alone.evals + 1  # the stalled coarse matrix


def test_highorder_dimension_drops_coarse_plan_before_fine_level(monkeypatch):
    # The coarse plan is released before the fine level makes its entry
    # buffer (_SignedLevel makes one entry-sized array when it
    # starts), as a bracket's is, so peak memory holds the fine plan and
    # at most one of the two.
    import weakref

    from hausdim import solver

    made, alive = [], []  # (dim, ref) of each plan; which live per level
    real_plan, real_level = closed_plan, higher_order._SignedLevel

    def tracking(*args, **kwargs):
        plan = real_plan(*args, **kwargs)
        made.append((plan.dim, weakref.ref(plan)))
        return plan

    def level(plan, *args, **kwargs):
        alive.append([ref() is not None for _, ref in made])
        return real_level(plan, *args, **kwargs)

    monkeypatch.setattr(solver, "closed_plan", tracking)
    monkeypatch.setattr(higher_order, "closed_plan", tracking)
    monkeypatch.setattr(higher_order, "_SignedLevel", level)
    fam = make_mobius_family([1, 2, 3])
    mesh = make_mesh(fam.domain, h=0.001)
    highorder_dimension(fam, mesh, 6)
    assert [dim for dim, _ in made] == [
        real_plan(fam, mesh, 6).dim, real_plan(fam, _coarse_mesh(mesh), 6).dim]
    assert alive == [[True, True], [True, False]]


def test_highorder_coarse_root_stops_at_the_radius_tolerance():
    # The coarse root is sought to max(root_tol, 4 radius_tol), as a
    # bracket's is: log |lambda| is known to about radius_tol.  At
    # radius_tol = 1e-8 cf{1..5} at h = 0.002 builds 15 matrices, where
    # a coarse root sought to root_tol built 26.  At the default
    # tolerances both rules give 1e-12.
    fam = make_mobius_family([1, 2, 3, 4, 5])
    mesh = make_mesh(fam.domain, h=0.002)
    loose = highorder_dimension(fam, mesh, 6, radius_tol=1e-8)
    assert loose.evals <= 16
    assert abs(loose.s - highorder_dimension(fam, mesh, 6).s) <= 1e-10


@pytest.mark.parametrize("tol", [0.0, -1e-13, math.nan])
def test_dominant_magnitude_rejects_bad_tolerance(tol):
    fam = make_mobius_family([1, 2])
    mat = _plan_matrix(
        collocation_plan(fam, make_mesh(fam.domain, n=10), 2), 0.5)
    with pytest.raises(BadParams):
        dominant_magnitude(mat, tol=tol)


def test_highorder_dimension_matches_reference_rows():
    fam = make_mobius_family([1, 2])
    # Degree 2 at h = 0.02 reproduces the published estimate.
    row = next(r for r in TABLE2 if r["degree"] == 2)
    mesh = make_mesh(fam.domain, h=row["h"])
    res = highorder_dimension(fam, mesh, 2)
    assert abs(res.s - row["value"]) <= row["tol"]
    assert res.dim == 2 * mesh.n + 1
    assert res.degree == 2


def test_highorder_error_decreases_with_degree():
    # Matched unknown count: n = 100/degree cells, dim 101 each time.
    fam = make_mobius_family([1, 2])
    errors = []
    for degree in (1, 2, 4, 5):
        mesh = make_mesh(fam.domain, n=100 // degree)
        res = highorder_dimension(fam, mesh, degree)
        errors.append(abs(res.s - DIM_12_BEST))
    assert errors[0] > errors[1] > errors[2]
    assert errors[3] <= errors[2] * 10  # degree 5 is at rounding level
    assert errors[1] < 1e-7
    assert errors[2] < 1e-10


def test_highorder_degree3_even_digit_family():
    fam = make_mobius_family([2, 4, 6, 8, 10])
    row = next(r for r in TABLE2B if r["h"] == 0.01)
    mesh = make_mesh(fam.domain, h=row["h"])
    res = highorder_dimension(fam, mesh, 3)
    assert abs(res.s - row["value"]) <= row["tol"]


def test_highorder_on_cantor_family():
    # Degree 2 on the affine pair still nails log 2 / log 3.
    fam = make_cantor_family(0.0)
    mesh = make_mesh(fam.domain, n=40)
    res = highorder_dimension(fam, mesh, 2)
    assert res.s == pytest.approx(math.log(2.0) / math.log(3.0), abs=1e-11)
