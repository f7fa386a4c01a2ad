import math
from unittest import mock

import numpy as np
import pytest

from hausdim import (
    BadParams,
    ParamOutOfRange,
    PowerDivergence,
    collocation_plan,
    dominant_magnitude,
    highorder_dimension,
    make_cantor_family,
    make_mesh,
    make_mobius_family,
    reduce_domain,
)
from hausdim.discretize import CollocationPlan, _lagrange_rows
from hausdim.higher_order import (
    _COARSE_MIN_ENTRIES,
    _SETTLE_RUNS,
    HighOrderMatrix,
    _plan_matrix,
)
from hausdim.reference_data import DIM_12_BEST, TABLE2, TABLE2B
from hausdim.solver import INITIAL_BRACKET, solve_root


class Dense:
    """A dense matrix with the matvec/toarray interface of the CSR types."""

    def __init__(self, arr):
        self.arr = np.asarray(arr, dtype=float)
        self.dim = self.arr.shape[0]

    def matvec(self, w):
        return self.arr @ w

    def toarray(self):
        return self.arr


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
    class Counting(Dense):
        matvecs = 0

        def matvec(self, w):
            self.matvecs += 1
            return super().matvec(w)

    mat = Counting([[0.0, -2.0], [1.0, 0.0]])
    assert dominant_magnitude(mat) == pytest.approx(math.sqrt(2.0), rel=1e-12)
    assert mat.matvecs <= 100


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
    class Counting(Dense):
        matvecs = 0

        def matvec(self, w):
            self.matvecs += 1
            return super().matvec(w)

    mat = Counting([[1.0, 0.0], [0.0, 0.5]])
    vec = np.array([0.5, 1.0])
    assert dominant_magnitude(mat, vec=vec, sign_rel=0.01) == 1.0
    assert mat.matvecs == 2 + _SETTLE_RUNS


@pytest.mark.parametrize("sign_rel", [0.0, -0.01, math.nan])
def test_dominant_magnitude_rejects_bad_sign_rel(sign_rel):
    with pytest.raises(BadParams, match="sign_rel"):
        dominant_magnitude(Dense([[2.0, 0.0], [0.0, 1.0]]), sign_rel=sign_rel)


def test_highorder_dimension_matvec_budget():
    # One start vector carried across the root solve's evaluations, and
    # sign-sufficient stops away from the root: 82 matvecs here, where
    # cold full-precision solves take 257.  Below 32768 entries (1010
    # here) the coarse start costs about what it saves, so all 8
    # matrices are built on the fine plan.
    fam = make_mobius_family([1, 2])
    mesh = make_mesh(fam.domain, h=0.04)
    with mock.patch.object(CollocationPlan, "data", autospec=True,
                           side_effect=CollocationPlan.data) as data, \
            mock.patch.object(HighOrderMatrix, "matvec", autospec=True,
                              side_effect=HighOrderMatrix.matvec) as matvec:
        res = highorder_dimension(fam, mesh, 4)
    assert matvec.call_count <= 100
    assert {call.args[0].dim for call in data.call_args_list} == {res.dim}
    assert res.evals == data.call_count == 8
    # The same root from cold, full-precision solves at every s.
    assert abs(res.s - _cold_root(collocation_plan(fam, mesh, 4))) <= 1e-12


def _cold_root(plan):
    """The estimate from cold, full-precision solves at every s."""
    return solve_root(
        lambda s: math.log(dominant_magnitude(_plan_matrix(plan, s),
                                              sign_rel=None)),
        INITIAL_BRACKET)[0]


@pytest.mark.parametrize("intervals,h", [("full", 0.002), ("reduced:2", 0.0008)])
def test_highorder_dimension_fine_matrix_budget(intervals, h):
    # A plan of 32768 entries or more (42014 and 36232 here) starts on
    # the mesh 16 times coarser, one or two pieces alike: the coarse root
    # leaves the fine mesh one matrix, where a start from (0.01, 1.5)
    # builds 8, and the interpolated coarse iterate leaves its solve 11
    # matvecs (one step and ten settle runs), where a cold start takes
    # 36 or 37.
    fam = make_mobius_family([1, 2])
    domain = [fam.domain] if intervals == "full" else reduce_domain(fam, 2)
    mesh = make_mesh(domain, h=h)
    plan = collocation_plan(fam, mesh, 6)
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
    assert len(fine) <= 20
    assert abs(res.s - _cold_root(plan)) <= 1e-12


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
