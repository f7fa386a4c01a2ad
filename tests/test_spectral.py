import math
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from hausdim import (
    BadParams,
    ConeParams,
    NegativeEntry,
    NonPositiveVector,
    PowerDivergence,
    ZeroRowSum,
    collocation_plan,
    cone_membership,
    hilbert_metric,
    make_cantor_family,
    make_mesh,
    make_mobius_family,
    power_enclosure,
)
from hausdim import spectral
from hausdim.bounds import ratio_bounds
from hausdim.discretize import CsrMatrix
from hausdim.solver import _log_midpoint
from conftest import hat_matrices, one_step_enclosures


def _squared_radius(mat, steps=60):
    """Machine-accurate spectral radius by normalized repeated squaring.

    Invariant: r(original) = r(current)^(1/2^k) * exp(t) drift bookkeeping,
    tracked via t += log(max row sum)/2^k before each normalization.
    """
    B = np.asarray(mat, dtype=float)
    t = 0.0
    for k in range(1, steps + 1):
        c = float(np.max(B.sum(axis=1)))
        if c == 0.0:
            return 0.0
        t += math.log(c) / 2 ** (k - 1)
        B = (B / c) @ (B / c)
    c = float(np.max(B.sum(axis=1)))
    return math.exp(t + math.log(c) / 2**steps)


def _cw_bounds(matrix, w):
    """min/max of (M w)_k / w_k: one power step from w, stopped by tol = inf."""
    enc = power_enclosure(matrix, tol=math.inf, seed_vec=w)
    return enc.r_lo, enc.r_hi


def test_collatz_wielandt_identity():
    lo, hi = _cw_bounds(np.eye(3), np.ones(3))
    assert lo == 1.0
    assert hi == 1.0


def test_collatz_wielandt_permutation():
    # Swap matrix has radius 1; the constant vector is its eigenvector.
    mat = np.array([[0.0, 1.0], [1.0, 0.0]])
    lo, hi = _cw_bounds(mat, np.ones(2))
    assert (lo, hi) == (1.0, 1.0)
    # A skew vector still brackets r = 1.
    lo, hi = _cw_bounds(mat, np.array([1.0, 3.0]))
    assert lo <= 1.0 <= hi


def test_collatz_wielandt_brackets_radius():
    rng = np.random.default_rng(4)
    for _ in range(40):
        d = int(rng.integers(2, 9))
        mat = rng.uniform(0.0, 1.0, size=(d, d))
        mat[rng.uniform(size=(d, d)) < 0.4] = 0.0
        mat += np.diag(rng.uniform(0.1, 1.0, size=d))
        r = _squared_radius(mat)
        w = rng.uniform(0.2, 2.0, size=d)
        lo, hi = _cw_bounds(mat, w)
        assert lo <= r * (1 + 1e-10)
        assert hi >= r * (1 - 1e-10)


def test_collatz_wielandt_rejects_bad_vector():
    with pytest.raises(NonPositiveVector):
        _cw_bounds(np.eye(2), np.array([1.0, 0.0]))
    with pytest.raises(NonPositiveVector):
        _cw_bounds(np.eye(2), np.array([1.0, -1.0]))


def test_power_enclosure_scalar_and_diagonal():
    enc = power_enclosure(np.array([[0.7]]))
    assert enc.r_lo == pytest.approx(0.7, rel=1e-14)
    assert enc.r_hi == pytest.approx(0.7, rel=1e-14)
    assert enc.converged


def test_power_enclosure_affine_cantor_one_step():
    # Constant row sums: the first iterate already has zero gap.
    fam = make_cantor_family(0.0)
    mesh = make_mesh(fam.domain, n=100)
    s = 0.55
    enc = power_enclosure(collocation_plan(fam, mesh).matrix(s))
    assert enc.converged
    assert enc.iterations == 1
    assert enc.r_lo == pytest.approx(2.0 * 3.0**-s, rel=1e-14)
    assert enc.gap <= 1e-13 * enc.midpoint


def test_power_enclosure_monotone_history():
    fam = make_mobius_family([1, 2])
    mesh = make_mesh(fam.domain, n=100)
    mat = collocation_plan(fam, mesh).matrix(0.5)
    enc = power_enclosure(mat)
    assert enc.converged
    hist = np.asarray(one_step_enclosures(mat, enc.iterations)[0])
    assert hist.shape[1] == 2
    gaps = hist[:, 1] - hist[:, 0]
    assert np.all(gaps >= -1e-15)
    # Enclosure gaps shrink monotonically (small float slack).
    assert np.all(np.diff(gaps) <= 1e-13 * hist[:-1, 1])
    # Every later enclosure sits inside the final tolerance of truth.
    r = _squared_radius(mat.toarray())
    assert hist[-1, 0] <= r * (1 + 1e-10)
    assert hist[-1, 1] >= r * (1 - 1e-10)


def test_power_enclosure_scale_invariance():
    fam = make_mobius_family([1, 2])
    mesh = make_mesh(fam.domain, n=60)
    mat = collocation_plan(fam, mesh).matrix(0.5)
    enc = power_enclosure(mat)
    scaled = power_enclosure(mat.toarray() * 7.5)
    assert scaled.r_lo == pytest.approx(7.5 * enc.r_lo, rel=1e-12)
    assert scaled.r_hi == pytest.approx(7.5 * enc.r_hi, rel=1e-12)


def test_power_enclosure_periodic_matrix_stalls():
    # Period-two action keeps the gap at a fixed positive value; the
    # stall guard must report non-convergence with a still-valid bracket.
    mat = np.array([[0.0, 2.0], [1.0, 0.0]])
    enc = power_enclosure(mat, tol=1e-13)
    assert not enc.converged
    assert enc.r_lo <= math.sqrt(2.0) <= enc.r_hi


def test_power_enclosure_rejects_bad_tolerance():
    # A NaN tolerance never compares true, so the iteration would run
    # until the stall guard gave up.
    for tol in (0.0, -1e-13, math.nan):
        with pytest.raises(BadParams):
            power_enclosure(np.array([[0.7]]), tol=tol)


def test_power_enclosure_zero_row():
    mat = np.array([[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(ZeroRowSum):
        power_enclosure(mat)


def test_power_enclosure_refuses_a_signed_matrix():
    # r = 5, but one step from all-ones gives M w = (1, 1): the ratios
    # closed at r_lo = r_hi = 1 and the solve returned that, converged.
    with pytest.raises(NegativeEntry):
        power_enclosure(np.array([[2.0, -1.0], [-3.0, 4.0]]))


def test_power_enclosure_refuses_a_nan_entry():
    # The bounds went NaN and the solve ran out its stall guard.
    with pytest.raises(NegativeEntry):
        power_enclosure(np.array([[1.0, math.nan], [0.5, 1.0]]))


def test_power_enclosure_names_a_negative_entry():
    # No row is zero, but the iterates tend to the dominant eigenvector,
    # which has a negative entry; that was reported as a zero row.
    with pytest.raises(NegativeEntry):
        power_enclosure(np.array([[2.0, 0.5], [-0.2, 1.0]]))


def test_power_enclosure_checks_csr_matrices_it_did_not_build():
    plan = collocation_plan(make_mobius_family([1, 2]),
                            make_mesh((0.0, 1.0), n=20), degree=2)
    data = plan.data(0.5)
    assert (data < 0.0).any()  # degree-2 Lagrange weights change sign
    with pytest.raises(NegativeEntry):
        power_enclosure(CsrMatrix(plan.dim, plan.indptr, plan.indices, data))
    # Entries past indptr[-1] are not part of the matrix.
    mat = np.array([[0.5, 0.25], [0.25, 0.5]])
    tail = CsrMatrix(2, np.array([0, 2, 4]), np.array([0, 1, 0, 1, 0]),
                     np.array([0.5, 0.25, 0.25, 0.5, -1.0]))
    assert power_enclosure(tail).r_hi == power_enclosure(mat).r_hi == 0.75
    # An object with only matvec is taken on trust.
    trusted = power_enclosure(SimpleNamespace(dim=1, matvec=lambda w: 2.0 * w))
    assert trusted.r_lo == trusted.r_hi == 2.0


def test_power_enclosure_seed_vector():
    fam = make_mobius_family([1, 2])
    mesh = make_mesh(fam.domain, n=50)
    mat = collocation_plan(fam, mesh).matrix(0.5)
    base = power_enclosure(mat)
    seeded = power_enclosure(mat, seed_vec=base.eigvec)
    # Warm start converges at once to the same enclosure.
    assert seeded.iterations <= 2
    assert seeded.midpoint == pytest.approx(base.midpoint, rel=1e-12)
    with pytest.raises(NonPositiveVector):
        power_enclosure(mat, seed_vec=np.zeros(mesh.dim))


def test_power_enclosure_leaves_its_seed_alone():
    # Brackets seed each solve with the eigvec of the one before.
    fam = make_mobius_family([1, 2])
    mat = collocation_plan(fam, make_mesh(fam.domain, n=50)).matrix(0.5)
    seed = power_enclosure(mat, tol=1e-4).eigvec
    kept = seed.copy()
    enc = power_enclosure(mat, seed_vec=seed)
    assert seed.tobytes() == kept.tobytes()
    assert not np.shares_memory(enc.eigvec, seed)


def test_power_enclosure_rejects_bad_sign_rel():
    for sign_rel in (0.0, -0.01, math.nan):
        with pytest.raises(BadParams):
            power_enclosure(np.array([[0.7]]), sign_rel=sign_rel)


_SIGN_REL = 0.01


@st.composite
def _positive_systems(draw):
    """(matrix with radius near `scale`, seed vector or None, sign_rel)."""
    n = draw(st.integers(1, 6))
    mat = draw(hnp.arrays(float, (n, n), elements=st.floats(0.01, 10.0)))
    scale = draw(st.one_of(st.just(1.0), st.floats(0.5, 2.0)))
    mat *= scale / max(abs(np.linalg.eigvals(mat)))
    seed = draw(st.none() | hnp.arrays(float, n, elements=st.floats(0.1, 10.0)))
    sign_rel = draw(st.sampled_from([None, _SIGN_REL]))
    return mat, seed, sign_rel


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(_positive_systems())
def test_power_enclosure_stays_rigorous(system):
    # Every iterate's Collatz-Wielandt ratios enclose the radius, so a
    # solve that stops early, or stalls, still encloses it (up to the
    # ~1e-15 rounding of numpy's eigenvalues and of the ratios).  The
    # sign-sufficient stop fires only once the enclosure excludes 1 and is
    # tight enough, and an unconverged midpoint is refused.
    mat, seed, sign_rel = system
    tol = 1e-13
    enc = power_enclosure(mat, tol=tol, seed_vec=seed, sign_rel=sign_rel)
    radius = max(abs(np.linalg.eigvals(mat)))
    assert enc.r_lo <= radius * (1.0 + 1e-12)
    assert radius <= enc.r_hi * (1.0 + 1e-12)
    if not enc.converged:
        with pytest.raises(PowerDivergence):
            _log_midpoint(enc.r_lo, enc.r_hi, enc.converged, tol)
    elif enc.gap > tol:
        assert sign_rel is not None
        assert enc.r_lo > 1.0 or enc.r_hi < 1.0
        log_lo, log_hi = math.log(enc.r_lo), math.log(enc.r_hi)
        assert math.log(enc.r_hi / enc.r_lo) <= sign_rel * min(
            abs(log_lo), abs(log_hi))


@st.composite
def _slow_systems(draw):
    """(positive matrix with lambda2/lambda1 near 1, seed vector or None).

    Two positive blocks, coupled by a factor of 1e-3 to 1e-2 and with
    radii 3-20% apart, scaled to a radius a little off 1: power
    iteration crawls, so a sign_rel solve runs past its Aitken steps.
    """
    n = draw(st.integers(4, 24))
    mat = draw(hnp.arrays(float, (n, n), elements=st.floats(0.01, 1.0)))
    cut = draw(st.integers(1, n - 1))
    coupling = draw(st.floats(1e-3, 1e-2))
    mat[:cut, cut:] *= coupling
    mat[cut:, :cut] *= coupling
    mat[cut:, cut:] *= draw(st.floats(0.8, 0.97)) * (
        max(abs(np.linalg.eigvals(mat[:cut, :cut])))
        / max(abs(np.linalg.eigvals(mat[cut:, cut:]))))
    target = draw(st.sampled_from([0.97, 0.999, 1.001, 1.03]))
    mat *= target / max(abs(np.linalg.eigvals(mat)))
    seed = draw(st.none()
                | hnp.arrays(float, n, elements=st.floats(0.1, 10.0)))
    return mat, seed


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(_slow_systems())
def test_extrapolated_solves_enclose_the_radius(system):
    # A sign_rel solve may replace an iterate by its Aitken extrapolate,
    # but its bounds come from the true matvec of the positive vector
    # after it, so they still enclose the radius.
    mat, seed = system
    with mock.patch.object(spectral, "_aitken",
                           wraps=spectral._aitken) as aitken:
        enc = power_enclosure(mat, tol=1e-13, seed_vec=seed,
                              sign_rel=_SIGN_REL)
    assert aitken.call_count == (enc.iterations - 1) // spectral._AITKEN
    radius = max(abs(np.linalg.eigvals(mat)))
    assert enc.r_lo <= radius * (1.0 + 1e-12)
    assert radius <= enc.r_hi * (1.0 + 1e-12)
    assert np.all(enc.eigvec > 0.0) and np.all(np.isfinite(enc.eigvec))


@pytest.mark.parametrize("a", [0.5, 1.0])
@pytest.mark.parametrize("s", [0.5, 0.75, 0.9, 1.2])
def test_extrapolated_solves_enclose_cantor_radii(a, s):
    # The plan matrices of the perturbed Cantor maps have a real
    # lambda2/lambda1 of 0.45-0.86, the slow solves the Aitken step is
    # for: it must fire there, take no more steps than the same solve
    # without it, and every enclosure must hold the radius of the
    # dense matrix.
    fam = make_cantor_family(a)
    mat = collocation_plan(fam, make_mesh(fam.domain, h=1e-2)).matrix(s)
    with mock.patch.object(spectral, "_aitken",
                           wraps=spectral._aitken) as aitken:
        enc = power_enclosure(mat, tol=1e-13, sign_rel=_SIGN_REL)
    with mock.patch.object(spectral, "_AITKEN", 10**9):
        slow = power_enclosure(mat, tol=1e-13, sign_rel=_SIGN_REL)
    assert aitken.call_count == (enc.iterations - 1) // spectral._AITKEN > 0
    assert enc.iterations <= slow.iterations
    radius = _squared_radius(mat.toarray())
    for got in (enc, slow):
        assert got.r_lo <= radius * (1.0 + 1e-12)
        assert radius <= got.r_hi * (1.0 + 1e-12)


def test_plain_solves_take_no_aitken_step():
    # Without sign_rel a solve is plain power iteration: one matvec of
    # the last iterate per step, the same float operations as
    # one_step_enclosures.
    fam = make_cantor_family(1.0)
    mat = collocation_plan(fam, make_mesh(fam.domain, h=1e-2)).matrix(0.8)
    with mock.patch.object(spectral, "_aitken",
                           side_effect=AssertionError("Aitken step")):
        enc = power_enclosure(mat, tol=1e-13)
    assert enc.iterations > 2 * spectral._AITKEN
    bounds, w = one_step_enclosures(mat, enc.iterations)
    assert bounds[-1] == (enc.r_lo, enc.r_hi)
    assert w.tobytes() == enc.eigvec.tobytes()


@settings(max_examples=50, derandomize=True, deadline=None, database=None)
@given(st.floats(0.9, 1.1), st.floats(2.0, 10.0))
def test_sign_stop_never_fires_on_an_enclosure_holding_1(c, skew):
    # A period-two matrix of radius c keeps the enclosure [c/u, c*u]
    # (u >= 2) around 1 for ever: the sign-sufficient stop must not
    # fire, the solve stalls unconverged, and its midpoint is refused.
    mat = np.array([[0.0, c], [c, 0.0]])
    enc = power_enclosure(mat, seed_vec=np.array([1.0, skew]),
                          sign_rel=_SIGN_REL)
    assert not enc.converged
    assert enc.r_lo <= 1.0 <= enc.r_hi
    with pytest.raises(PowerDivergence):
        _log_midpoint(enc.r_lo, enc.r_hi, enc.converged, 1e-13)


def test_hilbert_metric_values():
    u = np.array([1.0, 2.0])
    v = np.array([2.0, 1.0])
    assert hilbert_metric(u, v) == pytest.approx(2.0 * math.log(2.0),
                                                 rel=1e-14)
    assert hilbert_metric(u, 3.0 * u) == pytest.approx(0.0, abs=1e-14)
    with pytest.raises(NonPositiveVector):
        hilbert_metric(u, np.array([1.0, 0.0]))
    with pytest.raises(BadParams, match="equal length"):
        hilbert_metric(u, np.array([1.0, 2.0, 3.0]))


def test_hilbert_metric_properties():
    rng = np.random.default_rng(6)
    for _ in range(30):
        u = rng.uniform(0.1, 3.0, size=5)
        v = rng.uniform(0.1, 3.0, size=5)
        w = rng.uniform(0.1, 3.0, size=5)
        duv = hilbert_metric(u, v)
        assert duv >= 0.0
        assert duv == pytest.approx(hilbert_metric(v, u), rel=1e-12)
        # Scale invariance in both arguments.
        assert hilbert_metric(2.5 * u, v) == pytest.approx(duv, rel=1e-12)
        assert hilbert_metric(u, 0.3 * v) == pytest.approx(duv, rel=1e-12)
        # Triangle inequality.
        assert duv <= (hilbert_metric(u, w) + hilbert_metric(w, v)
                       + 1e-12)


def test_cone_membership():
    cone = ConeParams(M=2.0, h=0.05)
    assert cone_membership(np.ones(6), cone)
    assert cone_membership(np.zeros(4), cone)
    assert not cone_membership(np.array([1.0, -0.1, 1.0]), cone)
    # Adjacent ratio e^{2Mh} breaks the e^{Mh} envelope.
    bad = np.array([1.0, math.exp(2.0 * cone.M * cone.h)])
    assert not cone_membership(bad, cone)
    good = np.array([1.0, math.exp(0.5 * cone.M * cone.h)])
    assert cone_membership(good, cone)


def test_eigenvector_in_oscillation_cone():
    # The converged eigenvector respects the certified local variation.
    fam = make_mobius_family([1, 2])
    mesh = make_mesh(fam.domain, n=100)
    s = 0.53
    _, _, B, _ = hat_matrices(fam, mesh, s)
    enc = power_enclosure(B)
    cone = ConeParams(M=ratio_bounds(fam, s)[2] + 1.0, h=mesh.h)
    assert cone_membership(enc.eigvec, cone)


def test_radius_gap_law_quadratic_in_h():
    # (r(B)/r(A) - 1)/h^2 stays near a constant along mesh refinement.
    fam = make_mobius_family([1, 2])
    s = 0.53
    ratios = []
    for n in (200, 400, 800):
        mesh = make_mesh(fam.domain, n=n)
        A, _, B, _ = hat_matrices(fam, mesh, s)
        ra = power_enclosure(A).midpoint
        rb = power_enclosure(B).midpoint
        assert rb >= ra
        ratios.append((rb / ra - 1.0) / mesh.h**2)
    base = ratios[0]
    for e in ratios[1:]:
        assert 0.7 * base <= e <= 1.4 * base
