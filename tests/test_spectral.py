import math

import numpy as np
import pytest

from hausdim import (
    BadParams,
    ConeParams,
    NonPositiveVector,
    ZeroRowSum,
    assemble,
    collatz_wielandt,
    cone_membership,
    hilbert_metric,
    logconvex_check,
    make_cantor_family,
    make_mesh,
    make_mobius_family,
    power_enclosure,
)
from hausdim.bounds import ratio_bounds


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


def test_collatz_wielandt_identity():
    lo, hi = collatz_wielandt(np.eye(3), np.ones(3))
    assert lo == 1.0
    assert hi == 1.0


def test_collatz_wielandt_permutation():
    # Swap matrix has radius 1; the constant vector is its eigenvector.
    mat = np.array([[0.0, 1.0], [1.0, 0.0]])
    lo, hi = collatz_wielandt(mat, np.ones(2))
    assert (lo, hi) == (1.0, 1.0)
    # A skew vector still brackets r = 1.
    lo, hi = collatz_wielandt(mat, np.array([1.0, 3.0]))
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
        lo, hi = collatz_wielandt(mat, w)
        assert lo <= r * (1 + 1e-10)
        assert hi >= r * (1 - 1e-10)


def test_collatz_wielandt_rejects_bad_vector():
    with pytest.raises(NonPositiveVector):
        collatz_wielandt(np.eye(2), np.array([1.0, 0.0]))
    with pytest.raises(NonPositiveVector):
        collatz_wielandt(np.eye(2), np.array([1.0, -1.0]))


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
    triple = assemble(fam, mesh, s)
    enc = power_enclosure(triple.M)
    assert enc.converged
    assert enc.iterations == 1
    assert enc.r_lo == pytest.approx(2.0 * 3.0**-s, rel=1e-14)
    assert enc.gap <= 1e-13 * enc.midpoint


def test_power_enclosure_monotone_history():
    fam = make_mobius_family([1, 2])
    mesh = make_mesh(fam.domain, n=100)
    triple = assemble(fam, mesh, 0.5)
    enc = power_enclosure(triple.M, collect_history=True)
    assert enc.converged
    hist = np.asarray(enc.history)
    assert hist.shape[1] == 2
    gaps = hist[:, 1] - hist[:, 0]
    assert np.all(gaps >= -1e-15)
    # Enclosure gaps shrink monotonically (small float slack).
    assert np.all(np.diff(gaps) <= 1e-13 * hist[:-1, 1])
    # Every later enclosure sits inside the final tolerance of truth.
    r = _squared_radius(triple.M.toarray())
    assert hist[-1, 0] <= r * (1 + 1e-10)
    assert hist[-1, 1] >= r * (1 - 1e-10)


def test_power_enclosure_scale_invariance():
    fam = make_mobius_family([1, 2])
    mesh = make_mesh(fam.domain, n=60)
    triple = assemble(fam, mesh, 0.5)
    enc = power_enclosure(triple.M)
    scaled = power_enclosure(triple.M.toarray() * 7.5)
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


def test_power_enclosure_seed_vector():
    fam = make_mobius_family([1, 2])
    mesh = make_mesh(fam.domain, n=50)
    triple = assemble(fam, mesh, 0.5)
    base = power_enclosure(triple.M)
    seeded = power_enclosure(triple.M, seed_vec=base.eigvec)
    # Warm start converges at once to the same enclosure.
    assert seeded.iterations <= 2
    assert seeded.midpoint == pytest.approx(base.midpoint, rel=1e-12)
    with pytest.raises(NonPositiveVector):
        power_enclosure(triple.M, seed_vec=np.zeros(mesh.dim))


def test_hilbert_metric_values():
    u = np.array([1.0, 2.0])
    v = np.array([2.0, 1.0])
    assert hilbert_metric(u, v) == pytest.approx(2.0 * math.log(2.0),
                                                 rel=1e-14)
    assert hilbert_metric(u, 3.0 * u) == pytest.approx(0.0, abs=1e-14)
    with pytest.raises(NonPositiveVector):
        hilbert_metric(u, np.array([1.0, 0.0]))


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
    triple = assemble(fam, mesh, s)
    enc = power_enclosure(triple.B)
    cone = ConeParams(M=ratio_bounds(fam, s)[2] + 1.0, h=mesh.h)
    assert cone_membership(enc.eigvec, cone)


def test_logconvex_check_exact_loglinear():
    ok, r0, rm, r1 = logconvex_check(lambda s: 2.0 * 3.0**-s, 0.3, 0.7)
    assert ok
    assert rm == pytest.approx(math.sqrt(r0 * r1), rel=1e-14)


def test_logconvex_check_detects_violation():
    # A log-concave function fails the midpoint test.
    ok, *_ = logconvex_check(lambda s: math.exp(-s * s), 0.0 + 0.1, 2.0)
    assert not ok


def test_logconvex_check_discretized_radii():
    fam = make_mobius_family([1, 2])
    mesh = make_mesh(fam.domain, n=200)

    def rad(s):
        return power_enclosure(assemble(fam, mesh, s).M).midpoint

    ok, r0, rm, r1 = logconvex_check(rad, 0.4, 0.6)
    assert ok
    assert r0 > rm > r1


def test_radius_gap_law_quadratic_in_h():
    # (r(B)/r(A) - 1)/h^2 stays near a constant along mesh refinement.
    fam = make_mobius_family([1, 2])
    s = 0.53
    ratios = []
    for n in (200, 400, 800):
        mesh = make_mesh(fam.domain, n=n)
        t = assemble(fam, mesh, s)
        ra = power_enclosure(t.A).midpoint
        rb = power_enclosure(t.B).midpoint
        assert rb >= ra
        ratios.append((rb / ra - 1.0) / mesh.h**2)
    base = ratios[0]
    for e in ratios[1:]:
        assert 0.7 * base <= e <= 1.4 * base
