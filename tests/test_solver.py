import dataclasses
import math
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hausdim import (
    BadParams,
    MapSpec,
    MissingDerivatives,
    NoContractionBound,
    NoSignChange,
    bracket_dimension,
    closed_plan,
    collocation_plan,
    convergence_study,
    enclosure_at,
    highorder_dimension,
    log_radius,
    make_cantor_family,
    make_custom_family,
    make_mesh,
    make_mobius_family,
    power_enclosure,
    radius,
    ratio_bounds,
    reduce_domain,
    solve_root,
)
from hausdim import discretize
from hausdim.bounds import mobius_ratio_bounds
from hausdim.discretize import CollocationPlan
from hausdim.solver import INITIAL_BRACKET, _coarse_mesh, _root

from conjugate_oracle import conjugate_family, moran_root

LOG2_3 = math.log(2.0) / math.log(3.0)
EXACT_DIGITS = 40
with mpmath.workdps(EXACT_DIGITS):
    EXACT_LOG2_3 = mpmath.log(2) / mpmath.log(3)


def _contains(lo: float, hi: float, exact) -> bool:
    """Whether [lo, hi] contains an exact value (mpf, compared exactly)."""
    return mpmath.mpf(lo) <= exact <= mpmath.mpf(hi)


def _moran_root(ratios):
    """Root of sum r_i^s = 1 to 40 digits, by bisection on (0, 1]."""
    with mpmath.workdps(EXACT_DIGITS):
        rs = [mpmath.mpf(r) for r in ratios]
        lo, hi = mpmath.mpf(0), mpmath.mpf(1)
        for _ in range(4 * EXACT_DIGITS):
            mid = (lo + hi) / 2
            if sum(r ** mid for r in rs) > 1:
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2


def test_log_radius_affine_cantor_closed_form():
    # r(M_s) = 2 * 3^-s exactly for the middle-thirds pair.
    fam = make_cantor_family(0.0)
    mesh = make_mesh(fam.domain, n=200)
    for s in (0.3, LOG2_3, 0.9):
        got = log_radius(fam, mesh, s, "M")
        assert got == pytest.approx(math.log(2.0) - s * math.log(3.0),
                                    abs=1e-13)


def test_log_radius_matrix_ordering():
    fam = make_mobius_family([1, 2])
    mesh = make_mesh(fam.domain, n=150)
    la = log_radius(fam, mesh, 0.5, "A")
    lb = log_radius(fam, mesh, 0.5, "B")
    assert la <= lb + 1e-12


def test_radius_default_And_which_validation():
    fam = make_cantor_family(0.0)
    mesh = make_mesh(fam.domain, n=50)
    assert radius(fam, mesh, 0.5) == pytest.approx(2.0 * 3.0**-0.5,
                                                   rel=1e-13)
    with pytest.raises(BadParams):
        radius(fam, mesh, 0.5, which="X")


def test_enclosure_at_returns_tight_brackets():
    fam = make_mobius_family([1, 2])
    mesh = make_mesh(fam.domain, n=120)
    enc = enclosure_at(fam, mesh, 0.5, "M")
    assert enc.converged
    assert enc.gap <= 1e-12 * enc.midpoint
    assert enc.r_lo <= enc.r_hi


def test_solve_root_loglinear_is_three_evals():
    # Secant is exact on a log-linear curve: two endpoint evaluations
    # plus the accepted root.
    f = lambda s: math.log(2.0) - s * math.log(3.0)
    root, evals = solve_root(f, (0.4, 0.9))
    assert root == pytest.approx(LOG2_3, abs=1e-12)
    assert evals <= 3


def test_solve_root_takes_a_root_endpoint_before_widening():
    # f is a rounding-level positive at hi: hi is the root, and no
    # widened bracket is evaluated to find that out.
    calls = []

    def f(s):
        calls.append(s)
        return 1e-16 if s == 0.9 else 0.9 - s

    assert solve_root(f, (0.4, 0.9)) == (0.9, 2)
    assert calls == [0.4, 0.9]
    assert solve_root(lambda s: -1e-16 if s == 0.4 else 0.4 - s,
                      (0.4, 0.9)) == (0.4, 2)


def test_solve_root_expands_bracket():
    f = lambda s: math.log(2.0) - s * math.log(3.0)
    # Root 0.6309 lies above the seed bracket; expansion must find it.
    root, _ = solve_root(f, (0.05, 0.1))
    assert root == pytest.approx(LOG2_3, abs=1e-12)
    # And below this one.
    root2, _ = solve_root(f, (0.9, 1.4))
    assert root2 == pytest.approx(LOG2_3, abs=1e-12)


def test_solve_root_respects_eval_budget():
    calls = []

    def f(s):
        calls.append(s)
        return math.log(2.0) - s * math.log(3.0)

    _, evals = solve_root(f, (0.05, 1.4))
    assert evals == len(calls)
    assert evals <= 40


def test_solve_root_no_sign_change():
    with pytest.raises(NoSignChange):
        solve_root(lambda s: -0.5, (0.4, 0.9))
    with pytest.raises(NoSignChange):
        solve_root(lambda s: 0.5 + s, (0.4, 0.9))
    # NaN has no sign: it must not pass for a root or steer a step, at
    # a bracket end or at a secant step.  +-inf are valid signs.
    with pytest.raises(NoSignChange, match="NaN at s = 0.1"):
        solve_root(lambda s: math.nan, (0.1, 1.0))
    with pytest.raises(NoSignChange, match="NaN"):
        solve_root(lambda s: math.nan if 0.3 < s < 0.7 else 0.5 - s,
                   (0.1, 1.0))
    root, _ = solve_root(lambda s: math.inf if s < 0.2 else 0.5 - s,
                         (0.1, 1.0))
    assert root == pytest.approx(0.5)


def test_solve_root_hard_curve_stays_bracketed():
    # Steep curve with a root near the left end.
    f = lambda s: 1.0 / s - 20.0
    root, evals = solve_root(f, (0.01, 1.0))
    assert root == pytest.approx(0.05, rel=1e-9)
    assert evals <= 40


def test_solve_root_collapses_on_a_jump():
    # A decreasing step function has no point with |f| <= root_tol; the
    # solve ends on the bracket end nearest the jump once the bracket
    # has collapsed to 4 ulps.  That is the only way a bracket endpoint
    # can come back uncertified.
    jump = 1.2

    def step(s):
        return 1.0 if s < jump else -1.0

    s, evals = solve_root(step, (jump - 2.0**-20, jump + 2.0**-20))
    assert evals < 40
    assert 0.0 < jump - s <= 4 * math.ulp(jump)
    assert step(s) == 1.0


@pytest.mark.parametrize("root_tol", [0.0, -1e-12, math.nan, math.inf])
def test_solve_root_rejects_bad_tolerance(root_tol):
    f = lambda s: math.log(2.0) - s * math.log(3.0)
    with pytest.raises(BadParams):
        solve_root(f, (0.4, 0.9), root_tol)


def _moran_curve(ratios):
    """f(s) = log sum r_i^s, decreasing and convex, with its call log."""
    calls = []

    def f(s):
        calls.append(s)
        return math.log(math.fsum(r ** s for r in ratios))

    return f, calls


def _moran_slope(ratios, s):
    """f'(s) of the Moran curve."""
    terms = [r ** s for r in ratios]
    return math.fsum(t * math.log(r) for t, r in zip(terms, ratios)) / \
        math.fsum(terms)


def _moran_root_30(ratios):
    """Root of sum r_i^s = 1 to 30 digits (faster than _moran_root)."""
    with mpmath.workdps(30):
        rs = [mpmath.mpf(r) for r in ratios]
        return mpmath.findroot(lambda s: mpmath.log(mpmath.fsum(
            r ** s for r in rs)), (mpmath.mpf(0), mpmath.mpf(1)),
            solver="anderson")


def _assert_root_within_tol(ratios, exact, root, tol):
    # A convex decreasing f with |f(x)| <= tol has x within
    # tol/|f'(root)| of its root, to first order; the ulps cover the
    # rounding of f near 0.
    bound = tol / abs(_moran_slope(ratios, float(exact))) * (1.0 + 1e-6) \
        + 8.0 * math.ulp(float(exact))
    assert abs(mpmath.mpf(root) - exact) <= bound


_MORAN_RATIOS = st.integers(2, 4).flatmap(
    lambda n: st.lists(st.floats(0.02, 0.9 / n), min_size=n, max_size=n))


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(_MORAN_RATIOS, st.sampled_from(["left", "right"]),
       st.floats(0.01, 0.99), st.floats(0.01, 0.99),
       st.sampled_from([1e-12, 1e-9]))
def test_root_widens_a_bracket_that_misses_the_root(ratios, side, u, v, tol):
    # Brackets wholly left or wholly right of the root: the end nearer
    # the root steps out on secants until f changes sign.
    exact = _moran_root_30(ratios)
    if side == "left":
        hi = float(exact) * u
        bracket = (max(hi * v, 1e-6), hi)
    else:
        lo = float(exact) * (1.0 + 20.0 * u)
        bracket = (lo, min(lo * (1.0 + 10.0 * v), 64.0))
    f, calls = _moran_curve(ratios)
    root, slope, evals = _root(f, bracket, tol)
    # The first step goes outward from the end nearer the root.
    assert (calls[2] > bracket[1]) if side == "left" else \
        (calls[2] < bracket[0])
    _assert_root_within_tol(ratios, exact, root, tol)
    assert evals == len(calls) == len(set(calls)) <= 40
    assert slope < 0.0
    root2, evals2 = solve_root(_moran_curve(ratios)[0], bracket, tol)
    assert (root2, evals2) == (root, evals)


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(_MORAN_RATIOS, st.floats(-1.0, 1.0),
       st.sampled_from([1.0, 10.0, 0.1, 0.0, -1.0]),
       st.sampled_from([1e-12, 1e-9]))
def test_root_from_a_warm_start(ratios, u, slope_factor, tol):
    # Starts within a factor 4 of the root, on a slope that is right,
    # 10 times too steep or too flat, zero, or of the wrong sign.
    exact = _moran_root_30(ratios)
    s0 = float(exact) * 4.0 ** u
    f, calls = _moran_curve(ratios)
    root, _, evals = _root(f, INITIAL_BRACKET, tol,
                           (s0, slope_factor * _moran_slope(ratios, s0)))
    _assert_root_within_tol(ratios, exact, root, tol)
    assert calls[0] == s0
    assert evals == len(calls) == len(set(calls)) <= 40


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(_MORAN_RATIOS, st.booleans())
def test_root_without_sign_change_in_range(ratios, above):
    # Shifted so the root leaves [1e-6, 64]: above it, or below.
    f, calls = _moran_curve(ratios)
    shift = 1.0 - f(64.0) if above else -1.0 - f(1e-6)
    curve = lambda s: f(s) + shift
    for start in (None, (0.5, _moran_slope(ratios, 0.5))):
        calls.clear()
        with pytest.raises(NoSignChange):
            _root(curve, INITIAL_BRACKET, 1e-12, start)
        assert len(calls) <= 40
        assert min(calls) >= 1e-6 and max(calls) <= 64.0


def test_root_warm_start_keeps_stepping_past_four_steps():
    # Far below the root of a line, each step is held to a factor 2, so
    # the first five keep f > 0 (the first on a slope of the wrong
    # sign); the sixth, a Newton step on the secant, lands on the root.
    calls = []

    def f(s):
        calls.append(s)
        return 0.7 - s

    root, slope, evals = _root(f, INITIAL_BRACKET, 1e-12, (0.0175, 1.0))
    assert calls == [0.0175 * 2.0 ** k for k in range(6)] + [root]
    assert root == pytest.approx(0.7, abs=1e-12)
    assert evals == 7
    assert slope == pytest.approx(-1.0)


def test_root_slope_is_that_of_the_nearest_points():
    # The slope returned is the secant through the root and the
    # evaluated point nearest it, as a coarse start hands on.
    f, calls = _moran_curve([0.3, 0.4])
    root, slope, evals = _root(f, (0.05, 1.5), 1e-12)
    other = min(calls[:-1], key=lambda s: abs(s - root))
    assert calls[-1] == root
    assert slope == (f(other) - f(root)) / (other - root)


def test_callers_reject_bad_root_tolerance_before_any_matrix(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("matrix built")

    monkeypatch.setattr(CollocationPlan, "matrix", fail)
    monkeypatch.setattr(CollocationPlan, "data", fail)
    fam = make_mobius_family([1, 2])
    mesh = make_mesh(fam.domain, h=0.01)
    with pytest.raises(BadParams):
        bracket_dimension(fam, mesh, root_tol=-1e-12)
    with pytest.raises(BadParams):
        convergence_study(fam, [0.02, 0.01], root_tol=0.0)
    with pytest.raises(BadParams):
        highorder_dimension(fam, mesh, 2, root_tol=math.nan)


@pytest.mark.parametrize("bad", [0.0, -1e-13, math.nan, math.inf])
def test_callers_reject_bad_tolerances_before_any_plan(monkeypatch, bad):
    # Unchecked, an infinite radius_tol reaches the root solve and is
    # named root_tol there (bracket), or runs to a wrong estimate
    # (degree d).  A degree-d estimate checks root_tol up front too.
    def fail(*args, **kwargs):
        raise AssertionError("plan built")

    monkeypatch.setattr(discretize, "_build_plan", fail)
    fam = make_mobius_family([1, 2])
    mesh = make_mesh(fam.domain, h=0.01)
    with pytest.raises(BadParams, match="radius_tol"):
        bracket_dimension(fam, mesh, radius_tol=bad)
    with pytest.raises(BadParams, match="radius_tol"):
        convergence_study(fam, [0.02, 0.01], radius_tol=bad)
    with pytest.raises(BadParams, match="radius_tol"):
        highorder_dimension(fam, mesh, 4, radius_tol=bad)
    with pytest.raises(BadParams, match="root_tol"):
        highorder_dimension(fam, mesh, 4, root_tol=bad)
    # Every plan, whole or closed, is built by the patched builder.
    for build in (collocation_plan, closed_plan):
        with pytest.raises(AssertionError, match="plan built"):
            build(fam, mesh)


def test_custom_bound_errors_come_before_any_plan(monkeypatch):
    # A custom family the bound layer refuses, for kappa >= 1 or for a
    # map without the chain's data, fails before the coarse plan and its
    # root solve.
    def fail(*args, **kwargs):
        raise AssertionError("plan built")

    pair = _affine_pair(0.3)
    no_contraction = make_custom_family(
        [dataclasses.replace(spec, d1_sup=1.0) for spec in pair.maps],
        pair.domain)
    no_r2 = make_custom_family(
        [dataclasses.replace(spec, weight_r2=None) for spec in pair.maps],
        pair.domain)
    mesh = make_mesh(pair.domain, h=1e-3)
    assert _coarse_mesh(mesh) is not None
    monkeypatch.setattr(discretize, "_build_plan", fail)
    with pytest.raises(NoContractionBound,
                       match="sup \\|theta'\\| = 1.0 >= 1"):
        bracket_dimension(no_contraction, mesh)
    with pytest.raises(MissingDerivatives,
                       match="'affine-0' lacks weight_r2$"):
        bracket_dimension(no_r2, mesh)


@pytest.mark.parametrize("family, h", [
    ([1, 2], 0.01), ([1, 2], 1e-3), ([1, 2], 1e-4), ([2, 3], 0.01),
    ([2, 3], 1e-3), (list(range(1, 11)), 1e-3), (0.5, 1e-3),
    ([10, 11], 1e-4)])
def test_loose_radius_tol_builds_no_more_matrices(family, h):
    # log r is known only to about radius_tol, so a loose radius_tol
    # loosens the coarse root and widens the fine band instead of
    # chasing that noise: no more matrices than at the default (up to
    # 2 for a moved secant step), and still certified.
    fam = make_cantor_family(family) if isinstance(family, float) \
        else make_mobius_family(family)
    mesh = make_mesh(fam.domain, h=h)
    default = bracket_dimension(fam, mesh)
    for radius_tol in (1e-10, 1e-9, 1e-8):
        br = bracket_dimension(fam, mesh, radius_tol=radius_tol)
        assert br.certified
        assert br.evals <= default.evals + 2
        # Both contain the dimension, so they overlap.
        assert br.s_lower <= default.s_upper
        assert default.s_lower <= br.s_upper


def test_bracket_dimension_affine_cantor():
    fam = make_cantor_family(0.0)
    mesh = make_mesh(fam.domain, n=500)
    br = bracket_dimension(fam, mesh)
    assert br.certified
    assert _contains(br.s_lower, br.s_upper, EXACT_LOG2_3)
    assert br.width <= 1e-10
    assert br.family_id == fam.family_id
    assert br.mesh_h == mesh.h


@pytest.mark.parametrize("h", [0.02, 0.01, 1e-3])
def test_cantor_zero_bracket_contains_exact_dimension(h):
    # A = B = M for the middle-thirds pair, so each endpoint is its root
    # solve's point: the bracket must contain ln2/ln3 itself, not just
    # the double below it.
    br = bracket_dimension(make_cantor_family(0.0),
                           make_mesh((0.0, 1.0), h=h))
    assert br.certified
    assert _contains(br.s_lower, br.s_upper, EXACT_LOG2_3)


def test_bracket_dimension_certified_endpoints():
    # Re-evaluating the enclosures at the endpoints reproduces the
    # certificates: r_lo(A) >= 1 at s_lower and r_hi(B) <= 1 at s_upper.
    fam = make_mobius_family([1, 2])
    mesh = make_mesh(fam.domain, n=300)
    br = bracket_dimension(fam, mesh)
    assert br.certified
    enc_a = enclosure_at(fam, mesh, br.s_lower, "A")
    enc_b = enclosure_at(fam, mesh, br.s_upper, "B")
    assert enc_a.r_lo >= 1.0
    assert enc_b.r_hi <= 1.0
    assert br.s_lower < br.s_upper


def test_bracket_dimension_nested_over_refinement():
    fam = make_mobius_family([1, 2])
    brs = [bracket_dimension(fam, make_mesh(fam.domain, n=n))
           for n in (100, 200, 400)]
    # All brackets contain the true dimension, so they mutually overlap.
    for a in brs:
        for b in brs:
            assert a.s_lower <= b.s_upper
    widths = [b.width for b in brs]
    assert widths[0] > widths[1] > widths[2]


def test_bracket_dimension_on_reduced_domain():
    fam = make_mobius_family([1, 2])
    parts = reduce_domain(fam, 2, merge_gap=0.0005)
    mesh = make_mesh(parts, h=0.002)
    br = bracket_dimension(fam, mesh)
    assert br.certified
    full = bracket_dimension(fam, make_mesh(fam.domain, h=0.002))
    # Same operator: the two brackets overlap.
    assert br.s_lower <= full.s_upper
    assert full.s_lower <= br.s_upper


def test_bracket_dimension_single_map_has_no_root():
    # One contraction alone has a degenerate attractor: r < 1 for all
    # usable s, so the bracket search reports the missing sign change.
    fam = make_mobius_family([3])
    mesh = make_mesh(fam.domain, n=50)
    with pytest.raises(NoSignChange):
        bracket_dimension(fam, mesh)


def test_radius_monotone_decreasing_in_s():
    cases = [make_mobius_family([1, 2]), make_mobius_family([2, 3]),
             make_cantor_family(0.5), make_cantor_family(1.0)]
    grid = [0.2, 0.4, 0.6, 0.8, 1.0]
    for fam in cases:
        mesh = make_mesh(fam.domain, n=200)
        vals = [radius(fam, mesh, s) for s in grid]
        assert all(a > b for a, b in zip(vals, vals[1:]))


def test_convergence_study_quadratic_order():
    fam = make_mobius_family([1, 2])
    study = convergence_study(fam, [0.01, 0.005, 0.0025])
    assert 1.7 <= study.fitted_order <= 2.3
    hs = [r[0] for r in study.rows]
    assert hs == sorted(hs)
    widths = [r[3] for r in study.rows]
    assert widths[0] < widths[-1]


def test_convergence_study_floor_at_root_tolerance():
    # Zero-error family: widths sit at the root tolerance floor.
    fam = make_cantor_family(0.0)
    study = convergence_study(fam, [0.01, 0.005])
    for _, lo, up, width in study.rows:
        assert _contains(lo, up, EXACT_LOG2_3)
        assert width <= 1e-11


def test_convergence_study_needs_two_widths():
    with pytest.raises(BadParams):
        convergence_study(make_cantor_family(0.0), [0.01])


@pytest.mark.parametrize("hs", [[0.01, 0.01], [0.01, 0.0100001]])
def test_convergence_study_needs_two_realized_widths(monkeypatch, hs):
    # Both ladders round to one mesh; the study stops before any bracket.
    import hausdim.solver as solver

    def no_bracket(*args, **kwargs):
        raise AssertionError("bracket built before the ladder was checked")

    monkeypatch.setattr(solver, "bracket_dimension", no_bracket)
    with pytest.raises(BadParams, match="two distinct"):
        convergence_study(make_mobius_family([1, 2]), hs)


@pytest.mark.parametrize("hs", [["0.05", "0.02"], [True, 0.05],
                                [0.05 + 0j, 0.02]],
                         ids=["strings", "bool", "complex"])
def test_convergence_study_rejects_a_width_make_mesh_rejects(monkeypatch, hs):
    # Each width reaches make_mesh as given: "0.05" is not read as a
    # number, True not as h = 1 and a complex width not as a TypeError.
    import hausdim.solver as solver

    def no_bracket(*args, **kwargs):
        raise AssertionError("bracket built before the ladder was checked")

    monkeypatch.setattr(solver, "bracket_dimension", no_bracket)
    with pytest.raises(BadParams, match="mesh width h"):
        convergence_study(make_mobius_family([1, 2]), hs)


def test_convergence_study_brackets_each_realized_width_once(monkeypatch):
    import hausdim.solver as solver

    meshes = []
    bracket = solver.bracket_dimension

    def counting(fam, mesh, **kwargs):
        meshes.append(mesh.h)
        return bracket(fam, mesh, **kwargs)

    monkeypatch.setattr(solver, "bracket_dimension", counting)
    fam = make_mobius_family([1, 2])
    study = convergence_study(fam, [0.01, 0.01, 0.005])
    assert meshes == [0.005, 0.01]
    assert [row[0] for row in study.rows] == meshes
    assert study == convergence_study(fam, [0.01, 0.005])


def test_bracket_builds_each_matrix_once(monkeypatch):
    # Within one bracket the root solves revisit s values, and the
    # certificate reads the enclosures they found; every (s, matrix)
    # pair is built once and evals counts them.
    # A and B at a shared s also share one error model.  The plan lies
    # below the coarse level's cut-off, which is forced on here.
    import hausdim.solver as solver

    monkeypatch.setattr(solver, "_BRACKET_MIN_ENTRIES", 0)
    built, modelled = [], []
    matrix = CollocationPlan.matrix
    model = solver.error_model

    def counting(self, s, coef=None, out=None):
        built.append((self.dim, s, coef))
        return matrix(self, s, coef, out)

    def counting_model(fam, s, h, bound_plan=None):
        modelled.append(s)
        return model(fam, s, h, bound_plan)

    monkeypatch.setattr(CollocationPlan, "matrix", counting)
    monkeypatch.setattr(solver, "error_model", counting_model)
    fam = make_mobius_family([1, 2])
    mesh = make_mesh(fam.domain, n=80)
    br = bracket_dimension(fam, mesh)
    assert len(built) == len(set(built)) == br.evals > 0
    # evals counts the coarse-mesh M matrices too; they need no error
    # model, so the models match the fine-mesh builds alone.  The fine
    # matrices are those of the closed plan (16 of the 81 nodes).
    fine = {s for dim, s, _ in built if dim == closed_plan(fam, mesh).dim}
    assert 0 < len(fine) < br.evals
    assert sorted(modelled) == sorted(fine)


def test_custom_bracket_bounds_go_through_general_constants(monkeypatch,
                                                           poly_fam):
    # Every error model of a custom-family bracket reads its constants
    # from general_constants, on the one BoundPlan the bracket built.
    import hausdim.bounds as bounds
    import hausdim.solver as solver

    modelled, constants = [], []
    model, general = solver.error_model, bounds.general_constants

    def counting_model(fam, s, h, bound_plan=None):
        modelled.append((s, bound_plan))
        return model(fam, s, h, bound_plan)

    def counting_general(fam, s, bound_plan=None):
        constants.append((s, bound_plan))
        return general(fam, s, bound_plan)

    monkeypatch.setattr(solver, "error_model", counting_model)
    monkeypatch.setattr(bounds, "general_constants", counting_general)
    br = bracket_dimension(poly_fam, make_mesh(poly_fam.domain, h=0.01))
    assert br.certified
    assert len(modelled) > 1
    assert constants == modelled
    plans = {id(plan) for _, plan in constants}
    assert len(plans) == 1
    assert isinstance(constants[0][1], bounds.BoundPlan)
    assert constants[0][1].fam is poly_fam


def test_bracket_drops_coarse_plan_before_fine_entries(monkeypatch):
    """The coarse plan is gone before the fine level makes its entries.

    A bracket builds its fine closed plan first, as the plan's size
    decides whether the coarse level runs.  The coarse plan is released
    before the fine level makes its entry buffer (solver._Level makes
    one entry-sized array when it starts), so peak memory holds
    the fine plan and at most one of the two.
    """
    import weakref

    import hausdim.solver as solver

    made, alive = [], []  # (dim, ref) of each plan; which live per level
    real_plan, real_level = solver.closed_plan, solver._Level

    def tracking(*args, **kwargs):
        plan = real_plan(*args, **kwargs)
        made.append((plan.dim, weakref.ref(plan)))
        return plan

    def level(plan, *args, **kwargs):
        alive.append([ref() is not None for _, ref in made])
        return real_level(plan, *args, **kwargs)

    monkeypatch.setattr(solver, "closed_plan", tracking)
    monkeypatch.setattr(solver, "_Level", level)
    fam = make_mobius_family(range(1, 11))
    mesh = make_mesh(fam.domain, h=1e-4)
    br = bracket_dimension(fam, mesh)
    assert br.certified
    coarse = _coarse_mesh(mesh)
    assert [dim for dim, _ in made] == [closed_plan(fam, mesh).dim,
                                        closed_plan(fam, coarse).dim]
    assert alive == [[True, True], [True, False]]


def test_bracket_solves_on_the_fine_mesh_when_the_coarse_level_stalls(
        monkeypatch):
    # At s = 64 the 4-row closed coarse plan of cf{1,2} at h = 0.01 stops
    # unconverged.  The bracket is then the one found with no coarse
    # level, and evals still counts the coarse matrices built.  The plan
    # lies below the cut-off, so the coarse level is forced on here.
    # Both levels predict a root near 0.52, outside the start bracket,
    # so each walks it from its ends and the coarse level reaches s = 64.
    import hausdim.solver as solver

    monkeypatch.setattr(solver, "_BRACKET_MIN_ENTRIES", 0)
    dims = []
    matrix = CollocationPlan.matrix

    def counting(self, s, coef=None, out=None):
        dims.append(self.dim)
        return matrix(self, s, coef, out)

    monkeypatch.setattr(CollocationPlan, "matrix", counting)
    fam = make_mobius_family([1, 2])
    mesh = make_mesh(fam.domain, h=0.01)
    coarse = _coarse_mesh(mesh)
    assert closed_plan(fam, coarse).dim == 4
    br = bracket_dimension(fam, mesh, initial=(0.6, 64.0))
    assert br.certified
    assert br.evals == len(dims)
    assert dims.count(4) == 2  # s = 0.6, then s = 64 stalls
    monkeypatch.setattr(solver, "_coarse_mesh", lambda mesh: None)
    alone = bracket_dimension(fam, mesh, initial=(0.6, 64.0))
    assert (br.s_lower, br.s_upper) == (alone.s_lower, alone.s_upper)
    assert br.evals == alone.evals + 2


@pytest.mark.parametrize("initial", [
    (0.9, 0.1), (math.nan, 1.0), (-1.0, 1.0), (0.01, math.inf)],
    ids=["reversed", "nan", "negative", "infinite"])
def test_bad_initial_rejected_before_any_plan(monkeypatch, initial):
    # A bad start bracket is rejected next to the tolerance checks, not
    # by the coarse root solve after its plan is built.
    import hausdim.solver as solver

    plans = []
    real = solver.closed_plan

    def counting(*args, **kwargs):
        plans.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(solver, "closed_plan", counting)
    fam = make_mobius_family([1, 2])
    mesh = make_mesh(fam.domain, h=0.01)
    assert _coarse_mesh(mesh) is not None
    with pytest.raises(BadParams, match="bad bracket"):
        bracket_dimension(fam, mesh, initial=initial)
    assert plans == []
    with pytest.raises(BadParams, match="bad bracket"):
        solve_root(lambda s: 1.0 - s, initial)


@pytest.mark.parametrize("digits,h", [([1, 2], 1e-3), ([2, 3], 0.01)])
def test_bracket_certified_at_loose_radius_tol(digits, h):
    """At radius_tol = 1e-8 each endpoint is certified as found.

    A nudge loop that moved an endpoint by root_tol at a time left
    both brackets uncertified after 117 and 113 matrices: an enclosure
    of relative gap 1e-8 could not settle a margin of root_tol/10 in
    log r.  Each root now aims a margin of radius_tol outward.
    """
    fam = make_mobius_family(digits)
    mesh = make_mesh(fam.domain, h=h)
    br = bracket_dimension(fam, mesh, radius_tol=1e-8)
    assert br.certified
    assert br.evals <= 64
    assert enclosure_at(fam, mesh, br.s_lower, "A").r_lo >= 1.0
    assert enclosure_at(fam, mesh, br.s_upper, "B").r_hi <= 1.0


@pytest.mark.parametrize("digits,h,fine_before,fine_budget", [
    (range(1, 11), 1e-4, 11, 7),
    (range(1, 35), 2e-4, 12, 7),
], ids=["cf1-10_h1e-4", "cf1-34_h2e-4"])
def test_bracket_fine_matrix_budget(monkeypatch, digits, h, fine_before,
                                    fine_budget):
    """The root found on the coarse mesh leaves few fine matrices.

    Both closed plans lie above the coarse level's cut-off (117980 and
    340068 entries).  Started from the initial bracket on the fine mesh,
    cf{1..10} at h = 1e-4 builds 11 fine matrices and cf{1..34} at
    h = 2e-4 builds 12.
    """
    import hausdim.solver as solver

    dims = []
    matrix = CollocationPlan.matrix

    def counting(self, s, coef=None, out=None):
        dims.append(self.dim)
        return matrix(self, s, coef, out)

    monkeypatch.setattr(CollocationPlan, "matrix", counting)
    fam = make_mobius_family(digits)
    mesh = make_mesh(fam.domain, h=h)
    plan = closed_plan(fam, mesh)
    assert plan.indices.size >= solver._BRACKET_MIN_ENTRIES
    br = bracket_dimension(fam, mesh)
    assert br.certified
    assert br.evals == len(dims)
    assert len(set(dims)) == 2  # the coarse level ran
    assert dims.count(plan.dim) <= fine_budget < fine_before


@pytest.mark.parametrize("fam,h,evals_before,evals_budget", [
    (make_mobius_family([1, 2]), 1e-4, 13, 10),
    (make_cantor_family(0.5), 1e-3, 16, 12),
], ids=["cf12_h1e-4", "cantor05_h1e-3"])
def test_bracket_below_the_cut_off_has_no_coarse_level(
        monkeypatch, fam, h, evals_before, evals_budget):
    """A closed plan below the cut-off is solved on the fine mesh alone.

    cf{1,2} at h = 1e-4 (960 entries) and Cantor a = 0.5 at h = 1e-3
    (1460) built 13 and 16 matrices, coarse ones included, when every
    bracket took the coarse level; on the fine mesh alone they built 10
    and 12 from the ends of (0.01, 1.5), and build 7 and 9 from the
    plan's predicted root.
    """
    import hausdim.solver as solver

    plans, dims = [], []
    real, matrix = solver.closed_plan, CollocationPlan.matrix

    def counting_plan(*args, **kwargs):
        plans.append(args)
        return real(*args, **kwargs)

    def counting(self, s, coef=None, out=None):
        dims.append(self.dim)
        return matrix(self, s, coef, out)

    monkeypatch.setattr(solver, "closed_plan", counting_plan)
    monkeypatch.setattr(CollocationPlan, "matrix", counting)
    mesh = make_mesh((0.0, 1.0), h=h)
    assert _coarse_mesh(mesh) is not None
    br = bracket_dimension(fam, mesh)
    assert br.certified
    assert len(plans) == 1
    assert real(fam, mesh).indices.size < solver._BRACKET_MIN_ENTRIES
    assert set(dims) == {real(fam, mesh).dim}
    assert br.evals == len(dims) <= evals_budget < evals_before


def test_bracket_seeds_its_first_fine_solve_from_the_coarse_level(
        monkeypatch):
    """The first fine solve starts from the interpolated coarse vector.

    On cf{1..10} at h = 1e-4 (117980 entries, above the cut-off) the
    last coarse M eigenvector, interpolated onto the fine closed rows,
    seeds the first fine solve: 8 power steps, where a cold start from
    all-ones takes 17.
    """
    import hausdim.solver as solver

    fam = make_mobius_family(range(1, 11))
    mesh = make_mesh(fam.domain, h=1e-4)
    fine_dim = closed_plan(fam, mesh).dim
    power = solver.power_enclosure

    def first_fine_solve():
        solves = []

        def recording(matrix, *args, seed_vec=None, **kwargs):
            enc = power(matrix, *args, seed_vec=seed_vec, **kwargs)
            solves.append((matrix.dim, seed_vec, enc.iterations))
            return enc

        with mock.patch.object(solver, "power_enclosure", recording):
            assert bracket_dimension(fam, mesh).certified
        assert solves[0][0] != fine_dim  # the coarse level ran first
        return next(solve for solve in solves if solve[0] == fine_dim)

    _, seed, seeded_steps = first_fine_solve()
    assert seed is not None and np.all(seed > 0.0)
    monkeypatch.setattr(solver, "_interpolate_rows", lambda *args: None)
    _, seed, cold_steps = first_fine_solve()
    assert seed is None
    assert seeded_steps < cold_steps


def test_bracket_skips_a_coarse_level_barely_coarser(monkeypatch):
    """A domain of many short pieces gets no coarse level.

    reduce_domain(cf{1,2}, 6) has 32 pieces, and make_mesh keeps two
    cells on each, so at h = 5e-4 the mesh 16 times coarser keeps 96
    of the 122 nodes.  With that coarse level the bracket built 7
    coarse and 6 fine matrices (7.8 ms); without it, 10 fine (4.6 ms),
    and 8 since the roots start at the plan's predicted root.
    """
    dims = []
    matrix = CollocationPlan.matrix

    def counting(self, s, coef=None, out=None):
        dims.append(self.dim)
        return matrix(self, s, coef, out)

    monkeypatch.setattr(CollocationPlan, "matrix", counting)
    fam = make_mobius_family([1, 2])
    mesh = make_mesh(reduce_domain(fam, 6), h=5e-4)
    assert mesh.dim == 122 and len(mesh.pieces) == 32
    assert _coarse_mesh(mesh) is None
    br = bracket_dimension(fam, mesh)
    assert br.certified
    assert set(dims) == {closed_plan(fam, mesh).dim}
    assert br.evals == len(dims) <= 10
    # The cut sits at a tenth of the nodes: reduce_domain(cf{1,2}, 6) at
    # h = 3e-5 keeps 122 of 1194 and has no coarse level, while the
    # cf12_reduced2_h005 pin's mesh keeps 1 in 10.1 and has one.
    mesh = make_mesh(reduce_domain(fam, 6), h=3e-5)
    coarse = make_mesh([(p.a, p.b) for p in mesh.pieces], h=16 * mesh.h)
    assert (mesh.dim, coarse.dim) == (1194, 122)
    assert _coarse_mesh(mesh) is None
    mesh = make_mesh(reduce_domain(fam, 2), h=0.005)
    assert 10 * _coarse_mesh(mesh).dim <= mesh.dim


@pytest.mark.parametrize("case,before_its,before_evals", [
    ("cf12_n200", 430, 16),
    ("cantor05_h1e-3", 1030, 18),
    ("cantor1_h1e-4", 1021, 20),
])
def test_bracket_power_iteration_budget(monkeypatch, case, before_its,
                                        before_evals):
    """Warm starts, sign-sufficient stops and Aitken steps cut the steps.

    Before warm starts and sign-sufficient stops every solve started
    from all-ones and ran to the 1e-13 gap: cf{1,2} at n = 200 took 430
    iterations over 16 solves and Cantor a = 0.5 at h = 1e-3 took 1030
    over 18.  Cantor a = 1 at h = 1e-4, whose matrices have a real
    lambda2/lambda1 of 0.86, took 1021 over 19 solves with them but
    before predicted starts and Aitken steps.  A bracket must now take
    at most half of that, and build no more matrices; the budget of the
    a = 1 case is 20, as its moved rounding builds one matrix more.
    """
    import hausdim.solver as solver

    iterations = []
    power = solver.power_enclosure

    def counting(*args, **kwargs):
        enc = power(*args, **kwargs)
        iterations.append(enc.iterations)
        return enc

    monkeypatch.setattr(solver, "power_enclosure", counting)
    fam, mesh = {
        "cf12_n200": lambda: (make_mobius_family([1, 2]),
                              make_mesh((0.0, 1.0), n=200)),
        "cantor05_h1e-3": lambda: (make_cantor_family(0.5),
                                   make_mesh((0.0, 1.0), h=1e-3)),
        "cantor1_h1e-4": lambda: (make_cantor_family(1.0),
                                  make_mesh((0.0, 1.0), h=1e-4)),
    }[case]()
    br = bracket_dimension(fam, mesh)
    assert br.certified
    assert len(iterations) == br.evals <= before_evals
    assert sum(iterations) <= before_its // 2


@pytest.mark.parametrize("fam,h,initial", [
    (make_cantor_family(1.0), 1e-3, INITIAL_BRACKET),
    (make_cantor_family(0.5), 1e-4, INITIAL_BRACKET),
    (make_mobius_family([1, 2]), 1e-4, INITIAL_BRACKET),
    (make_mobius_family([1, 3]), 1e-3, INITIAL_BRACKET),
    (make_cantor_family(1.0), 1e-2, (0.1, 0.3)),
], ids=["cantor1_h1e-3", "cantor05_h1e-4", "cf12_h1e-4", "cf13_h1e-3",
        "cantor1_h1e-2_from_0.1"])
def test_bracket_solves_start_from_positive_vectors(monkeypatch, fam, h,
                                                    initial):
    # A solve starts from the eigenvectors of the last two solves of its
    # matrix kind, extrapolated in s, or else from the latest one.  Every
    # start must be strictly positive and finite, and some must be
    # predicted.  From (0.1, 0.3), Cantor a = 1's B solves at 0.1 and
    # 0.3 (its plan has no coarse level) extrapolate to a vector with a
    # negative entry at 0.6, so there the solve starts from the
    # eigenvector at 0.3 instead.
    import hausdim.solver as solver

    seeds, eigvecs = [], []
    power = solver.power_enclosure

    def recording(matrix, *args, seed_vec=None, **kwargs):
        seeds.append(None if seed_vec is None else seed_vec.copy())
        enc = power(matrix, *args, seed_vec=seed_vec, **kwargs)
        eigvecs.append(enc.eigvec.tobytes())
        return enc

    monkeypatch.setattr(solver, "power_enclosure", recording)
    br = bracket_dimension(fam, make_mesh(fam.domain, h=h), initial=initial)
    assert br.certified
    # The first solve of each mesh starts from all-ones, or the first
    # fine one from the interpolated coarse eigenvector.
    started = [seed for seed in seeds if seed is not None]
    assert len(started) >= len(seeds) - 2
    for seed in started:
        assert np.all(seed > 0.0) and np.all(np.isfinite(seed))
    assert any(seed.tobytes() not in eigvecs for seed in started)
    if initial != INITIAL_BRACKET:
        assert eigvecs[1] == seeds[2].tobytes()


def test_bracket_builds_bound_plan_once(poly_fam):
    # The map chains do not depend on s: one bracket samples each map on
    # the bound plan's grid once, and computes no (map, grid) chain twice
    # across the s values its root solves visit.
    import hausdim.bounds as bounds

    with mock.patch.object(bounds, "_map_chain",
                           wraps=bounds._map_chain) as chain:
        br = bracket_dimension(poly_fam, make_mesh(poly_fam.domain, h=0.01))
    assert br.certified
    calls = [(c.args[0].label, c.args[1]) for c in chain.call_args_list]
    on_grid = [label for label, xs in calls if xs.size == bounds._GRID]
    assert len(on_grid) == poly_fam.n_maps
    grids = [(label, xs.tobytes()) for label, xs in calls]
    assert len(grids) == len(set(grids))


def _affine_family(ratios):
    """Increasing affine maps x -> r_j x + t_j on [0, 1], left to right
    with equal gaps, under the default label."""
    def const(value):
        return lambda x: np.full_like(np.asarray(x, dtype=float), value)

    def spec(ratio, offset, label):
        return MapSpec(label=label,
                       eval=lambda x: ratio * np.asarray(x, dtype=float) + offset,
                       d1=const(ratio), d2=const(0.0), d3=const(0.0),
                       log_weight=const(math.log(ratio)), weight_r1=const(0.0),
                       weight_r2=const(0.0), weight_r3=const(0.0),
                       d1_sup=ratio)

    gap = (1.0 - sum(ratios)) / (len(ratios) - 1)
    specs, offset = [], 0.0
    for j, ratio in enumerate(ratios):
        specs.append(spec(ratio, offset, f"affine-{j}"))
        offset += ratio + gap
    return make_custom_family(specs, (0.0, 1.0))


def _affine_pair(ratio):
    """x -> r x and x -> r x + 1 - r on [0, 1], with the default label."""
    return _affine_family([ratio, ratio])


def test_brackets_of_same_label_families_stay_independent():
    # Two custom families share the default label, domain and mesh; the
    # second bracket must come from its own matrices.
    mesh = make_mesh((0.0, 1.0), h=1e-2)
    first = bracket_dimension(_affine_pair(1.0 / 3.0), mesh)
    assert _contains(first.s_lower, first.s_upper, EXACT_LOG2_3)
    second = bracket_dimension(_affine_pair(0.25), mesh)
    assert second.evals > 0
    assert second.s_lower <= 0.5 <= second.s_upper


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(st.integers(2, 3).flatmap(
    lambda n: st.lists(st.floats(0.02, 0.9 / n), min_size=n, max_size=n)))
def test_affine_bracket_contains_moran_root(ratios):
    # L_s maps constants to sum r_j^s times themselves, so an affine
    # family's dimension is the root of sum r_j^s = 1 (Moran), known to
    # 40 digits; A = B = M, so nothing but the root solves and their
    # certificates stands between the bracket and that root.
    br = bracket_dimension(_affine_family(ratios),
                           make_mesh((0.0, 1.0), h=0.01))
    assert br.certified
    assert _contains(br.s_lower, br.s_upper, _moran_root(ratios))


def test_affine_bracket_starts_at_the_moran_root(monkeypatch):
    # Every log weight of an affine family is log r_j, so the predicted
    # start is the root of log sum r_j^s: the dimension.  r(M_s) is
    # sum r_j^s there, and the B root, a margin away, takes one step.
    import hausdim.solver as solver

    ratios = [0.25, 0.3, 0.2]
    fam = _affine_family(ratios)
    mesh = make_mesh(fam.domain, h=1e-3)
    s0, slope = solver._predicted_start(closed_plan(fam, mesh),
                                        INITIAL_BRACKET)
    exact = _moran_root(ratios)
    assert abs(mpmath.mpf(s0) - exact) <= 1e-14
    assert slope == pytest.approx(_moran_slope(ratios, s0), rel=1e-12)
    levels = []

    class Recording(solver._Level):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            levels.append(self)

    monkeypatch.setattr(solver, "_Level", Recording)
    br = bracket_dimension(fam, mesh)
    assert br.certified
    assert _contains(br.s_lower, br.s_upper, exact)
    [fine] = levels
    assert sum(which == "B" for _, which in fine.radii) <= 2


def test_bracket_walks_an_initial_that_excludes_the_prediction(
        monkeypatch):
    # Cantor a = 1 at h = 1e-3 predicts 0.703, below its root near
    # 0.7967: from (0.75, 0.9), which holds the root but not the
    # prediction, the B root evaluates the two ends first.
    import hausdim.solver as solver

    fam = make_cantor_family(1.0)
    mesh = make_mesh(fam.domain, h=1e-3)
    plan = closed_plan(fam, mesh)
    assert plan.indices.size < solver._BRACKET_MIN_ENTRIES
    s0, _ = solver._predicted_start(plan, INITIAL_BRACKET)
    assert s0 < 0.75
    assert solver._predicted_start(plan, (0.75, 0.9)) is None
    visited = []
    matrix = CollocationPlan.matrix

    def recording(self, s, coef=None, out=None):
        visited.append(s)
        return matrix(self, s, coef, out)

    monkeypatch.setattr(CollocationPlan, "matrix", recording)
    br = bracket_dimension(fam, mesh, initial=(0.75, 0.9))
    assert br.certified
    assert 0.75 < br.s_lower < br.s_upper < 0.9
    assert visited[:2] == [0.75, 0.9]


@st.composite
def _disjoint_maps(draw):
    """(ratios, offsets) of 2-4 affine maps of [0, 1] with disjoint images."""
    n = draw(st.integers(2, 4))
    ratios = draw(st.lists(st.floats(0.05, 0.85 / n), min_size=n, max_size=n))
    gaps = draw(st.lists(st.floats(0.01, 1.0), min_size=n + 1,
                         max_size=n + 1))
    scale, offsets, end = (1.0 - sum(ratios)) / sum(gaps), [], 0.0
    for ratio, gap in zip(ratios, gaps):
        offsets.append(end + gap * scale)
        end = offsets[-1] + ratio
    return ratios, offsets


@settings(max_examples=80, derandomize=True, deadline=None, database=None)
@given(_disjoint_maps(), st.sampled_from([0.0, 0.25, 0.5, 1.0]),
       st.sampled_from([1e-2, 1e-3, 1e-4]))
def test_predicted_starts_keep_brackets_on_exact_roots(maps, c, h):
    # c = 0 gives the affine (Moran) family, whose predicted start is
    # the root; the Mobius conjugates (c > 0) share its exact root, but
    # their mean log weights predict a root off it.  Either way every
    # bracket is certified and contains the 40-digit root.
    ratios, offsets = maps
    fam = conjugate_family(ratios, offsets, c)
    br = bracket_dimension(fam, make_mesh(fam.domain, h=h))
    assert br.certified
    assert _contains(br.s_lower, br.s_upper, moran_root(ratios))


def test_solver_economy_on_discretized_curve():
    fam = make_mobius_family([1, 2])
    mesh = make_mesh(fam.domain, n=200)
    f = lambda s: log_radius(fam, mesh, s, "B")
    root, evals = solve_root(f, (0.01, 1.5))
    assert evals <= 40
    assert 0.5 < root < 0.56


def test_eigenvector_second_difference_within_certified_bounds():
    # The certified ratio enclosure R_lo <= v''/v <= R_hi is visible in
    # the discrete eigenvector's second differences up to O(h) slack.
    fam = make_mobius_family([1, 2])
    s = 0.5
    mesh = make_mesh(fam.domain, n=2000)
    enc = power_enclosure(collocation_plan(fam, mesh).matrix(s), tol=1e-14)
    v = enc.eigvec
    h = mesh.h
    d2 = (v[:-2] - 2.0 * v[1:-1] + v[2:]) / (h * h * v[1:-1])
    r_lo, r_hi, _ = ratio_bounds(fam, s)
    # Third-derivative bound controls the finite-difference defect.
    m3 = mobius_ratio_bounds(1.0, 2.0, 1.0, s, 3).hi
    tau = 10.0 * h * m3
    assert np.all(d2 >= r_lo - tau)
    assert np.all(d2 <= r_hi + tau)
    # The observed ratios genuinely explore the interior of the bounds.
    assert d2.min() < r_hi
    assert d2.max() > r_lo
