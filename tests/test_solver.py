import math
from unittest import mock

import numpy as np
import pytest

from hausdim import (
    BadParams,
    MapSpec,
    NoSignChange,
    assemble,
    bracket_dimension,
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
    solve_root,
)
from hausdim.bounds import bound_M3, mobius_ratio_bounds
from hausdim.discretize import CollocationPlan

LOG2_3 = math.log(2.0) / math.log(3.0)


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


def test_solve_root_hard_curve_stays_bracketed():
    # Steep curve with a root near the left end.
    f = lambda s: 1.0 / s - 20.0
    root, evals = solve_root(f, (0.01, 1.0))
    assert root == pytest.approx(0.05, rel=1e-9)
    assert evals <= 40


@pytest.mark.parametrize("root_tol", [0.0, -1e-12, math.nan, math.inf])
def test_solve_root_rejects_bad_tolerance(root_tol):
    f = lambda s: math.log(2.0) - s * math.log(3.0)
    with pytest.raises(BadParams):
        solve_root(f, (0.4, 0.9), root_tol)


def test_callers_reject_bad_root_tolerance_before_any_matrix(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("matrix built")

    monkeypatch.setattr(CollocationPlan, "data", fail)
    fam = make_mobius_family([1, 2])
    mesh = make_mesh(fam.domain, h=0.01)
    with pytest.raises(BadParams):
        bracket_dimension(fam, mesh, root_tol=-1e-12)
    with pytest.raises(BadParams):
        convergence_study(fam, [0.02, 0.01], root_tol=0.0)
    with pytest.raises(BadParams):
        highorder_dimension(fam, mesh, 2, root_tol=math.nan)


def test_bracket_dimension_affine_cantor():
    fam = make_cantor_family(0.0)
    mesh = make_mesh(fam.domain, n=500)
    br = bracket_dimension(fam, mesh)
    assert br.certified
    assert br.s_lower <= LOG2_3 <= br.s_upper
    assert br.width <= 1e-10
    assert br.family_id == fam.family_id
    assert br.mesh_h == mesh.h


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
    from hausdim import reduce_domain

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
        assert lo <= LOG2_3 <= up
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
    # Within one bracket the root solves and the nudge passes revisit s
    # values; every (s, matrix) pair is built once and evals counts them.
    # A and B at a shared s also share one error model.
    import hausdim.solver as solver

    built, modelled = [], []
    data = CollocationPlan.data
    model = solver.error_model

    def counting(self, s, coef=None):
        built.append((s, coef))
        return data(self, s, coef)

    def counting_model(fam, s, h, bound_plan=None):
        modelled.append(s)
        return model(fam, s, h, bound_plan)

    monkeypatch.setattr(CollocationPlan, "data", counting)
    monkeypatch.setattr(solver, "error_model", counting_model)
    fam = make_mobius_family([1, 2])
    br = bracket_dimension(fam, make_mesh(fam.domain, n=80))
    assert len(built) == len(set(built)) == br.evals > 0
    assert sorted(modelled) == sorted({s for s, _ in built})


@pytest.mark.parametrize("case,before_its,before_evals", [
    ("cf12_n200", 430, 16),
    ("cantor05_h1e-3", 1030, 18),
])
def test_bracket_power_iteration_budget(monkeypatch, case, before_its,
                                        before_evals):
    """Warm starts and sign-sufficient stops cut the power iterations.

    Before them every solve started from all-ones and ran to the 1e-13
    gap: cf{1,2} at n = 200 took 430 iterations over 16 solves and
    Cantor a = 0.5 at h = 1e-3 took 1030 over 18.  A bracket must now
    take at most half of that, and build no more matrices.
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
    }[case]()
    br = bracket_dimension(fam, mesh)
    assert br.certified
    assert len(iterations) == br.evals <= before_evals
    assert sum(iterations) <= before_its // 2


def test_bracket_builds_bound_plan_once(poly_fam):
    # The word chains do not depend on s: one bracket samples each word on
    # the 2049-point grid once, and computes no (word, grid) chain twice
    # across the s values its root solves visit.
    import hausdim.bounds as bounds

    with mock.patch.object(bounds, "_word_chain",
                           wraps=bounds._word_chain) as chain:
        br = bracket_dimension(poly_fam, make_mesh(poly_fam.domain, h=0.01))
    assert br.certified
    calls = [(c.args[1], c.args[2]) for c in chain.call_args_list]
    on_grid = [word for word, xs in calls if xs.size == 2049]
    assert len(on_grid) == poly_fam.n_maps ** poly_fam.mu
    grids = [(word, xs.tobytes()) for word, xs in calls]
    assert len(grids) == len(set(grids))


def _affine_pair(ratio):
    """x -> r x and x -> r x + 1 - r on [0, 1], with the default label."""
    def const(value):
        return lambda x: np.full_like(np.asarray(x, dtype=float), value)

    def spec(offset, label):
        return MapSpec(label=label,
                       eval=lambda x: ratio * np.asarray(x, dtype=float) + offset,
                       d1=const(ratio), d2=const(0.0), d3=const(0.0),
                       log_weight=const(math.log(ratio)), weight_r1=const(0.0),
                       weight_r2=const(0.0), weight_r3=const(0.0),
                       d1_sup=ratio)

    return make_custom_family([spec(0.0, "left"), spec(1.0 - ratio, "right")],
                              (0.0, 1.0))


def test_brackets_of_same_label_families_stay_independent():
    # Two custom families share the default label, domain and mesh; the
    # second bracket must come from its own matrices.
    mesh = make_mesh((0.0, 1.0), h=1e-2)
    first = bracket_dimension(_affine_pair(1.0 / 3.0), mesh)
    assert first.s_lower <= LOG2_3 <= first.s_upper
    second = bracket_dimension(_affine_pair(0.25), mesh)
    assert second.evals > 0
    assert second.s_lower <= 0.5 <= second.s_upper


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
    triple = assemble(fam, mesh, s)
    enc = power_enclosure(triple.M, tol=1e-14)
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


def test_bound_m3_consistency_with_sharp_pair():
    # Generic chained third bound stays finite and above the sharp one
    # for the [1,2] family at s = 0.5.
    from hausdim import general_constants

    fam = make_mobius_family([1, 2])
    bc = general_constants(fam, 0.5, safety=1.0)
    sharp = mobius_ratio_bounds(1.0, 2.0, 1.0, 0.5, 3)
    assert math.isfinite(bc.M3)
    assert bc.M3 > 0.0
    assert sharp.lo <= sharp.hi
    recomputed = bound_M3(0.5, K3=bc.K3, K2=bc.K2, C1=bc.C1, M1=bc.M1,
                          M2=bc.M2, E2=bc.E2, E3=bc.E3, kappa=bc.kappa)
    assert recomputed == pytest.approx(bc.M3, rel=1e-12)
