import dataclasses
import math

import numpy as np
import pytest

from hausdim import (
    BadParams,
    BoundConstants,
    BoundPlan,
    MapSpec,
    MissingDerivatives,
    ParamOutOfRange,
    bound_M1,
    bound_M2,
    bracket_dimension,
    cantor_constants,
    error_model,
    general_constants,
    make_cantor_family,
    make_custom_family,
    make_mesh,
    make_mobius_family,
    mobius_ratio_bounds,
    ratio_bounds,
    refined_M2_upper,
)
from hausdim.bounds import cantor_g2_quotient, cantor_sign_threshold

from conftest import make_poly_family


def test_bound_m1_unit_case():
    assert bound_M1(1.0, 1.0, 0.5) == pytest.approx(2.0)
    assert bound_M1(0.5, 0.0, 0.25) == 0.0
    with pytest.raises(BadParams):
        bound_M1(1.0, 1.0, 1.2)
    with pytest.raises(BadParams):
        bound_M1(-1.0, 1.0, 0.5)


def test_bound_m2_unit_case():
    # (s K2 + 2 s C1 M1 kappa + M1 E2)/(1 - kappa^2)
    # = (1 + 2 + 2)/0.75 = 20/3 with all inputs 1 except M1=2, kappa=0.5.
    v = bound_M2(1.0, K2=1.0, C1=1.0, M1=2.0, E2=1.0, kappa=0.5)
    assert v == pytest.approx(20.0 / 3.0, rel=1e-12)
    with pytest.raises(BadParams):
        bound_M2(1.0, K2=1.0, C1=1.0, M1=1.0, E2=1.0, kappa=1.0)


def test_refined_m2_upper():
    assert refined_M2_upper(0.7, G2=0.0, C1=0.0, E2=0.0, kappa=0.5) == 0.0
    # kappa -> 0 limit is s*G2.
    v = refined_M2_upper(0.7, G2=2.0, C1=1.0, E2=1.0, kappa=1e-12)
    assert v == pytest.approx(0.7 * 2.0 + 0.7 * 1.0, rel=1e-9)
    # Recompute the closed form directly for a generic input.
    s, G2, C1, E2, kappa = 0.7, 1.3, 0.9, 0.4, 0.35
    direct = (s * G2 + 2 * s**2 * C1**2 * kappa / (1 - kappa)
              + s * C1 * E2 / (1 - kappa)) / (1 - kappa**2)
    assert refined_M2_upper(s, G2=G2, C1=C1, E2=E2,
                            kappa=kappa) == pytest.approx(direct, rel=1e-14)


def test_mobius_ratio_bounds_values():
    pair = mobius_ratio_bounds(1.0, 2.0, 1.0, 0.5, 1)
    assert pair.lo == pytest.approx(0.25)
    assert pair.hi == pytest.approx(1.0)
    pair2 = mobius_ratio_bounds(1.0, 2.0, 1.0, 0.5, 2)
    assert pair2.lo == pytest.approx(0.125)
    assert pair2.hi == pytest.approx(2.0)
    pair3 = mobius_ratio_bounds(1.0, 2.0, 1.0, 0.5, 3)
    # prod(2s, 2s+1, 2s+2) = 6 over gamma^3 = 1.
    assert pair3.hi == pytest.approx(6.0)
    with pytest.raises(BadParams):
        mobius_ratio_bounds(0.0, 2.0, 1.0, 0.5, 1)
    with pytest.raises(BadParams):
        mobius_ratio_bounds(1.0, 2.0, 1.0, 0.5, 0)


def test_mobius_ratio_bounds_ordering():
    for gamma, Gamma in ((1.0, 1.0), (1.0, 3.0), (2.0, 5.0)):
        for s in (0.3, 0.5, 1.0):
            for p in (1, 2, 3):
                pair = mobius_ratio_bounds(gamma, Gamma, 1.0 / gamma, s, p)
                assert 0.0 < pair.lo <= pair.hi


def test_cantor_sign_threshold():
    assert cantor_sign_threshold(1.0) == pytest.approx(0.4 * (1 - 3.0 / 7.0))
    # At a = 3/7 the threshold is zero: certificate holds for all s > 0.
    assert cantor_sign_threshold(3.0 / 7.0) == pytest.approx(0.0, abs=1e-15)


def test_cantor_constants_closed_forms():
    bc = cantor_constants(1.0, 0.5)
    assert bc.kappa == pytest.approx(0.9)
    # E2 = 5c/(6+4a) with c = 3.5a.
    assert bc.E2 == pytest.approx(3.5 * 5.0 / 10.0)
    # a > 3/7 branch: C1 = c (3/(7a))^0.6.
    assert bc.C1 == pytest.approx(3.5 * (3.0 / 7.0) ** 0.6)


def test_cantor_constants_affine_case():
    bc = cantor_constants(0.0, 0.6)
    assert bc.kappa == pytest.approx(1.0 / 3.0)
    assert bc.C1 == 0.0
    assert bc.R_lo == 0.0
    assert bc.R_hi == 0.0


def test_cantor_c1_branch_continuity():
    # Both closed-form branches agree at the switch point a = 3/7.
    a = 3.0 / 7.0
    c = 3.5 * a
    left = c * 2.5 / (1.0 + c)
    right = c * (3.0 / (7.0 * a)) ** 0.6
    assert abs(left - right) <= 1e-9
    eps = 1e-9
    lo = cantor_constants(a - eps, 0.5).C1
    hi = cantor_constants(a + eps, 0.5).C1
    assert abs(lo - hi) <= 1e-8


def test_cantor_sign_certificate_cases():
    # Above the sign threshold the enclosure is one-sided (R_lo = 0),
    # below it the symmetric pair (-M2, M2).
    assert cantor_constants(1.0, 0.3).R_lo == 0.0
    assert cantor_constants(0.0, 0.5).R_lo == 0.0
    bc2 = cantor_constants(1.0, 0.2)
    assert bc2.R_lo == -bc2.M2 < 0.0
    assert bc2.R_hi == bc2.M2
    # Certified constants give one-sided enclosure 0 <= R_lo <= R_hi.
    bc = cantor_constants(0.5, 0.8)
    assert bc.R_lo == 0.0
    assert bc.R_hi > 0.0
    # refined bound never exceeds the two-sided one (equal when q >= 0)
    assert bc.R_hi <= bc.M2 * (1 + 1e-12)


def _above_threshold(a):
    th = max(cantor_sign_threshold(a), 0.0)
    return [math.nextafter(th, math.inf)] + [
        s for s in (th + 1e-9, 0.05, 0.3, 0.5, 0.8, 1.0, 1.5) if s > th]


_K2_GRID = np.linspace(0.0, 1.0, 400001)


def _assert_k2_is_grid_max(a, s, signed):
    # The closed form evaluates q at its critical points, so it is never
    # below a grid maximum and only rounding above it.
    q = cantor_g2_quotient(a, s)(_K2_GRID)
    peak = float(np.max(q if signed else np.abs(q)))
    assert peak <= cantor_constants(a, s).K2 <= peak * (1.0 + 1e-10)


@pytest.mark.parametrize("a", [0.25, 0.5, 0.75, 1.0])
def test_cantor_k2_is_signed_maximum_above_threshold(a):
    # Above the threshold the quotient q is >= 0 on [0, 1], so max |q|,
    # which gives K2, is also the refined bound's max q.
    for s in _above_threshold(a):
        _assert_k2_is_grid_max(a, s, signed=True)


# a = 1e-200 puts c^2 below the smallest double; 0.1 and 0.2 lie below
# a = 1's threshold 0.229, and at s = 0.4 the quadratic in u degenerates
# to a linear one.
@pytest.mark.parametrize("a", [1e-200, 1e-9, 1.0 / 14.0, 3.0 / 7.0, 1.0])
@pytest.mark.parametrize("s", [1e-6, 0.1, 0.2, 0.4, 1.3, 64.0])
def test_cantor_k2_is_maximum_of_abs_quotient(a, s):
    _assert_k2_is_grid_max(a, s, signed=False)


def test_bound_constants_fields():
    assert [f.name for f in dataclasses.fields(BoundConstants)] == [
        "kappa", "C1", "E2", "K2", "M1", "M2", "R_lo", "R_hi"]


def test_general_constants_match_cantor_closed_forms():
    for a in (0.25, 0.75):
        s = 0.6
        closed = cantor_constants(a, s)
        brute = general_constants(make_cantor_family(a), s, safety=1.0)
        assert brute.kappa == pytest.approx(closed.kappa, rel=1e-12)
        assert brute.C1 == pytest.approx(closed.C1, rel=1e-6)
        assert brute.E2 == pytest.approx(closed.E2, rel=1e-6)


def test_general_constants_safety():
    fam = make_mobius_family([1, 2])
    plain = general_constants(fam, 0.5, safety=1.0)
    inflated = general_constants(fam, 0.5, safety=1.01)
    assert inflated.C1 == pytest.approx(1.01 * plain.C1, rel=1e-12)
    with pytest.raises(BadParams):
        general_constants(fam, 0.5, safety=0.9)


def test_mobius_sharp_bound_scaling():
    # hi = prod(2s..2s+1)/gamma^2 grows with s and shrinks with gamma.
    fam12 = make_mobius_family([1, 2])
    prev = 0.0
    for s in (0.3, 0.5, 0.8):
        _, hi, _ = ratio_bounds(fam12, s)
        assert hi == pytest.approx(2 * s * (2 * s + 1), rel=1e-12)
        assert hi > prev
        prev = hi
    _, hi23, _ = ratio_bounds(make_mobius_family([2, 3]), 0.5)
    assert hi23 == pytest.approx(2.0 / 4.0, rel=1e-12)


def test_second_ratio_bounds_dispatch(poly_fam):
    lo, hi, _ = ratio_bounds(make_mobius_family([1, 2]), 0.5)
    assert lo == pytest.approx(0.125)
    assert hi == pytest.approx(2.0)
    lo0, hi0, _ = ratio_bounds(make_cantor_family(0.0), 0.6)
    assert (lo0, hi0) == (0.0, 0.0)
    lo1, hi1, _ = ratio_bounds(make_cantor_family(0.5), 0.8)
    assert lo1 == 0.0
    assert hi1 > 0.0
    loc, hic, _ = ratio_bounds(poly_fam, 0.8)
    assert loc == pytest.approx(-hic)
    assert hic > 0.0


def test_osc_rate_dispatch(poly_fam):
    assert ratio_bounds(make_mobius_family([1, 2]), 0.5)[2] == pytest.approx(1.0)
    assert ratio_bounds(make_mobius_family([2, 3]), 0.7)[2] == pytest.approx(0.7)
    assert ratio_bounds(make_cantor_family(0.0), 0.6)[2] == 0.0
    bc = general_constants(poly_fam, 0.8)
    assert ratio_bounds(poly_fam, 0.8)[2] == pytest.approx(bc.M1, rel=1e-12)


def test_ratio_bounds_routes(poly_fam):
    # Each family kind takes exactly one route to its constants.
    pair = mobius_ratio_bounds(2.0, 5.0, 0.5, 0.6, 2)
    assert ratio_bounds(make_mobius_family([2, 5]), 0.6) == (
        pair.lo, pair.hi, 2.0 * 0.6 / 2.0)
    for a, s in ((0.5, 0.8), (1.0, 0.2)):
        c = cantor_constants(a, s)
        assert ratio_bounds(make_cantor_family(a), s) == (c.R_lo, c.R_hi, c.M1)
    c = general_constants(poly_fam, 0.8)
    assert ratio_bounds(poly_fam, 0.8) == (-c.M2, c.M2, c.M1)


def test_general_constants_needs_derivatives():
    lin = MapSpec(label="lin", eval=lambda x: 0.25 * np.asarray(x, float),
                  d1=lambda x: np.full_like(np.asarray(x, float), 0.25),
                  log_weight=lambda x: np.full_like(np.asarray(x, float),
                                                    np.log(0.25)),
                  d1_sup=0.25)
    fam = make_custom_family([lin], (0.0, 1.0))
    with pytest.raises(MissingDerivatives,
                       match="'lin' lacks d2, weight_r1, weight_r2$"):
        general_constants(fam, 0.5)
    no_r2 = make_custom_family(
        [dataclasses.replace(spec, weight_r2=None)
         for spec in make_poly_family().maps], (0.0, 1.0))
    with pytest.raises(MissingDerivatives,
                       match="'poly-left' lacks weight_r2$"):
        ratio_bounds(no_r2, 0.5)


def test_c3_data_suffice_for_a_custom_bracket(poly_fam):
    # The bound layer reads theta up to theta''' (d1, d2, g'/g, g''/g):
    # without d3 and weight_r3 every constant and the bracket are
    # bit-identical.
    c3 = make_custom_family(
        [dataclasses.replace(spec, d3=None, weight_r3=None)
         for spec in poly_fam.maps], poly_fam.domain, label="poly-c3")
    assert general_constants(c3, 0.8) == general_constants(poly_fam, 0.8)
    mesh = make_mesh(poly_fam.domain, h=0.01)
    full = bracket_dimension(poly_fam, mesh)
    only_c3 = bracket_dimension(c3, mesh)
    assert only_c3.certified
    assert (only_c3.s_lower.hex(), only_c3.s_upper.hex()) == \
        (full.s_lower.hex(), full.s_upper.hex())


def test_ratio_bounds_rejects_another_familys_plan(poly_fam):
    plan = BoundPlan(make_poly_family())
    with pytest.raises(BadParams, match="another family"):
        ratio_bounds(poly_fam, 0.8, plan)
    assert ratio_bounds(poly_fam, 0.8, BoundPlan(poly_fam)) == \
        ratio_bounds(poly_fam, 0.8)


def test_bound_constants_internal_consistency(poly_fam):
    for fam in (make_mobius_family([1, 2]), make_cantor_family(0.5),
                poly_fam):
        for s in (0.5, 0.8):
            lo, hi, osc = ratio_bounds(fam, s)
            assert lo <= hi
            assert osc >= 0.0


@pytest.mark.parametrize("call", [
    lambda fam: bound_M1(math.nan, 1.0, 0.5),
    lambda fam: mobius_ratio_bounds(1.0, 2.0, 1.0, math.nan, 2),
    lambda fam: cantor_constants(0.5, math.nan),
    lambda fam: general_constants(fam, math.nan),
    lambda fam: general_constants(fam, 0.5, safety=math.nan),
], ids=["bound_M1", "mobius_ratio_bounds", "cantor_constants",
        "general_constants_s", "general_constants_safety"])
def test_nan_parameters_rejected(poly_fam, call):
    with pytest.raises(BadParams):
        call(poly_fam)


def _nan_weight_family(field="weight_r2"):
    """poly_fam whose derivative data `field` returns NaN on (0.5, 1]."""
    fam = make_poly_family()
    good = getattr(fam.maps[0], field)

    def bad(x):
        x = np.asarray(x, dtype=float)
        return np.where(x > 0.5, math.nan, good(x))

    maps = [dataclasses.replace(spec, **{field: bad}) for spec in fam.maps]
    return make_custom_family(maps, fam.domain, label="poly-nan")


_NAN_CALLS = {
    "general_constants": lambda fam: general_constants(fam, 0.8),
    "ratio_bounds": lambda fam: ratio_bounds(fam, 0.8),
    "error_model": lambda fam: error_model(fam, 0.8, 0.01),
    "bracket_dimension": lambda fam: bracket_dimension(
        fam, make_mesh(fam.domain, h=0.01)),
}


@pytest.mark.parametrize("name,field", [
    pytest.param(name, "weight_r2", id=name) for name in _NAN_CALLS
] + [
    # NaN in the other chain inputs the custom route reads.
    pytest.param(name, field, id=f"{name}-{field}")
    for field in ("weight_r1", "d2")
    for name in ("ratio_bounds", "error_model", "bracket_dimension")
])
def test_nan_derivative_data_rejected(name, field):
    with pytest.raises(ParamOutOfRange, match="word"):
        _NAN_CALLS[name](_nan_weight_family(field))
