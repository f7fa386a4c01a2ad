"""Brackets and degree-6 estimates against independent dimension values.

For the maps x -> 1/(b + x), det(I - L_s) is entire and its power series
comes from periodic points (Jenkinson-Pollicott, ETDS 2001 and Adv.
Math. 2018).  The values below were computed that way in mpmath at 40
digits (words up to length 12-14); they share nothing with the
collocation pipeline, so they check brackets and estimates from outside
it.  They are pinned as strings: a float would round them.
orbit_oracle.py recomputes them; one test does so for {1, 2}.
"""

import mpmath
import pytest

from hausdim import (
    bracket_dimension,
    highorder_dimension,
    make_mesh,
    make_mobius_family,
)
from orbit_oracle import orbit_dimension

ORBIT_VALUES = {
    (1, 2): "0.531280506277205141624468647368",
    (1, 3): "0.4544890776618287438457776",
    (2, 3): "0.3374367808060636363044949",
    (1, 2, 3): "0.7056609080287382306068226",
    (1, 4): "0.4111827247747917768448061",
    (2, 4): "0.3063127680527840302779083",
    (10, 11): "0.1469212353907834633111086",
}

# A degree-d estimate solves |log |lambda(s)|| <= root_tol (1e-12) with
# |lambda| settled to radius_tol (1e-13) per power step, so it sits
# within root_tol + 10 radius_tol of the discrete root in log |lambda|,
# and every digit set here has |d log |lambda| / ds| >= 1.26.  At degree
# 6 and h = 0.002 the discretization error is far smaller.  The same
# bound as the benchmark's oracle for estimates.
HO_TOL = 2e-12
DIGIT_SETS = sorted(ORBIT_VALUES)
IDS = ["cf" + ",".join(map(str, digits)) for digits in DIGIT_SETS]


def _exact(digits):
    return mpmath.mpf(ORBIT_VALUES[digits])


@pytest.mark.parametrize("h", [0.05, 0.01, 1e-3])
@pytest.mark.parametrize("digits", DIGIT_SETS, ids=IDS)
def test_bracket_contains_orbit_value(digits, h):
    fam = make_mobius_family(list(digits))
    br = bracket_dimension(fam, make_mesh(fam.domain, h=h))
    assert br.certified
    with mpmath.workdps(40):
        assert mpmath.mpf(br.s_lower) <= _exact(digits) <= \
            mpmath.mpf(br.s_upper)


@pytest.mark.parametrize("digits", DIGIT_SETS, ids=IDS)
def test_degree6_estimate_meets_orbit_value(digits):
    fam = make_mobius_family(list(digits))
    res = highorder_dimension(fam, make_mesh(fam.domain, h=0.002), 6)
    with mpmath.workdps(40):
        assert abs(mpmath.mpf(res.s) - _exact(digits)) <= HO_TOL


def test_orbit_sum_recomputes_the_pinned_value():
    # Words of length 10 leave {1, 2} about 1.6e-25 off (length 8:
    # 3.2e-17), so the pinned string and the helper check each other.
    with mpmath.workdps(40):
        got = orbit_dimension((1, 2), 10, (0.5, 0.6))
        assert abs(got - _exact((1, 2))) <= mpmath.mpf("1e-24")


PAIRS = [(a, b) for a in range(1, 9) for b in range(a + 1, 9)]


@pytest.mark.parametrize("digits", PAIRS,
                         ids=["cf%d,%d" % pair for pair in PAIRS])
def test_two_digit_brackets_contain_orbit_sum(digits):
    # Every two-digit set {a, b} in 1..8, not a random sample: brackets at
    # h = 0.05 and 0.01 contain the orbit sum at word length 8 (for
    # {1, 2} and {1, 3} within 3.4e-17 of length 10).  The root solve
    # only needs a sign change, so the two brackets' hull, widened by
    # 1e-3, serves as its bracket.
    fam = make_mobius_family(list(digits))
    brackets = [bracket_dimension(fam, make_mesh(fam.domain, h=h))
                for h in (0.05, 0.01)]
    hull = (min(br.s_lower for br in brackets) - 1e-3,
            max(br.s_upper for br in brackets) + 1e-3)
    with mpmath.workdps(40):
        exact = orbit_dimension(digits, 8, hull)
        for br in brackets:
            assert br.certified
            assert mpmath.mpf(br.s_lower) <= exact <= mpmath.mpf(br.s_upper)
