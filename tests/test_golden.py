"""Bit-exact pins on bracket endpoints and degree-d estimates.

The values were recorded with float.hex() before the collocation
matrices were rebuilt from an s-independent plan.  Entry order, the
accumulation order of coincident entries and the weight products are
all visible here, so any change to that arithmetic fails these tests.
"""

import pytest

from hausdim import (
    bracket_dimension,
    highorder_dimension,
    make_cantor_family,
    make_mesh,
    make_mobius_family,
    reduce_domain,
)

from conftest import make_poly_family


def _cases():
    cf12 = make_mobius_family([1, 2])
    poly = make_poly_family()
    return {
        "cf12_n200": (cf12, make_mesh(cf12.domain, n=200)),
        "cantor05_h1e-3": (make_cantor_family(0.5),
                           make_mesh((0.0, 1.0), h=1e-3)),
        "poly_h1e-2": (poly, make_mesh(poly.domain, h=1e-2)),
        "cf12_reduced2_h005": (cf12, make_mesh(reduce_domain(cf12, 2),
                                               h=0.005)),
    }


BRACKETS = {
    "cf12_n200": ("0x1.100399d8e7822p-1", "0x1.10040eabf3360p-1"),
    "cantor05_h1e-3": ("0x1.7789c2718f188p-1", "0x1.778a13efd7459p-1"),
    "poly_h1e-2": ("0x1.1edee1a88e4a8p-1", "0x1.1ee1217dc8b51p-1"),
    "cf12_reduced2_h005": ("0x1.10039c00668d9p-1", "0x1.10040e418b63bp-1"),
}


@pytest.mark.parametrize("name", sorted(BRACKETS))
def test_bracket_endpoints_bit_exact(name):
    fam, mesh = _cases()[name]
    br = bracket_dimension(fam, mesh)
    assert br.certified
    assert (br.s_lower.hex(), br.s_upper.hex()) == BRACKETS[name]


@pytest.mark.parametrize("degree,h,expect", [
    (4, 0.04, "0x1.1003ff9eee1f3p-1"),
    (1, 0.01, "0x1.10045305ee0bep-1"),
])
def test_highorder_estimate_bit_exact(degree, h, expect):
    fam = make_mobius_family([1, 2])
    res = highorder_dimension(fam, make_mesh(fam.domain, h=h), degree)
    assert res.s.hex() == expect
