"""Brackets and enclosures on nonlinear maps with an exact dimension.

The maps theta_i = phi_c o f_i o phi_c^-1 of conjugate_oracle.py are
Mobius, not affine, but their transfer operator has the eigenvalue
lambda_s = sum r_i^s exactly, so the dimension is the Moran root of the
affine f_i, known to 40 digits in mpmath.  These check the certified
pipeline, custom bound route included, against exact values away from
the affine families, and r(A_s) <= lambda_s <= r(B_s) away from the
root.
"""

import mpmath
import numpy as np
import pytest

from hausdim import bracket_dimension, enclosure_at, make_mesh
from conjugate_oracle import (
    conjugate_family,
    conjugate_spec,
    exact_eigenvalue,
    moran_root,
)

# (ratios, offsets) of the affine maps f_i(x) = r_i x + t_i; the images
# f_i([0, 1]) do not overlap.
CASES = [((1 / 3, 1 / 2), (0.0, 0.5)),
         ((0.25, 0.3, 0.2), (0.0, 0.35, 0.8))]
CONJUGATIONS = (0.5, 1.0)


@pytest.mark.parametrize("c", CONJUGATIONS)
def test_conjugate_spec_is_the_conjugated_affine_map(c):
    xs = np.linspace(0.0, 1.0, 101)
    ys = xs / (1.0 + c - c * xs)  # phi_c^-1
    ys = 0.3 * ys + 0.35
    want = (1.0 + c) * ys / (1.0 + c * ys)  # phi_c
    spec = conjugate_spec(0.3, 0.35, c, "conj")
    np.testing.assert_allclose(spec.eval(xs), want, rtol=1e-14, atol=1e-15)
    step = 1e-6
    slope = (spec.eval(xs + step) - spec.eval(xs - step)) / (2.0 * step)
    np.testing.assert_allclose(spec.d1(xs), slope, rtol=1e-8)
    np.testing.assert_allclose(spec.log_weight(xs), np.log(spec.d1(xs)),
                               rtol=1e-14, atol=1e-14)
    np.testing.assert_allclose(spec.weight_r1(xs), spec.d2(xs) / spec.d1(xs),
                               rtol=1e-13)


@pytest.mark.parametrize("ratios, offsets", CASES)
@pytest.mark.parametrize("c", CONJUGATIONS)
@pytest.mark.parametrize("h", [1e-2, 1e-3, 1e-4])
def test_bracket_contains_the_exact_dimension(ratios, offsets, c, h):
    fam = conjugate_family(ratios, offsets, c)
    br = bracket_dimension(fam, make_mesh(fam.domain, h=h))
    assert br.certified
    assert mpmath.mpf(br.s_lower) <= moran_root(ratios) <= \
        mpmath.mpf(br.s_upper)


@pytest.mark.parametrize("ratios, offsets", CASES)
@pytest.mark.parametrize("c", CONJUGATIONS)
@pytest.mark.parametrize("n", [50, 150])
def test_enclosures_contain_the_exact_eigenvalue(ratios, offsets, c, n):
    # r(A_s) <= lambda_s <= r(B_s); the enclosures are tight enough that
    # r_hi(A_s) <= lambda_s <= r_lo(B_s) holds too, compared in mpmath.
    fam = conjugate_family(ratios, offsets, c)
    mesh = make_mesh(fam.domain, n=n)
    for s in (0.4, 0.6, 0.8):
        lam = exact_eigenvalue(ratios, s)
        assert mpmath.mpf(enclosure_at(fam, mesh, s, "A").r_hi) <= lam
        assert lam <= mpmath.mpf(enclosure_at(fam, mesh, s, "B").r_lo)
