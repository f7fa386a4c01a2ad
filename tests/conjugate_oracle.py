"""Nonlinear maps with an exact dimension: Mobius conjugates of affine maps.

With f_i(x) = r_i x + t_i mapping [0, 1] into itself and
phi_c(x) = (1 + c) x / (1 + c x), a bijection of [0, 1] for c > -1, the
maps theta_i = phi_c o f_i o phi_c^-1 are not affine (for c != 0), yet
their transfer operator L_s g = sum |theta_i'|^s g o theta_i has the
positive eigenfunction |(phi_c^-1)'|^s with eigenvalue exactly
lambda_s = sum r_i^s at every s.  Where the f_i([0, 1]) do not overlap,
the dimension is the Moran root of sum r_i^s = 1.

Every theta_i is Mobius, x -> (alpha x + beta) / (gamma x + delta), with
[[alpha, beta], [gamma, delta]] the product
[[1 + c, 0], [c, 1]] . [[r_i, t_i], [0, 1]] . [[1, 0], [-c, 1 + c]].
With Delta = alpha delta - beta gamma and u = gamma x + delta,
theta' = Delta / u^2, theta'' = -2 gamma Delta / u^3 and
theta''' = 6 gamma^2 Delta / u^4, and the weight g = |theta'| has
log g = log |Delta| - 2 log |u|, g'/g = -2 gamma / u and
g''/g = 6 gamma^2 / u^2: every MapSpec field in closed form.
"""

import mpmath
import numpy as np

from hausdim import MapSpec, make_custom_family

EXACT_DIGITS = 40


def _coefficients(ratio, offset, c):
    """(alpha, beta, gamma, delta) of phi_c o f o phi_c^-1."""
    phi = np.array([[1.0 + c, 0.0], [c, 1.0]])
    f = np.array([[ratio, offset], [0.0, 1.0]])
    phi_inv = np.array([[1.0, 0.0], [-c, 1.0 + c]])
    (alpha, beta), (gamma, delta) = phi @ f @ phi_inv
    return float(alpha), float(beta), float(gamma), float(delta)


def conjugate_spec(ratio, offset, c, label):
    """MapSpec of phi_c o (x -> ratio x + offset) o phi_c^-1 on [0, 1]."""
    alpha, beta, gamma, delta = _coefficients(ratio, offset, c)
    det = alpha * delta - beta * gamma

    def u(x):
        return gamma * np.asarray(x, dtype=float) + delta

    # u is linear and of one sign on [0, 1], so |theta'| peaks at an end.
    d1_sup = max(abs(det) / u(0.0) ** 2, abs(det) / u(1.0) ** 2)
    return MapSpec(
        label=label,
        eval=lambda x: (alpha * np.asarray(x, dtype=float) + beta) / u(x),
        d1=lambda x: det / u(x) ** 2,
        d2=lambda x: -2.0 * gamma * det / u(x) ** 3,
        d3=lambda x: 6.0 * gamma ** 2 * det / u(x) ** 4,
        log_weight=lambda x: np.log(abs(det)) - 2.0 * np.log(np.abs(u(x))),
        weight_r1=lambda x: -2.0 * gamma / u(x),
        weight_r2=lambda x: 6.0 * gamma ** 2 / u(x) ** 2,
        d1_sup=float(d1_sup))


def conjugate_family(ratios, offsets, c):
    """The custom family of the theta_i on [0, 1]."""
    maps = [conjugate_spec(r, t, c, f"conj-{j}")
            for j, (r, t) in enumerate(zip(ratios, offsets))]
    return make_custom_family(maps, (0.0, 1.0),
                              label=f"conj{c}:{ratios}:{offsets}")


def exact_eigenvalue(ratios, s):
    """lambda_s = sum r_i^s, the transfer operator's eigenvalue, in mpmath."""
    with mpmath.workdps(EXACT_DIGITS):
        return mpmath.fsum(mpmath.mpf(r) ** mpmath.mpf(s) for r in ratios)


def moran_root(ratios):
    """Root of sum r_i^s = 1 to 40 digits."""
    with mpmath.workdps(EXACT_DIGITS):
        rs = [mpmath.mpf(r) for r in ratios]
        return +mpmath.findroot(
            lambda s: mpmath.log(mpmath.fsum(r ** s for r in rs)),
            (mpmath.mpf(0), mpmath.mpf(1)), solver="anderson")
