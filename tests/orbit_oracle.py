"""Dimension of a continued-fraction digit set from its periodic orbits.

For the maps theta_b(x) = 1/(b + x), b in a finite digit set, the
determinant det(I - z L_s) is entire in z, and (Jenkinson and
Pollicott, "Computing the dimension of dynamically defined sets: E_2
and bounded continued fractions", ETDS 2001)

    det(I - z L_s) = exp(-sum_{n >= 1} z^n tr(L_s^n) / n),
    tr(L_s^n) = sum over words w of length n of
                |theta_w'(x_w)|^s / (1 - theta_w'(x_w)),

where theta_w = theta_{b_1} o ... o theta_{b_n} and x_w is its fixed
point.  theta_w is the Mobius map of the integer matrix
[[0, 1], [1, b_1]] ... [[0, 1], [1, b_n]] = [[p, q], [r, t]], so x_w is
the positive root of r x^2 + (t - p) x - q = 0, and
theta_w'(x_w) = (-1)^n / (r x_w + t)^2.  The dimension is the zero in s
of the determinant at z = 1; its power-series coefficients decay
super-exponentially, so the series cut after z^N already pins it
closely (N = 10 gives {1, 2} to about 2e-25).

Nothing here is shared with the collocation pipeline: words, fixed
points and the root are computed in mpmath from the digits alone.
"""

import mpmath


def _orbit_terms(digits, length):
    """Per word length n: (log(r x_w + t), 1/(1 - theta_w'(x_w))) by word."""
    terms = []
    level = [(1, 0, 0, 1)]  # (p, q, r, t) of the empty word
    for n in range(1, length + 1):
        level = [(q, p + b * q, t, r + b * t)
                 for p, q, r, t in level for b in digits]
        row = []
        for p, q, r, t in level:
            x = (p - t + mpmath.sqrt((t - p) ** 2 + 4 * q * r)) / (2 * r)
            scale = r * x + t
            row.append((mpmath.log(scale),
                        1 / (1 - (-1) ** n / scale ** 2)))
        terms.append(row)
    return terms


def orbit_dimension(digits, length, bracket, dps=40):
    """Root in bracket of det(I - L_s) cut after words of this length.

    The determinant must change sign over bracket; the root is found by
    mpmath's bracketing Anderson-Bjorck solver at dps digits.
    """
    with mpmath.workdps(dps):
        terms = _orbit_terms(tuple(digits), length)

        def det(s):
            traces = [mpmath.fsum(c * mpmath.exp(-2 * s * lg) for lg, c in row)
                      for row in terms]
            coef = [mpmath.mpf(1)]
            for k in range(1, length + 1):
                coef.append(-mpmath.fsum(traces[j - 1] * coef[k - j]
                                         for j in range(1, k + 1)) / k)
            return mpmath.fsum(coef)

        return +mpmath.findroot(det, tuple(map(mpmath.mpf, bracket)),
                                solver="anderson")
