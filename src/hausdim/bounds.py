"""Certified bounds on eigenfunction derivative ratios.

The transfer operator's positive eigenfunction v satisfies bounds of the
form R_lo <= v''/v <= R_hi and |v'|/v <= osc, with constants built from
suprema of the map and weight derivatives over words of the contraction
length mu.  Three routes are implemented:

* sharp digit-family bounds from continuant estimates (any ratio order p),
* a generic three-stage chain M1, M2, M3 valid for any C^3 family,
* a refined one-sided bound 0 <= v''/v <= R_hi, which needs the sign
  conditions (theta', theta'', g', g'' >= 0 and g'' g - (1-s) g'^2 >= 0).
  Only the perturbed Cantor family takes it: cantor_constants decides the
  conditions exactly (s above cantor_sign_threshold(a)), and there the
  signed quotient is nonnegative, so its maximum G2 equals K2.

The perturbed Cantor family has closed forms for its constants; those are
cross-checked against the sampled suprema of general_constants in the
test suite.
ratio_bounds picks the route for a family and is the one place that does.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadParams,
    MissingDerivatives,
    ParamOutOfRange,
    SignNotCertified,
)
from .ifs import CANTOR, MOBIUS, MapFamily, contraction_data


@dataclass(frozen=True)
class RatioBoundPair:
    """Two-sided bound on (-1)^p v^(p) / v at derivative order p."""

    lo: float
    hi: float


@dataclass(frozen=True)
class BoundConstants:
    """Constants controlling the eigenfunction of one family at one s.

    Words of the contraction length contract by kappa.  C1/C2 bound
    |g_w^(k)|/g_w, E2/E3 bound |theta_w^(k)|, K2/K3 the mixed quotients
    entering the chain.  M1..M3 bound |v'|/v, |v''|/v, |v'''|/v.
    (R_lo, R_hi) enclose v''/v: (0, refined bound) on the Cantor route
    above its sign threshold, where the refined bound reads K2 as G2, and
    (-M2, M2) everywhere else.
    """

    kappa: float
    C1: float
    C2: float
    E2: float
    E3: float
    K2: float
    K3: float
    M1: float
    M2: float
    M3: float
    R_lo: float
    R_hi: float


# ---------------------------------------------------------------------------
# formula layer


def bound_M1(s: float, C1: float, kappa: float) -> float:
    """First ratio bound |v'|/v <= s*C1/(1-kappa)."""
    if not 0.0 < kappa < 1.0:
        raise BadParams(f"kappa must lie in (0,1), got {kappa}")
    if not s > 0.0 or C1 < 0.0:
        raise BadParams("need s > 0 and C1 >= 0")
    return s * C1 / (1.0 - kappa)


def bound_M2(s: float, *, K2: float, C1: float, M1: float, E2: float,
             kappa: float) -> float:
    """Second ratio bound |v''|/v <= (s K2 + 2 s C1 M1 kappa + M1 E2)/(1-kappa^2)."""
    if not 0.0 < kappa < 1.0:
        raise BadParams(f"kappa must lie in (0,1), got {kappa}")
    return (s * K2 + 2.0 * s * C1 * M1 * kappa + M1 * E2) / (1.0 - kappa**2)


def bound_M3(s: float, *, K3: float, K2: float, C1: float, M1: float,
             M2: float, E2: float, E3: float, kappa: float) -> float:
    """Third ratio bound from the chained estimate.

    |v'''|/v <= (s K3 + 3 s K2 M1 kappa + 3 s C1 (M2 kappa^2 + M1 E2)
                 + 3 M2 kappa E2 + M1 E3) / (1 - kappa^3).
    """
    if not 0.0 < kappa < 1.0:
        raise BadParams(f"kappa must lie in (0,1), got {kappa}")
    num = (s * K3 + 3.0 * s * K2 * M1 * kappa
           + 3.0 * s * C1 * (M2 * kappa**2 + M1 * E2)
           + 3.0 * M2 * kappa * E2 + M1 * E3)
    return num / (1.0 - kappa**3)


def refined_M2_upper(s: float, *, G2: float, C1: float, E2: float,
                     kappa: float, sign_cert: bool) -> float:
    """One-sided bound v''/v <= ... valid only under the sign certificate."""
    if not sign_cert:
        raise SignNotCertified("refined second-ratio bound needs the sign conditions")
    if not 0.0 < kappa < 1.0:
        raise BadParams(f"kappa must lie in (0,1), got {kappa}")
    num = (s * G2 + 2.0 * s**2 * C1**2 * kappa / (1.0 - kappa)
           + s * C1 * E2 / (1.0 - kappa))
    return num / (1.0 - kappa**2)


def mobius_ratio_bounds(gamma: float, Gamma: float, A_right: float,
                        s: float, p: int) -> RatioBoundPair:
    """Sharp digit-family bounds on (-1)^p v^(p)/v at order p.

    prod(2s..2s+p-1) * (K + A_right)^-p <= (-1)^p v^(p)/v <= prod * gamma^-p
    with K = 1/gamma + Gamma.
    """
    if not (0 < gamma <= Gamma):
        raise BadParams(f"need 0 < gamma <= Gamma, got {gamma}, {Gamma}")
    if not s > 0.0 or p < 1 or A_right < 0.0:
        raise BadParams("need s > 0, p >= 1, A_right >= 0")
    prod = 1.0
    for i in range(p):
        prod *= 2.0 * s + i
    K = 1.0 / gamma + Gamma
    return RatioBoundPair(prod * (K + A_right) ** -p, prod * gamma ** -p)


# ---------------------------------------------------------------------------
# golden-section maximization (1-D, seeded)

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_GOLDEN_SEEDS = 64
_GOLDEN_TOL = 1e-12


def golden_max(f, lo: float, hi: float) -> float:
    """Maximum of f on [lo, hi]: 64 seeds bracket it, golden-section to 1e-12."""
    xs = np.linspace(lo, hi, _GOLDEN_SEEDS + 1)
    vals = np.asarray(f(xs), dtype=float)
    i = int(np.argmax(vals))
    best = float(vals[i])
    a = xs[max(i - 1, 0)]
    b = xs[min(i + 1, _GOLDEN_SEEDS)]
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc = float(f(c))
    fd = float(f(d))
    while b - a > _GOLDEN_TOL:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = float(f(c))
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = float(f(d))
    return max(best, fc, fd)


# ---------------------------------------------------------------------------
# perturbed Cantor closed forms


def cantor_sign_threshold(a: float) -> float:
    """The Cantor sign conditions hold exactly for s above this (a > 0)."""
    return 0.4 * (1.0 - 3.0 / (7.0 * a))


def cantor_g2_quotient(a: float, s: float):
    """Signed quotient (g'' g - (1-s) g'^2)/g^2 for the Cantor weight."""
    c = 3.5 * a

    def q(x):
        x = np.asarray(x, dtype=float)
        u = c * x**2.5
        return 2.5 * c * np.sqrt(x) * (1.5 + u * (2.5 * s - 1.0)) / (1.0 + u) ** 2

    return q


def cantor_constants(a: float, s: float) -> BoundConstants:
    """Closed-form constants for the perturbed Cantor family.

    C1, C2, E2 and kappa come from the exact formulas (with the branch
    points a = 3/7 and a = 1/14 for C1 and C2); K2 comes from a seeded
    golden-section maximization of |q| for the explicit quotient q.  For
    s above cantor_sign_threshold(a) the sign conditions hold and q >= 0
    on [0, 1], so max q = K2 serves as G2 in the refined one-sided bound
    and R_lo = 0; otherwise the pair is (-M2, M2).  The weight's third
    derivative is unbounded at 0 for a > 0, so K3 and M3 are infinite;
    E3 stays finite.
    """
    if not 0.0 <= a <= 1.0:
        raise BadParams(f"perturbation must lie in [0, 1], got {a}")
    if not s > 0.0:
        raise BadParams(f"need s > 0, got {s}")
    kappa = (2.0 + 7.0 * a) / (6.0 + 4.0 * a)
    if a == 0.0:
        # affine pair: constant weight, eigenfunction constant
        return BoundConstants(
            kappa=kappa, C1=0.0, C2=0.0, E2=0.0, E3=0.0, K2=0.0, K3=0.0,
            M1=0.0, M2=0.0, M3=0.0, R_lo=0.0, R_hi=0.0,
        )
    c = 3.5 * a
    if a <= 3.0 / 7.0:
        C1 = c * 2.5 / (1.0 + c)
    else:
        C1 = c * (3.0 / (7.0 * a)) ** 0.6
    if a <= 1.0 / 14.0:
        C2 = 3.75 * c / (1.0 + c)
    else:
        C2 = 3.0 * 0.25**0.2 * c**0.8
    E2 = c * 5.0 / (6.0 + 4.0 * a)
    E3 = 13.125 * a / (3.0 + 2.0 * a)
    q = cantor_g2_quotient(a, s)
    K2 = golden_max(lambda x: np.abs(q(x)), 0.0, 1.0)
    M1 = bound_M1(s, C1, kappa)
    M2 = bound_M2(s, K2=K2, C1=C1, M1=M1, E2=E2, kappa=kappa)
    if s > cantor_sign_threshold(a):
        R_lo = 0.0
        R_hi = refined_M2_upper(s, G2=K2, C1=C1, E2=E2, kappa=kappa,
                                sign_cert=True)
    else:
        R_lo, R_hi = -M2, M2
    return BoundConstants(
        kappa=kappa, C1=C1, C2=C2, E2=E2, E3=E3, K2=K2, K3=math.inf,
        M1=M1, M2=M2, M3=math.inf, R_lo=R_lo, R_hi=R_hi,
    )


# ---------------------------------------------------------------------------
# brute-force suprema for arbitrary families


def _word_chain(fam: MapFamily, word: tuple[int, ...], xs: np.ndarray) -> dict:
    """Derivatives of theta_w and log-derivative ratios of g_w on a grid.

    Applies the word left to right (word[0] acts first).  Returns the
    second and third derivatives of the composition and the ratios
    g_w'/g_w, g_w''/g_w, g_w'''/g_w via the chain rule on log g_w.
    """
    x = np.asarray(xs, dtype=float)
    xi = x
    d1 = np.ones_like(x)
    d2 = np.zeros_like(x)
    d3 = np.zeros_like(x)
    F1 = np.zeros_like(x)
    F2 = np.zeros_like(x)
    F3 = np.zeros_like(x)
    for j in word:
        spec = fam.maps[j]
        if None in (spec.d2, spec.d3, spec.weight_r1, spec.weight_r2,
                    spec.weight_r3):
            raise MissingDerivatives(
                f"map {spec.label!r} lacks order-3 derivative data"
            )
        r1 = np.asarray(spec.weight_r1(xi), dtype=float)
        r2 = np.asarray(spec.weight_r2(xi), dtype=float)
        r3 = np.asarray(spec.weight_r3(xi), dtype=float)
        u = r2 - r1**2
        # update logarithmic sums before advancing the chain (they use
        # the derivatives of the current inner composition)
        F3 = F3 + (r3 - 3.0 * r2 * r1 + 2.0 * r1**3) * d1**3 \
            + 3.0 * u * d1 * d2 + r1 * d3
        F2 = F2 + u * d1**2 + r1 * d2
        F1 = F1 + r1 * d1
        t1 = np.asarray(spec.d1(xi), dtype=float)
        t2 = np.asarray(spec.d2(xi), dtype=float)
        t3 = np.asarray(spec.d3(xi), dtype=float)
        d3 = t3 * d1**3 + 3.0 * t2 * d1 * d2 + t1 * d3
        d2 = t2 * d1**2 + t1 * d2
        d1 = t1 * d1
        xi = np.asarray(spec.eval(xi), dtype=float)
    return {
        "d2": d2, "d3": d3,
        "gw1": F1, "gw2": F2 + F1**2, "gw3": F3 + 3.0 * F1 * F2 + F1**3,
    }


def _quantities(chain: dict, s: float) -> dict:
    gw1, gw2, gw3 = chain["gw1"], chain["gw2"], chain["gw3"]
    return {
        "C1": np.abs(gw1),
        "C2": np.abs(gw2),
        "E2": np.abs(chain["d2"]),
        "E3": np.abs(chain["d3"]),
        "K2": np.abs(gw2 - (1.0 - s) * gw1**2),
        "K3": np.abs((s - 1.0) * (s - 2.0) * gw1**3
                     + 3.0 * (s - 1.0) * gw1 * gw2 + gw3),
    }


_GRID = 2049
_REFINE_ROUNDS = 5
_REFINE_PTS = 257


def _argmax(fam: MapFamily, word: tuple[int, ...], key: str,
            vals: np.ndarray) -> tuple[int, float]:
    """Index and value of the sampled maximum; NaN data is an error."""
    i = int(np.argmax(vals))  # the first NaN, if there is one
    v = float(vals[i])
    if math.isnan(v):
        labels = ", ".join(fam.maps[j].label for j in word)
        raise ParamOutOfRange(
            f"derivative data give NaN in {key} on word {word} ({labels})")
    return i, v


def _refine_max(fam: MapFamily, word: tuple[int, ...], s: float, key: str,
                lo: float, hi: float) -> float:
    best = -math.inf
    for _ in range(_REFINE_ROUNDS):
        xs = np.linspace(lo, hi, _REFINE_PTS)
        vals = _quantities(_word_chain(fam, word, xs), s)[key]
        i, v = _argmax(fam, word, key, vals)
        best = max(best, v)
        if not math.isfinite(best):
            return best
        lo, hi = xs[max(i - 1, 0)], xs[min(i + 1, _REFINE_PTS - 1)]
    return best


def general_constants(fam: MapFamily, s: float, *,
                      safety: float = 1.01) -> BoundConstants:
    """Sampled constants for any family with order-3 derivative data.

    Samples the six suprema the chain reads (C1, C2, E2, E3, K2, K3) on
    a 2049-point grid over all words of the contraction length mu, then
    refines around each argmax and multiplies by the safety factor.
    These are sampled maxima, not rigorous upper bounds.  Consistency
    tests against closed forms use safety=1.
    """
    if not s > 0.0:
        raise BadParams(f"need s > 0, got {s}")
    if not safety >= 1.0:
        raise BadParams(f"safety factor must be >= 1, got {safety}")
    kappa, mu = contraction_data(fam)
    a, b = fam.domain
    xs = np.linspace(a, b, _GRID)
    keys = ["C1", "C2", "E2", "E3", "K2", "K3"]
    sup = {k: -math.inf for k in keys}
    arg = {k: (None, 0.0, 0.0) for k in keys}
    step = (b - a) / (_GRID - 1)
    with np.errstate(invalid="ignore"):
        for word in itertools.product(range(fam.n_maps), repeat=mu):
            q = _quantities(_word_chain(fam, word, xs), s)
            for k in keys:
                i, v = _argmax(fam, word, k, q[k])
                if v > sup[k]:
                    sup[k] = v
                    arg[k] = (word, max(a, xs[i] - step), min(b, xs[i] + step))
        for k in keys:
            word, lo, hi = arg[k]
            if word is not None and math.isfinite(sup[k]):
                sup[k] = max(sup[k], _refine_max(fam, word, s, k, lo, hi))
    for k in keys:
        sup[k] *= safety
    C1, C2 = sup["C1"], sup["C2"]
    E2, E3 = sup["E2"], sup["E3"]
    K2, K3 = sup["K2"], sup["K3"]
    M1 = bound_M1(s, C1, kappa) if C1 > 0.0 else 0.0
    M2 = bound_M2(s, K2=K2, C1=C1, M1=M1, E2=E2, kappa=kappa)
    M3 = bound_M3(s, K3=K3, K2=K2, C1=C1, M1=M1, M2=M2, E2=E2, E3=E3,
                  kappa=kappa)
    return BoundConstants(
        kappa=kappa, C1=C1, C2=C2, E2=E2, E3=E3, K2=K2, K3=K3,
        M1=M1, M2=M2, M3=M3, R_lo=-M2, R_hi=M2,
    )


# ---------------------------------------------------------------------------
# family-kind dispatch


def ratio_bounds(fam: MapFamily, s: float) -> tuple[float, float, float]:
    """Enclosure (R_lo, R_hi) of v''/v and the bound osc on |v'|/v.

    MobiusDigits: the sharp order-2 digit bounds with right endpoint
    1/gamma, and osc = 2s/gamma.  PerturbedCantor: the closed-form
    constants, (0, refined) above the sign threshold and the symmetric
    pair (-M2, M2) otherwise.  Custom: the generic M1-M3 chain with the
    symmetric pair (-M2, M2).  Cantor and custom families use osc = M1.
    """
    if fam.kind == MOBIUS:
        gamma = float(fam.digits[0])
        Gamma = float(fam.digits[-1])
        pair = mobius_ratio_bounds(gamma, Gamma, 1.0 / gamma, s, 2)
        return pair.lo, pair.hi, 2.0 * s / gamma
    if fam.kind == CANTOR:
        c = cantor_constants(fam.cantor_a, s)
    else:
        c = general_constants(fam, s)
    return c.R_lo, c.R_hi, c.M1
