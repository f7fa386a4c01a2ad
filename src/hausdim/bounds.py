"""Certified bounds on eigenfunction derivative ratios.

The transfer operator's positive eigenfunction v satisfies bounds of the
form R_lo <= v''/v <= R_hi and |v'|/v <= osc, with constants built from
suprema of the map and weight derivatives.  Two kinds of bound are
implemented:

* sharp digit-family bounds from continuant estimates (any ratio order p),
* one chain, _chain, valid for any C^3 family: M1 and M2 from the
  suprema C1, E2 and K2 (theta up to theta'''), and, where the sign
  conditions hold (theta', theta'', g', g'' >= 0 and
  g'' g - (1-s) g'^2 >= 0), the refined one-sided bound
  0 <= v''/v <= R_hi, which reads K2 as the signed quotient's maximum G2.

Two routes feed the chain its suprema.  cantor_constants gives the
perturbed Cantor family's closed forms, K2 included (the largest |q|
over at most three points), and decides the sign conditions exactly
(s above cantor_sign_threshold(a)); there the signed quotient is
nonnegative, so G2 equals K2.  general_constants samples the suprema of
a family that contracts in one step (mu = 1, as every custom family
does) off a BoundPlan, one map at a time, and takes the symmetric pair;
the test suite cross-checks the closed forms against a plan's sampled
values.  A BoundPlan is built once per bracket: it samples every map's
theta'', g'/g and g''/g once on one uniform grid, takes the
s-independent C1 and E2 there, and computes only K2 afresh at each s.
ratio_bounds picks the route for a family and is the one place that
does.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadParams,
    MissingDerivatives,
    NoContractionBound,
    ParamOutOfRange,
)
from .ifs import CANTOR, MOBIUS, MapFamily, MapSpec, cantor_kappa


@dataclass(frozen=True)
class RatioBoundPair:
    """Two-sided bound on (-1)^p v^(p) / v at derivative order p."""

    lo: float
    hi: float


@dataclass(frozen=True)
class BoundConstants:
    """Constants controlling the eigenfunction of one family at one s.

    Words of the contraction length contract by kappa.  C1 bounds
    |g_w'|/g_w, E2 bounds |theta_w''| and K2 the mixed quotient
    |g_w''/g_w - (1-s) (g_w'/g_w)^2| entering the chain; on the sampled
    route the words are single maps.  M1 and M2 bound |v'|/v and |v''|/v.
    (R_lo, R_hi) enclose v''/v: (0, refined bound) on the Cantor route
    above its sign threshold, where the refined bound reads K2 as G2, and
    (-M2, M2) everywhere else.
    """

    kappa: float
    C1: float
    E2: float
    K2: float
    M1: float
    M2: float
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


def refined_M2_upper(s: float, *, G2: float, C1: float, E2: float,
                     kappa: float) -> float:
    """One-sided bound v''/v <= ..., valid only where the sign conditions hold."""
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


def _chain(s: float, kappa: float, C1: float, E2: float, K2: float,
           refined: bool) -> BoundConstants:
    """M1, M2 and (R_lo, R_hi) from the suprema C1, E2 and K2 at s.

    refined says the sign conditions hold, so K2 serves as G2 in the
    one-sided bound and R_lo = 0; otherwise the pair is (-M2, M2).
    """
    M1 = bound_M1(s, C1, kappa) if C1 > 0.0 else 0.0
    M2 = bound_M2(s, K2=K2, C1=C1, M1=M1, E2=E2, kappa=kappa)
    if refined:
        R_lo = 0.0
        R_hi = refined_M2_upper(s, G2=K2, C1=C1, E2=E2, kappa=kappa)
    else:
        R_lo, R_hi = -M2, M2
    return BoundConstants(kappa=kappa, C1=C1, E2=E2, K2=K2, M1=M1, M2=M2,
                          R_lo=R_lo, R_hi=R_hi)


# ---------------------------------------------------------------------------
# perturbed Cantor closed forms


def cantor_sign_threshold(a: float) -> float:
    """The Cantor sign conditions hold exactly for s above this.

    At a = 0 the quotient q is identically 0, so they hold for every s:
    -inf, which is also the limit as a -> 0+.  BadParams unless
    0 <= a <= 1.
    """
    if not 0.0 <= a <= 1.0:
        raise BadParams(f"perturbation must lie in [0, 1], got {a}")
    if a == 0.0:
        return -math.inf
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

    C1, E2 and kappa come from the exact formulas (with the branch point
    a = 3/7 for C1).  K2 = max |q| on [0, 1] for the explicit quotient q
    is closed form too.  In u = c x^(5/2)
    with c = 3.5a, q' vanishes only at the roots of
    8w u^2 - (12w - 27) u - 3, w = 2.5s - 1, which do not depend on a;
    with q(0) = 0, K2 is the largest |q| over x = 1 and the roots with
    0 < u <= c.  For s above cantor_sign_threshold(a) the sign
    conditions hold and q >= 0 on [0, 1], so max q = K2 serves as G2 in
    the refined one-sided bound and R_lo = 0; otherwise the pair is
    (-M2, M2).
    """
    if not 0.0 <= a <= 1.0:
        raise BadParams(f"perturbation must lie in [0, 1], got {a}")
    if not s > 0.0:
        raise BadParams(f"need s > 0, got {s}")
    kappa = cantor_kappa(a)
    c = 3.5 * a
    if a <= 3.0 / 7.0:
        C1 = c * 2.5 / (1.0 + c)
    else:
        C1 = c * (3.0 / (7.0 * a)) ** 0.6
    E2 = c * 5.0 / (6.0 + 4.0 * a)
    w = 2.5 * s - 1.0
    b = 27.0 - 12.0 * w
    # cancellation-free roots: b^2 + 96w = (12w - 23)^2 + 200, so m != 0
    m = -0.5 * (b + math.copysign(math.sqrt(b * b + 96.0 * w), b))
    roots = [-3.0 / m] + ([m / (8.0 * w)] if w != 0.0 else [])
    xs = [1.0] + [(u / c) ** 0.4 for u in roots if 0.0 < u <= c]
    K2 = float(np.max(np.abs(cantor_g2_quotient(a, s)(xs))))
    return _chain(s, kappa, C1, E2, K2, s > cantor_sign_threshold(a))


# ---------------------------------------------------------------------------
# brute-force suprema for arbitrary families

_CHAIN_DATA = ("d2", "weight_r1", "weight_r2")
_GRID = 8193  # 4 * 2048 + 1: every fourth point is a 2049-point grid's
_SAFETY = 1.01


def _nan_error(spec: MapSpec, what: str) -> ParamOutOfRange:
    return ParamOutOfRange(
        f"derivative data give NaN in {what} on map {spec.label!r}")


def _map_chain(spec: MapSpec, xs: np.ndarray) -> tuple[np.ndarray, ...]:
    """theta'', g'/g and g''/g of one map on a grid.

    Reads the map's d2, weight_r1 and weight_r2 and nothing else; no
    third-order data is read.  NaN in any of them raises ParamOutOfRange
    naming the map.
    """
    chain = tuple(np.asarray(getattr(spec, name)(xs), dtype=float)
                  for name in _CHAIN_DATA)
    for name, arr in zip(_CHAIN_DATA, chain):
        if np.isnan(arr).any():
            raise _nan_error(spec, name)
    return chain


def _peak(spec: MapSpec, key: str, vals: np.ndarray) -> float:
    """The largest sampled value; NaN (from inf - inf, say) is an error."""
    v = float(np.max(vals))
    if math.isnan(v):
        raise _nan_error(spec, key)
    return v


class BoundPlan:
    """The s-independent part of a custom family's sampled suprema.

    Samples every map's chain once, on one uniform grid of 8193 points
    over fam.domain, and keeps C1 and E2, which do not depend on s, and
    each map's g'/g and g''/g, over which K2 is swept at each s.
    Nothing is sampled before the first read, so a plan costs nothing
    on the digit and Cantor routes.
    The suprema are taken per map, so the first read raises BadParams
    for a family whose contraction length mu is not 1 (a digit family's
    kappa holds only for words of two maps).
    Construction raises NoContractionBound for a family whose kappa is
    >= 1 (only a custom one can be), and MissingDerivatives for a
    mu = 1 family with a map that lacks d2, weight_r1 or weight_r2.
    """

    def __init__(self, fam: MapFamily):
        if fam.kappa >= 1.0:
            raise NoContractionBound(
                f"custom family has sup |theta'| = {fam.kappa} >= 1")
        for spec in fam.maps if fam.mu == 1 else ():
            missing = [name for name in _CHAIN_DATA
                       if getattr(spec, name) is None]
            if missing:
                raise MissingDerivatives(
                    f"map {spec.label!r} lacks {', '.join(missing)}")
        self.fam = fam

    @functools.cached_property
    def _sampled(self) -> tuple[dict[str, float], list]:
        """C1 and E2 on the grid, and each map's (spec, g'/g, g''/g)."""
        xs = np.linspace(*self.fam.domain, _GRID)
        s_free, ratios = {"C1": 0.0, "E2": 0.0}, []
        for spec in self.fam.maps:
            d2, r1, r2 = _map_chain(spec, xs)  # NaN-free
            s_free["C1"] = max(s_free["C1"], float(np.max(np.abs(r1))))
            s_free["E2"] = max(s_free["E2"], float(np.max(np.abs(d2))))
            ratios.append((spec, r1, r2))
        return s_free, ratios

    def sup(self, key: str, s: float) -> float:
        """Sampled supremum of one of C1, E2, K2 at s.

        The maximum over all maps on the grid; no safety factor applied.
        """
        if not s > 0.0:
            raise BadParams(f"need s > 0, got {s}")
        if self.fam.mu != 1:
            raise BadParams(
                f"sampled bounds read one map at a time, but "
                f"{self.fam.family_id} contracts only over mu = "
                f"{self.fam.mu} maps")
        s_free, ratios = self._sampled
        if key != "K2":
            return s_free[key]
        with np.errstate(invalid="ignore"):
            return max(_peak(spec, key, np.abs(r2 - (1.0 - s) * r1**2))
                       for spec, r1, r2 in ratios)


def general_constants(fam: MapFamily, s: float,
                      bound_plan: BoundPlan | None = None) -> BoundConstants:
    """Sampled constants for a one-step family with the chain's data.

    Each map must supply d2, weight_r1 and weight_r2, and fam.mu must be
    1 (BadParams otherwise, before anything is sampled).  Reads the
    three suprema the chain uses (C1, E2, K2) off bound_plan (a
    BoundPlan of fam; a fresh one if None): the maximum on an 8193-point
    uniform grid over all maps, times 1.01.  These are sampled maxima,
    not rigorous upper bounds.  A bracket passes its own plan, which
    samples the chains once and recomputes only K2 per s.
    """
    plan = BoundPlan(fam) if bound_plan is None else bound_plan
    if plan.fam is not fam:
        raise BadParams("bound_plan belongs to another family")
    C1, E2, K2 = (plan.sup(k, s) * _SAFETY for k in ("C1", "E2", "K2"))
    return _chain(s, fam.kappa, C1, E2, K2, False)


# ---------------------------------------------------------------------------
# family-kind dispatch


def ratio_bounds(fam: MapFamily, s: float,
                 bound_plan: BoundPlan | None = None
                 ) -> tuple[float, float, float]:
    """Enclosure (R_lo, R_hi) of v''/v and the bound osc on |v'|/v.

    MobiusDigits: the sharp order-2 digit bounds with right endpoint
    1/gamma, and osc = 2s/gamma.  PerturbedCantor: cantor_constants,
    (0, refined) above the sign threshold and the symmetric pair
    (-M2, M2) otherwise; osc = M1.  Custom: general_constants on
    bound_plan, the symmetric pair (-M2, M2) and osc = M1.
    """
    if fam.kind == MOBIUS:
        gamma = float(fam.digits[0])
        Gamma = float(fam.digits[-1])
        pair = mobius_ratio_bounds(gamma, Gamma, 1.0 / gamma, s, 2)
        return pair.lo, pair.hi, 2.0 * s / gamma
    c = cantor_constants(fam.cantor_a, s) if fam.kind == CANTOR \
        else general_constants(fam, s, bound_plan)
    return c.R_lo, c.R_hi, c.M1
