"""Certified bounds on eigenfunction derivative ratios.

The transfer operator's positive eigenfunction v satisfies bounds of the
form R_lo <= v''/v <= R_hi and |v'|/v <= osc, with constants built from
suprema of the map and weight derivatives over words of the contraction
length mu.  Three routes are implemented:

* sharp digit-family bounds from continuant estimates (any ratio order p),
* a generic two-stage chain M1, M2 valid for any C^3 family; it reads
  theta up to theta''' through the suprema C1, E2 and K2,
* a refined one-sided bound 0 <= v''/v <= R_hi, which needs the sign
  conditions (theta', theta'', g', g'' >= 0 and g'' g - (1-s) g'^2 >= 0).
  Only the perturbed Cantor family takes it: cantor_constants decides the
  conditions exactly (s above cantor_sign_threshold(a)), and there the
  signed quotient is nonnegative, so its maximum G2 equals K2.

Every constant of the perturbed Cantor family is a closed form, K2
included (the largest |q| over at most three points), so only the
custom-family route samples suprema; the test suite cross-checks the
closed forms against general_constants' sampled values.  The sampling
lives in a BoundPlan, built once per bracket: it samples every word's
chain once, refines the s-independent C1 and E2 once, and computes only
K2 afresh at each s.  ratio_bounds picks the route for a family and is
the one place that does.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadParams,
    MissingDerivatives,
    NoContractionBound,
    ParamOutOfRange,
)
from .ifs import CANTOR, MOBIUS, MapFamily, cantor_kappa


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
    |g_w''/g_w - (1-s) (g_w'/g_w)^2| entering the chain.  M1 and M2 bound
    |v'|/v and |v''|/v.
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
    if a == 0.0:
        # affine pair: constant weight, eigenfunction constant
        return BoundConstants(
            kappa=kappa, C1=0.0, E2=0.0, K2=0.0, M1=0.0, M2=0.0,
            R_lo=0.0, R_hi=0.0,
        )
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
    M1 = bound_M1(s, C1, kappa)
    M2 = bound_M2(s, K2=K2, C1=C1, M1=M1, E2=E2, kappa=kappa)
    if s > cantor_sign_threshold(a):
        R_lo = 0.0
        R_hi = refined_M2_upper(s, G2=K2, C1=C1, E2=E2, kappa=kappa)
    else:
        R_lo, R_hi = -M2, M2
    return BoundConstants(
        kappa=kappa, C1=C1, E2=E2, K2=K2, M1=M1, M2=M2,
        R_lo=R_lo, R_hi=R_hi,
    )


# ---------------------------------------------------------------------------
# brute-force suprema for arbitrary families


def _word_chain(fam: MapFamily, word: tuple[int, ...], xs: np.ndarray) -> dict:
    """Derivatives of theta_w and log-derivative ratios of g_w on a grid.

    Applies the word left to right (word[0] acts first).  Returns the
    second derivative of the composition and the ratios g_w'/g_w and
    g_w''/g_w via the chain rule on log g_w.  Each map must supply d2,
    weight_r1 and weight_r2; no third-order data is read.
    """
    x = np.asarray(xs, dtype=float)
    xi = x
    d1 = np.ones_like(x)
    d2 = np.zeros_like(x)
    F1 = np.zeros_like(x)
    F2 = np.zeros_like(x)
    for j in word:
        spec = fam.maps[j]
        missing = [name for name in ("d2", "weight_r1", "weight_r2")
                   if getattr(spec, name) is None]
        if missing:
            raise MissingDerivatives(
                f"map {spec.label!r} lacks {', '.join(missing)}")
        r1 = np.asarray(spec.weight_r1(xi), dtype=float)
        r2 = np.asarray(spec.weight_r2(xi), dtype=float)
        u = r2 - r1**2
        # update logarithmic sums before advancing the chain (they use
        # the derivatives of the current inner composition)
        F2 = F2 + u * d1**2 + r1 * d2
        F1 = F1 + r1 * d1
        t1 = np.asarray(spec.d1(xi), dtype=float)
        t2 = np.asarray(spec.d2(xi), dtype=float)
        d2 = t2 * d1**2 + t1 * d2
        d1 = t1 * d1
        xi = np.asarray(spec.eval(xi), dtype=float)
    return {"d2": d2, "gw1": F1, "gw2": F2 + F1**2}


# The sampled quantities: C1 and E2 read the word chain alone, K2 also
# reads s.
_SUPREMANDS = {
    "C1": lambda c, s: np.abs(c["gw1"]),
    "E2": lambda c, s: np.abs(c["d2"]),
    "K2": lambda c, s: np.abs(c["gw2"] - (1.0 - s) * c["gw1"]**2),
}
_S_FREE = ("C1", "E2")

_GRID = 2049
_REFINE_ROUNDS = 5
_REFINE_PTS = 257
_SAFETY = 1.01


def _nan_error(fam: MapFamily, word: tuple[int, ...],
               what: str) -> ParamOutOfRange:
    labels = ", ".join(fam.maps[j].label for j in word)
    return ParamOutOfRange(
        f"derivative data give NaN in {what} on word {word} ({labels})")


def _argmax(fam: MapFamily, word: tuple[int, ...], key: str,
            vals: np.ndarray) -> tuple[int, float]:
    """Index and value of the sampled maximum; NaN data is an error."""
    i = int(np.argmax(vals))  # the first NaN, if there is one
    v = float(vals[i])
    if math.isnan(v):
        raise _nan_error(fam, word, key)
    return i, v


class BoundPlan:
    """The s-independent part of a custom family's sampled suprema.

    Keeps the chain of every word of length fam.mu on the 2049-point grid
    over fam.domain, and of every refinement window, each computed once
    (NaN in any chain array raises ParamOutOfRange naming the word).  C1
    and E2 do not depend on s and are refined once; K2 is swept over the
    kept chains at each s.  Nothing is sampled before the first read, so
    a plan costs nothing on the digit and Cantor routes.
    A family whose kappa is >= 1 (only a custom one can be) raises
    NoContractionBound.
    """

    def __init__(self, fam: MapFamily):
        if fam.kappa >= 1.0:
            raise NoContractionBound(
                f"custom family has sup |theta'| = {fam.kappa} >= 1")
        self.fam = fam
        self._chains: dict[tuple, dict] = {}
        self._s_free: dict[str, float] = {}

    @functools.cached_property
    def _grid(self) -> tuple[np.ndarray, list]:
        """The 2049-point grid and each word's chain on it, in word order."""
        a, b = self.fam.domain
        xs = np.linspace(a, b, _GRID)
        words = itertools.product(range(self.fam.n_maps), repeat=self.fam.mu)
        return xs, [(word, self._chain(word, xs)) for word in words]

    def _chain(self, word: tuple[int, ...], xs: np.ndarray) -> dict:
        key = (word, xs[0], xs[-1], xs.size)
        if key not in self._chains:
            chain = _word_chain(self.fam, word, xs)
            for name, arr in chain.items():
                if np.isnan(arr).any():
                    raise _nan_error(self.fam, word, name)
            self._chains[key] = chain
        return self._chains[key]

    def sup(self, key: str, s: float) -> float:
        """Sampled supremum of one of C1, E2, K2 at s.

        The maximum over all words on the grid, then five rounds of 257
        points around its first argmax; no safety factor applied.
        """
        if not s > 0.0:
            raise BadParams(f"need s > 0, got {s}")
        if key in self._s_free:
            return self._s_free[key]
        with np.errstate(invalid="ignore"):
            best = self._sweep(key, s)
        if key in _S_FREE:
            self._s_free[key] = best
        return best

    def _sweep(self, key: str, s: float) -> float:
        f = _SUPREMANDS[key]
        a, b = self.fam.domain
        xs, chains = self._grid
        step = (b - a) / (_GRID - 1)
        best, arg = -math.inf, None
        for word, chain in chains:
            i, v = _argmax(self.fam, word, key, f(chain, s))
            if v > best:
                best = v
                arg = (word, max(a, xs[i] - step), min(b, xs[i] + step))
        if arg is None or not math.isfinite(best):
            return best
        word, lo, hi = arg
        for _ in range(_REFINE_ROUNDS):
            xs = np.linspace(lo, hi, _REFINE_PTS)
            i, v = _argmax(self.fam, word, key, f(self._chain(word, xs), s))
            best = max(best, v)
            if not math.isfinite(best):
                break
            lo, hi = xs[max(i - 1, 0)], xs[min(i + 1, _REFINE_PTS - 1)]
        return best


def _generic_M1_M2(s: float, kappa: float, C1: float, E2: float,
                   K2: float) -> tuple[float, float]:
    M1 = bound_M1(s, C1, kappa) if C1 > 0.0 else 0.0
    return M1, bound_M2(s, K2=K2, C1=C1, M1=M1, E2=E2, kappa=kappa)


def general_constants(fam: MapFamily, s: float, *,
                      safety: float = _SAFETY) -> BoundConstants:
    """Sampled constants for any family with the chain's derivative data.

    Each map must supply d2, weight_r1 and weight_r2.  Reads the three
    suprema the chain uses (C1, E2, K2) from a fresh BoundPlan: the
    maximum on a 2049-point grid over all words of length fam.mu,
    refined around its argmax, times the safety factor.
    These are sampled maxima, not rigorous upper bounds.  Consistency
    tests against closed forms use safety=1.  A bracket does not call
    this: ratio_bounds reads the same suprema from the bracket's own
    plan, which samples the chains once and recomputes only K2 per s.
    """
    if not safety >= 1.0:
        raise BadParams(f"safety factor must be >= 1, got {safety}")
    plan = BoundPlan(fam)
    C1, E2, K2 = (plan.sup(k, s) * safety for k in _SUPREMANDS)
    kappa = fam.kappa
    M1, M2 = _generic_M1_M2(s, kappa, C1, E2, K2)
    return BoundConstants(
        kappa=kappa, C1=C1, E2=E2, K2=K2, M1=M1, M2=M2, R_lo=-M2, R_hi=M2,
    )


# ---------------------------------------------------------------------------
# family-kind dispatch


def ratio_bounds(fam: MapFamily, s: float,
                 bound_plan: BoundPlan | None = None
                 ) -> tuple[float, float, float]:
    """Enclosure (R_lo, R_hi) of v''/v and the bound osc on |v'|/v.

    MobiusDigits: the sharp order-2 digit bounds with right endpoint
    1/gamma, and osc = 2s/gamma.  PerturbedCantor: the closed-form
    constants, (0, refined) above the sign threshold and the symmetric
    pair (-M2, M2) otherwise; osc = M1.  Custom: the generic chain's
    symmetric pair (-M2, M2) and osc = M1, from C1, E2 and K2 read off
    bound_plan (a BoundPlan of fam; a fresh one if None) times the
    default safety factor of general_constants.
    """
    if fam.kind == MOBIUS:
        gamma = float(fam.digits[0])
        Gamma = float(fam.digits[-1])
        pair = mobius_ratio_bounds(gamma, Gamma, 1.0 / gamma, s, 2)
        return pair.lo, pair.hi, 2.0 * s / gamma
    if fam.kind == CANTOR:
        c = cantor_constants(fam.cantor_a, s)
        return c.R_lo, c.R_hi, c.M1
    plan = BoundPlan(fam) if bound_plan is None else bound_plan
    if plan.fam is not fam:
        raise BadParams("bound_plan belongs to another family")
    C1, E2, K2 = (plan.sup(k, s) * _SAFETY for k in ("C1", "E2", "K2"))
    M1, M2 = _generic_M1_M2(s, fam.kappa, C1, E2, K2)
    return -M2, M2, M1
