"""One-dimensional iterated function systems and their derivative data.

A family holds contractions theta_j on a closed interval [a, b] together
with the positive weights g_j = |theta_j'| used by the transfer operator

    (L_s w)(x) = sum_j g_j(x)^s * w(theta_j(x)).

Two parametric kinds are built in: inverse branches theta_b(x) = 1/(x+b)
for a finite set of positive integer digits, and a perturbed ternary
Cantor pair on [0, 1].  Arbitrary custom families can be supplied with
explicit derivative callables.

All map callables are numpy-vectorized: they accept and return ndarrays.
"""

from __future__ import annotations

import itertools
import math
import numbers
import operator
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .errors import (
    BadIndex,
    BadParams,
    EmptyFamily,
    MissingDerivatives,
    NonPositiveDigit,
    OutOfDomain,
    ParamOutOfRange,
)

Array = np.ndarray
Func = Callable[[Array], Array]

# Relative tolerance (fraction of domain length) used when deciding whether
# a point that falls just outside an interval should be clamped onto it.
CLAMP_REL_TOL = 1e-12

MOBIUS = "MobiusDigits"
CANTOR = "PerturbedCantor"
CUSTOM = "Custom"

_VALIDATION_SAMPLES = 1000
# d1_sup may sit this far (relative) below the sampled max |theta'|: a
# closed form such as 1/b^2 can round one ulp below the sampled (x+b)^-2.
_D1_SUP_REL_TOL = 1e-12
_MAX_WORDS = 2**21  # most words reduce_domain enumerates
# log_weight may differ from the sampled log|theta'| by this much.
_LOG_WEIGHT_REL_TOL = 1e-9
_LOG_WEIGHT_ABS_TOL = 1e-12


def _as_index(value, what: str, error=BadParams) -> int:
    """value as an exact integer (numpy ints too, not bool); error names it."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise error(f"{what} must be an integer, got {value!r}")


def _as_real(value, what: str) -> float:
    """value as a float (numpy floats too, not bool); BadParams names it."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise BadParams(f"{what} must be a real number, got {value!r}")
    return float(value)


def _as_domain(domain) -> tuple[float, float]:
    """domain as exactly two finite reals a < b; ParamOutOfRange otherwise.

    An end that is not a real number raises BadParams, as _as_real does.
    """
    try:
        ends = tuple(domain)
    except TypeError:
        ends = ()
    if len(ends) != 2:
        raise ParamOutOfRange(f"a domain is two ends (a, b), got {domain!r}")
    a = _as_real(ends[0], "domain start")
    b = _as_real(ends[1], "domain end")
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ParamOutOfRange(f"domain [{a}, {b}] must be bounded")
    if not a < b:
        raise ParamOutOfRange(f"empty domain [{a}, {b}]")
    return a, b


@dataclass(frozen=True)
class MapSpec:
    """One contraction branch: theta and derivatives, plus weight data.

    The weight g = |theta'| enters the transfer operator as g^s; it is
    stored through log g and the logarithmic-derivative ratios g'/g
    (weight_r1) and g''/g (weight_r2).  The matrix assembly reads
    log_weight (as exp(s*log g)); the bound layer reads d2, weight_r1
    and weight_r2 one map at a time, so C^3 data suffice, and d1 enters
    only through the family's kappa.  d3 serves only eval_map(order=3),
    and weight_r3 (g'''/g) is accepted but not read by the library.
    d1_sup, when given, is a certified bound on sup |theta'| over the
    domain.
    """

    label: str
    eval: Func
    d1: Func
    d2: Func | None = None
    d3: Func | None = None
    log_weight: Func | None = None
    weight_r1: Func | None = None
    weight_r2: Func | None = None
    weight_r3: Func | None = None
    d1_sup: float | None = None

    def derivative(self, order: int) -> Func:
        """Return theta's derivative callable of the given order (0..3)."""
        if order == 0:
            return self.eval
        fn = (self.d1, self.d2, self.d3)[order - 1] if order in (1, 2, 3) else None
        if order not in (0, 1, 2, 3):
            raise BadIndex(f"derivative order must be 0..3, got {order}")
        if fn is None:
            raise MissingDerivatives(
                f"map {self.label!r} has no order-{order} derivative"
            )
        return fn


@dataclass(frozen=True)
class MapFamily:
    """A finite family of contractions on a common closed interval.

    Its constructor fixes family_id and the contraction data: words of
    length mu contract by the factor kappa.  A custom family's kappa is
    sampled, not certified, and may be >= 1 (see make_custom_family).
    """

    kind: str
    maps: tuple[MapSpec, ...]
    domain: tuple[float, float]
    family_id: str
    kappa: float
    mu: int
    digits: tuple[int, ...] | None = None
    cantor_a: float | None = None

    @property
    def n_maps(self) -> int:
        return len(self.maps)


@dataclass(frozen=True)
class Continuants:
    """Continuant sequences of a digit word, exact integer arithmetic.

    For a word (b_1, ..., b_n): A[0] = 0, A[1] = 1, B[0] = 1, B[1] = b_1
    and X[k] = X[k-2] + b_k * X[k-1] for k >= 2.  The composition of the
    inverse branches theta_{b_n} o ... o theta_{b_1} equals the Mobius map
    (A[n-1] x + B[n-1]) / (A[n] x + B[n]).
    """

    word: tuple[int, ...]
    A: tuple[int, ...]
    B: tuple[int, ...]

    def mobius_value(self, x):
        n = len(self.word)
        return (self.A[n - 1] * x + self.B[n - 1]) / (self.A[n] * x + self.B[n])


def continuants(word: Sequence[int]) -> Continuants:
    """Compute the continuant sequences of a positive-integer word."""
    word = tuple(_as_index(b, "digit") for b in word)
    if not word:
        raise ParamOutOfRange("continuants need a nonempty word")
    if any(b <= 0 for b in word):
        raise NonPositiveDigit(f"digits must be positive, got {word}")
    A = [0, 1]
    B = [1, word[0]]
    for k in range(2, len(word) + 1):
        A.append(A[k - 2] + word[k - 1] * A[k - 1])
        B.append(B[k - 2] + word[k - 1] * B[k - 1])
    return Continuants(word, tuple(A), tuple(B))


# ---------------------------------------------------------------------------
# family constructors


def _mobius_map(b: int) -> MapSpec:
    bf = float(b)

    def ev(x):
        return 1.0 / (x + bf)

    def d1(x):
        return -((x + bf) ** -2)

    def d2(x):
        return 2.0 * (x + bf) ** -3

    def d3(x):
        return -6.0 * (x + bf) ** -4

    def log_w(x):
        return -2.0 * np.log(x + bf)

    def r1(x):
        return -2.0 / (x + bf)

    def r2(x):
        return 6.0 / (x + bf) ** 2

    return MapSpec(
        label=f"1/(x+{b})",
        eval=ev, d1=d1, d2=d2, d3=d3,
        log_weight=log_w, weight_r1=r1, weight_r2=r2,
        d1_sup=1.0 / bf**2,
    )


def make_mobius_family(
    digits: Sequence[int], domain: tuple[float, float] | None = None
) -> MapFamily:
    """Family of inverse branches x -> 1/(x+b) on [0, 1/min(digits)].

    Digits must be distinct positive integers; the weight of each branch
    is g_b(x) = (x+b)^-2.  A wider explicit domain, two finite reals
    a < b, may be passed as long as the maps still send it into itself.
    """
    digits = tuple(_as_index(b, "digit") for b in digits)
    if not digits:
        raise EmptyFamily("need at least one digit")
    if any(b <= 0 for b in digits):
        raise NonPositiveDigit(f"digits must be positive integers, got {digits}")
    if len(set(digits)) != len(digits):
        raise ParamOutOfRange(f"duplicate digits in {digits}")
    digits = tuple(sorted(digits))
    gamma = digits[0]
    domain = (0.0, 1.0 / gamma) if domain is None else _as_domain(domain)
    fam = MapFamily(
        kind=MOBIUS,
        maps=tuple(_mobius_map(b) for b in digits),
        domain=domain,
        family_id="cf:" + ",".join(str(b) for b in digits),
        kappa=(1.0 + float(gamma) ** 2) ** -2,
        mu=2,
        digits=digits,
    )
    _validate_family(fam)
    return fam


def _cantor_maps(a: float) -> tuple[MapSpec, MapSpec]:
    den = 3.0 + 2.0 * a
    shift = (2.0 + a) / den

    def base(x):
        return (x + a * x**3.5) / den

    def d1(x):
        return (1.0 + 3.5 * a * x**2.5) / den

    def d2(x):
        return 8.75 * a * x**1.5 / den

    def d3(x):
        return 13.125 * a * x**0.5 / den

    def log_w(x):
        return np.log1p(3.5 * a * x**2.5) - math.log(den)

    def r1(x):
        return 8.75 * a * x**1.5 / (1.0 + 3.5 * a * x**2.5)

    def r2(x):
        return 13.125 * a * x**0.5 / (1.0 + 3.5 * a * x**2.5)

    left = MapSpec(
        label="cantor-left", eval=base, d1=d1, d2=d2, d3=d3,
        log_weight=log_w, weight_r1=r1, weight_r2=r2,
        d1_sup=(1.0 + 3.5 * a) / den,
    )

    def right_eval(x):
        return base(x) + shift

    return left, replace(left, label="cantor-right", eval=right_eval)


def cantor_kappa(a: float) -> float:
    """Contraction factor (2+7a)/(6+4a) = sup theta_1' of the Cantor pair."""
    return (2.0 + 7.0 * a) / (6.0 + 4.0 * a)


def make_cantor_family(a: float) -> MapFamily:
    """Perturbed Cantor pair on [0, 1] with perturbation 0 <= a <= 1.

    theta_1(x) = (x + a x^{7/2}) / (3 + 2a), theta_2 = theta_1 + (2+a)/(3+2a);
    both branches share the weight g = theta_1'.  a = 0 is the middle-thirds
    Cantor set.
    """
    a = _as_real(a, "perturbation a")
    if not 0.0 <= a <= 1.0:
        raise ParamOutOfRange(f"perturbation must lie in [0, 1], got {a}")
    fam = MapFamily(
        kind=CANTOR,
        maps=_cantor_maps(a),
        domain=(0.0, 1.0),
        family_id=f"cantor:{a!r}",
        kappa=cantor_kappa(a),
        mu=1,
        cantor_a=a,
    )
    _validate_family(fam)
    return fam


def make_custom_family(
    maps: Sequence[MapSpec],
    domain: tuple[float, float],
    label: str = "custom",
) -> MapFamily:
    """Wrap user-supplied map specs after validating the family invariants.

    The domain is two finite reals a < b.  The family is named
    custom:<label>, with mu = 1 and kappa the largest d1_sup, or |theta'|
    sampled on 4096 points for a map without one.  The bound layer
    raises NoContractionBound when kappa >= 1.
    """
    if not maps:
        raise EmptyFamily("need at least one map")
    a, b = _as_domain(domain)
    xs = np.linspace(a, b, 4096)
    kappa = max(float(spec.d1_sup) if spec.d1_sup is not None
                else float(np.max(np.abs(spec.d1(xs)))) for spec in maps)
    fam = MapFamily(kind=CUSTOM, maps=tuple(maps), domain=(a, b),
                    family_id=f"custom:{label}", kappa=kappa, mu=1)
    _validate_family(fam)
    return fam


def _validate_family(fam: MapFamily) -> None:
    a, b = fam.domain
    tol = CLAMP_REL_TOL * (b - a)
    xs = np.linspace(a, b, _VALIDATION_SAMPLES + 2)
    for spec in fam.maps:
        ya, yb = float(spec.eval(np.asarray(a))), float(spec.eval(np.asarray(b)))
        d1 = np.asarray(spec.d1(xs))
        if not (np.all(d1 > 0) or np.all(d1 < 0)):
            raise ParamOutOfRange(
                f"map {spec.label!r} is not monotone on the domain"
            )
        top = float(np.max(np.abs(d1)))
        if spec.d1_sup is not None and not (
                math.isfinite(spec.d1_sup)
                and spec.d1_sup >= top * (1.0 - _D1_SUP_REL_TOL)):
            raise ParamOutOfRange(
                f"map {spec.label!r} has d1_sup {spec.d1_sup}, but |theta'| "
                f"reaches {top} on the domain"
            )
        lo, hi = min(ya, yb), max(ya, yb)
        if lo < a - tol or hi > b + tol:
            raise OutOfDomain(
                f"map {spec.label!r} sends [{a}, {b}] to [{lo}, {hi}]"
            )
        if spec.log_weight is not None:
            lw = np.asarray(spec.log_weight(xs))
            if not np.all(np.isfinite(lw)):
                raise ParamOutOfRange(
                    f"weight of map {spec.label!r} is not positive on the domain"
                )
            # The matrix reads log_weight, the bounds read d1: they must
            # describe one operator.
            ref = np.log(np.abs(d1))
            if np.any(np.abs(lw - ref) > _LOG_WEIGHT_REL_TOL * np.abs(ref)
                      + _LOG_WEIGHT_ABS_TOL):
                raise ParamOutOfRange(
                    f"log_weight of map {spec.label!r} is not log|theta'| "
                    f"on the domain"
                )


# ---------------------------------------------------------------------------
# evaluation and structure queries


def eval_map(fam: MapFamily, j: int, x, order: int = 0):
    """Evaluate theta_j or one of its first three derivatives at x."""
    j = _as_index(j, "map index", BadIndex)
    order = _as_index(order, "derivative order", BadIndex)
    if not 0 <= j < fam.n_maps:
        raise BadIndex(f"map index {j} outside 0..{fam.n_maps - 1}")
    a, b = fam.domain
    tol = CLAMP_REL_TOL * (b - a)
    xv = np.asarray(x, dtype=float)
    if np.any(xv < a - tol) or np.any(xv > b + tol):
        raise OutOfDomain(f"point outside [{a}, {b}]")
    xv = np.clip(xv, a, b)
    out = fam.maps[j].derivative(order)(xv)
    return out if np.ndim(x) else float(out)


def eval_all_maps(fam: MapFamily, x_in: Array, x: Array, images: Array,
                  log_weights: Array) -> None:
    """Every map's images and log weights, written into column j for map j.

    images[:, j] gets theta_j(x_in) and log_weights[:, j] log g_j(x);
    both are (x.size, n_maps) arrays, x_in is x already clipped to the
    domain, and every map has a log_weight.  A digit family evaluates
    all its maps in one broadcast over its digits, with its closures'
    own operations, 1/(x + b) and -2 log(x + b), so every value is
    theirs bit for bit; any other family calls its maps in map order.
    """
    if fam.kind == MOBIUS:
        b = np.asarray(fam.digits, dtype=float)
        np.add(x_in[:, None], b, out=images)
        np.divide(1.0, images, out=images)
        np.add(x[:, None], b, out=log_weights)
        np.log(log_weights, out=log_weights)
        log_weights *= -2.0
        return
    for j, spec in enumerate(fam.maps):
        images[:, j] = spec.eval(x_in)
        log_weights[:, j] = spec.log_weight(x)


def apply_word(fam: MapFamily, word: Sequence[int], x):
    """Apply theta_{word[-1]} o ... o theta_{word[0]} (indices into fam.maps)."""
    y = np.asarray(x, dtype=float)
    for j in word:
        y = fam.maps[j].eval(y)
    return y


def reduce_domain(
    fam: MapFamily, iterations: int, merge_gap: float = 0.0
) -> list[tuple[float, float]]:
    """Forward-invariant union of intervals after `iterations` refinements.

    Images of the domain under all words of the given length, merged when
    adjacent intervals overlap or leave a gap smaller than merge_gap.
    iterations = 0 returns the full domain.  More than 2^21 words
    (n_maps^iterations, with n_maps counted as at least 2 so that a
    one-map family's word length is capped at 21 too) raise BadParams
    before any is enumerated, and so does a merge_gap that is not a
    finite real >= 0.
    """
    iterations = _as_index(iterations, "iterations")
    if iterations < 0:
        raise ParamOutOfRange("iterations must be >= 0")
    gap = _as_real(merge_gap, "merge_gap")
    if not (math.isfinite(gap) and gap >= 0.0):
        raise BadParams(f"merge_gap must be a finite real >= 0, got {gap}")
    if iterations * math.log2(max(fam.n_maps, 2)) > math.log2(_MAX_WORDS):
        raise BadParams(
            f"reduce_domain needs {fam.n_maps}^{iterations} words of length "
            f"{iterations}, more than 2^21 (one map counts as two)")
    a, b = fam.domain
    if iterations == 0:
        return [(a, b)]
    pieces = []
    for word in itertools.product(range(fam.n_maps), repeat=iterations):
        lo = float(apply_word(fam, word, a))
        hi = float(apply_word(fam, word, b))
        pieces.append((min(lo, hi), max(lo, hi)))
    pieces.sort()
    merged = [list(pieces[0])]
    for lo, hi in pieces[1:]:
        if lo <= merged[-1][1] + gap:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return [(lo, hi) for lo, hi in merged]
