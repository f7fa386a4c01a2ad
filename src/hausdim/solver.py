"""Dimension brackets by root finding on certified log-radius curves.

The spectral radius of the assembled matrices is strictly decreasing and
log-convex in s, so log r(s) has a single root.  One routine, _root,
finds every root: from a bracket or from a start point and slope, it
takes Newton and secant steps outward until log r changes sign, then
secant steps safeguarded with bisection.  The lower matrix roots give a
certified lower dimension bound (r(A_s) >= 1), the upper matrix roots a
certified upper bound (r(B_s) <= 1).  Each root aims its enclosure
midpoint a margin of at least radius_tol outward in log r, on the side
its certificate needs, so the enclosure found at the root certifies its
endpoint as it stands.

Brackets and degree-d estimates (higher_order) start the same way, in
_coarse_start: on a large enough fine plan, the root of the driver's
curve on a mesh 16 times coarser gives the fine root solve its start
and its first solve a seed.  A bracket's coarse curve is log r(M_s),
which needs no error model; the fine B root starts from the coarse
root, and the fine A root from the B root on the slope of log r(B).

Within one bracket every power solve on a mesh starts from the
eigenvectors of the last two solves of the same matrix, extrapolated
linearly in s, or, where that vector is not strictly positive and
finite or there is no such pair yet, from the eigenvector of the one
before it.  The first solve on the fine mesh starts from the coarse
level's seed, or from all-ones where there is none.  A solve away from
the root stops as soon as its enclosure excludes 1 and pins log r to
1%, which is all a secant step needs there, and takes power_enclosure's
vector Aitken steps on the way.

Both meshes of a bracket solve on discretize.closed_plan: the rows of
the closed node set S and no others.  r(A), r(M), r(B) and the
Collatz-Wielandt certificate are those of the full matrices, as the
rows outside S form a nilpotent block below S's.  enclosure_at,
log_radius and radius keep the full plan, so they show the paper's A,
M and B.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import BoundPlan
from .discretize import (
    ErrorModel,
    _interpolate_rows,
    closed_plan,
    collocation_plan,
    error_model,
    make_mesh,
)
from .errors import BadParams, NoSignChange, PowerDivergence
from .ifs import MapFamily
from .spectral import RADIUS_TOL, SpectralEnclosure, power_enclosure

ROOT_TOL = 1e-12  # default tolerance on log-radius at a root
INITIAL_BRACKET = (0.01, 1.5)  # default start bracket of every root solve
_EPS = float(np.finfo(float).eps)
_SIGN_REL = 0.01  # relative accuracy of log r at which a solve may stop


def _coef(model: ErrorModel, which: str) -> float:
    """Correction coefficient of the lower (A) or upper (B) matrix."""
    return model.coef_hi if which == "A" else model.coef_lo


def enclosure_at(fam: MapFamily, mesh, s: float,
                 which: str) -> SpectralEnclosure:
    """Spectral enclosure of the requested matrix (fresh iteration)."""
    if which not in ("A", "M", "B"):
        raise BadParams(f"which must be A, M or B, got {which!r}")
    plan = collocation_plan(fam, mesh)
    if which == "M":
        matrix = plan.matrix(s)
    else:
        matrix = plan.matrix(s, _coef(error_model(fam, s, mesh.h), which))
    return power_enclosure(matrix, tol=RADIUS_TOL)


def _log_midpoint(r_lo: float, r_hi: float, converged: bool,
                  radius_tol: float) -> float:
    if not converged:
        raise PowerDivergence(
            f"enclosure gap stalled at {(r_hi - r_lo) / r_hi:.3g} (tol {radius_tol})"
        )
    return math.log(0.5 * (r_lo + r_hi))


def log_radius(fam: MapFamily, mesh, s: float, which: str = "B") -> float:
    """log of the enclosure midpoint of r(A_s|M_s|B_s)."""
    enc = enclosure_at(fam, mesh, s, which)
    return _log_midpoint(enc.r_lo, enc.r_hi, enc.converged, RADIUS_TOL)


def radius(fam: MapFamily, mesh, s: float, which: str = "M") -> float:
    """Enclosure midpoint of the spectral radius (convenience)."""
    return math.exp(log_radius(fam, mesh, s, which))


# ---------------------------------------------------------------------------
# root solving


_MAX_EVALS = 40
_EXPAND = 2.0
_S_MIN, _S_MAX = 1e-6, 64.0


def _slope(points: dict[float, float], s: float) -> float:
    """Secant slope through the two points nearest s."""
    (s0, f0), (s1, f1) = sorted(points.items(),
                                key=lambda p: abs(p[0] - s))[:2]
    return (f1 - f0) / (s1 - s0)


def _check_bracket(bracket: tuple[float, float]) -> tuple[float, float]:
    """The ends of a start bracket; BadParams unless 0 < lo < hi < inf."""
    lo, hi = float(bracket[0]), float(bracket[1])
    if not 0.0 < lo < hi < math.inf:
        raise BadParams(f"bad bracket {bracket}")
    return lo, hi


def _check_tols(root_tol: float, radius_tol: float) -> None:
    """BadParams unless 0 < root_tol < inf and 0 < radius_tol < inf."""
    if not 0.0 < root_tol < math.inf:
        raise BadParams(f"need finite root_tol > 0, got {root_tol}")
    if not 0.0 < radius_tol < math.inf:
        raise BadParams(f"need finite radius_tol > 0, got {radius_tol}")


def _root(f, bracket: tuple[float, float], tol: float,
          start: tuple[float, float] | None = None
          ) -> tuple[float, float, int]:
    """Root of a decreasing convex f: (root, slope near it, evaluations).

    f is evaluated at start = (s, slope), or else at both ends of
    bracket, and a point with |f| <= tol is returned at once (the lower
    end first).  Until two points straddle the root (f > 0 below,
    f < 0 above), the last point takes a Newton step toward it within a
    factor 2, on the start slope first and then on the secant of the
    last two points; of a bracket, the end on the root's side steps
    first.  As f is convex, a step from its negative side crosses the
    root unless the slope is off, and steps from its positive side
    close in on it.  Secant steps from (lower, upper) then stay inside
    the bracket (bisection otherwise) until |f| <= tol, 40 evaluations
    in all, or a bracket of 4 ulps, whose end with the smaller |f| is
    returned.  Each evaluation is at a new point; the slope is f's
    between the root and the point nearest it (the start slope if the
    root was the only point).  Steps stay in [1e-6, 64]: NoSignChange
    where f keeps its sign to a bound or for 40 evaluations, or gives
    NaN (+-inf are signs); BadParams unless
    0 < bracket[0] < bracket[1] < inf and 0 < tol < inf.
    """
    lo, hi = _check_bracket(bracket)
    if not 0.0 < tol < math.inf:
        raise BadParams(f"need finite root_tol > 0, got {tol}")
    points: dict[float, float] = {}

    def ev(x: float) -> float:
        fx = points[x] = float(f(x))
        if math.isnan(fx):
            raise NoSignChange(f"f gives NaN at s = {x}")
        return fx

    def found(x: float) -> tuple[float, float, int]:
        slope = _slope(points, x) if len(points) > 1 else start[1]
        return x, slope, len(points)

    last = [(x, ev(x)) for x in ((lo, hi) if start is None else start[:1])]
    for x, fx in last:
        if abs(fx) <= tol:
            return found(x)
    if last[0][1] < 0.0:
        last.reverse()  # the root lies below: the lower end steps first
    while len(last) == 1 or not min(last)[1] > 0.0 > max(last)[1]:
        x, fx = last[-1]
        slope = (fx - last[0][1]) / (x - last[0][0]) if len(last) > 1 \
            else start[1]
        # A Newton step within a factor 2 of x; one that would not move,
        # or a slope that is not negative, goes the factor 2.
        t = x - fx / slope if slope < 0.0 else math.nan
        if not (x / _EXPAND <= t <= x * _EXPAND and t != x):
            t = x * _EXPAND if fx > 0.0 else x / _EXPAND
        t = min(_S_MAX, max(_S_MIN, t))
        if (t <= x if fx > 0.0 else t >= x) or len(points) >= _MAX_EVALS:
            side = "negative value up" if fx > 0.0 else "positive value down"
            raise NoSignChange(f"no {side} to s = {x}")
        last = [(x, fx), (t, ev(t))]
        if abs(last[1][1]) <= tol:
            return found(t)
    (a, fa), (b, fb) = sorted(last)
    x0, f0, x1, f1 = a, fa, b, fb
    while len(points) < _MAX_EVALS:
        denom = f1 - f0
        if denom != 0.0 and math.isfinite(denom):
            x = x1 - f1 * (x1 - x0) / denom
        else:
            x = 0.5 * (a + b)
        if not a < x < b:
            x = 0.5 * (a + b)
        fx = ev(x)
        x0, f0, x1, f1 = x1, f1, x, fx
        if abs(fx) <= tol:
            return found(x)
        if fx > 0.0:
            a, fa = x, fx
        else:
            b, fb = x, fx
        if b - a <= 4.0 * _EPS * max(1.0, abs(b)):
            break
    return found(a if abs(fa) <= abs(fb) else b)


def solve_root(f, bracket: tuple[float, float],
               root_tol: float = ROOT_TOL) -> tuple[float, int]:
    """Root of a decreasing function from a bracket, by _root.

    Returns (root, evaluations) after at most 40 evaluations;
    NoSignChange if no sign change exists in [1e-6, 64] or f gives NaN
    (+-inf are signs), BadParams unless 0 < root_tol < inf.
    """
    root, _, evals = _root(f, bracket, root_tol)
    return root, evals


# ---------------------------------------------------------------------------
# certified dimension brackets


@dataclass(frozen=True)
class DimensionBracket:
    """Certified enclosure [s_lower, s_upper] of the dimension."""

    s_lower: float
    s_upper: float
    mesh_h: float
    family_id: str
    evals: int  # matrices built by this call
    certified: bool

    @property
    def width(self) -> float:
        return self.s_upper - self.s_lower


_COARSEN = 16  # cell width of the coarse mesh, in fine cell widths
# Smallest closed plan whose bracket takes the coarse level, at the
# measured crossover.  Timed both ways (medians of 15 alternated
# in-process brackets, the first fine solve seeded), the coarse level
# took 1.03-1.31 times as long on plans of 3.6k-50k entries (cf{1..5},
# cf{1..10}, Cantor a = 0 and 0.5), 0.97-1.06 on 53k-64k and 0.92-0.96
# from 68.6k to 118k (0.86 at 216k).  Only Cantor a = 1, whose power
# solves crawl, gained below the cut (0.92-0.99 from 12.8k entries).
_BRACKET_MIN_ENTRIES = 1 << 16


def _enclosures(plan, coef, radius_tol: float, *,
                seed: np.ndarray | None = None):
    """Memoized enclose(s, which) -> (r_lo, r_hi, converged) on one plan.

    coef(s, which) gives the matrix's correction coefficient (None for
    M).  Every matrix is built into one entry buffer, so the plan's
    matrices reuse its pages.  Every power solve may stop once its
    enclosure settles the sign of log r to 1%.  It starts from the
    eigenvectors of the last two solves of the same matrix kind,
    extrapolated linearly to its s, where that vector is strictly
    positive and finite, and otherwise from the eigenvector of the
    solve before it.  The first solve starts from seed, a strictly
    positive array of shape (plan.dim,), or else from all-ones; each
    solve copies its eigenvector into seed, so it ends as the last one.
    """
    radii: dict[tuple[float, str], tuple[float, float, bool]] = {}
    latest = seed  # eigenvector of the latest solve
    # (s, eigenvector) of the last two solves of each matrix kind
    history: dict[str, list[tuple[float, np.ndarray]]] = {}
    entries = np.empty(plan.weight.size)
    guess = np.empty(plan.dim)  # the predicted start

    def start(s: float, which: str):
        pair = history.get(which, ())
        if len(pair) < 2:
            return latest
        (s0, v0), (s1, v1) = pair
        np.subtract(v1, v0, out=guess)
        np.multiply(guess, (s - s1) / (s1 - s0), out=guess)
        np.add(guess, v1, out=guess)
        if float(np.minimum.reduce(guess)) > 0.0 and \
                float(np.maximum.reduce(guess)) < math.inf:
            return guess
        return latest

    def enclose(s: float, which: str) -> tuple[float, float, bool]:
        nonlocal latest
        if (s, which) not in radii:
            enc = power_enclosure(plan.matrix(s, coef(s, which), entries),
                                  tol=radius_tol, seed_vec=start(s, which),
                                  sign_rel=_SIGN_REL)
            latest = enc.eigvec
            if seed is not None:
                np.copyto(seed, latest)
            history[which] = [*history.get(which, ())[-1:], (s, latest)]
            radii[s, which] = (enc.r_lo, enc.r_hi, enc.converged)
        return radii[s, which]

    return enclose, radii


def _coarse_mesh(mesh):
    """The same intervals as mesh, meshed 16 times coarser, or None.

    make_mesh keeps two cells per piece, so on a domain cut into many
    short pieces the coarse mesh can be barely coarser; None when it has
    more than a tenth of mesh's nodes.
    """
    coarse = make_mesh([(p.a, p.b) for p in mesh.pieces], h=_COARSEN * mesh.h)
    # The measured crossover of a degree-6 estimate.  Timed both ways on
    # reduced domains (medians of 21 alternated in-process runs), the
    # coarse start took 0.67-0.99 times as long at node ratios
    # 0.082-0.103, 1.03-1.05 at 0.108-0.127 on cf{1,2} (0.82 at 0.139 on
    # cf{1..5}) and 1.13-2.1 from 0.157 on.  A bracket's coarse level
    # lost at every ratio from 0.078 on (1.17-2.05); at 0.062-0.069 it
    # lost on every plan under 40000 entries too and won only on larger
    # ones (0.70-0.93), not all of them.  For brackets the ratio alone
    # does not place the crossover: _BRACKET_MIN_ENTRIES does.
    return coarse if 10 * coarse.dim <= mesh.dim else None


def _coarse_start(fam: MapFamily, mesh, plan, level,
                  bracket: tuple[float, float], root_tol: float,
                  radius_tol: float, min_entries: int):
    """The coarse level of a root solve: (start, seed, coarse evals).

    The coarse level runs where plan, the fine closed plan on mesh,
    holds at least min_entries entries, and _coarse_mesh gives the same
    intervals meshed 16 times coarser, where a matrix costs about a
    sixteenth as much.  level(coarse_plan) gives the driver's curve f,
    decreasing in s, on the closed coarse plan at plan.degree, and the
    array that holds its latest eigenvector.  _root finds f's root s_c
    from bracket to max(root_tol, 4 radius_tol): f is known to about
    radius_tol, so no root is sought closer.  The fine roots converge
    to the dimension like a power of h, so s_c lies close to them: start
    is (s_c, f's slope near s_c), where the fine root solve begins, and
    seed is the last coarse eigenvector interpolated onto plan's rows
    (_interpolate_rows; None where a row's coarse cell reads a node the
    coarse plan dropped).  Without a coarse level, or where a coarse
    power solve stalls (PowerDivergence), start and seed are None and
    the fine mesh solves from bracket.  coarse evals counts the coarse
    matrices built, a stalled one included.  The coarse plan is released
    on return, before the fine level makes its entry buffer, so peak
    memory holds the fine plan and at most one of the two.
    """
    coarse = _coarse_mesh(mesh) if plan.indices.size >= min_entries \
        else None
    if coarse is None:
        return None, None, 0
    coarse_plan = closed_plan(fam, coarse, plan.degree)
    curve, last = level(coarse_plan)
    built = []  # the s of each coarse matrix

    def f(s: float) -> float:
        built.append(s)
        return curve(s)

    try:
        s_c, slope, _ = _root(f, bracket, max(root_tol, 4.0 * radius_tol))
    except PowerDivergence:
        return None, None, len(built)
    seed = _interpolate_rows(last, coarse_plan, coarse, plan, mesh)
    return (s_c, slope), seed, len(built)


def bracket_dimension(fam: MapFamily, mesh, *, root_tol: float = ROOT_TOL,
                      radius_tol: float = RADIUS_TOL,
                      initial: tuple[float, float] = INITIAL_BRACKET
                      ) -> DimensionBracket:
    """Bracket the dimension with certified enclosure endpoints.

    The fine closed plan is built first, as its size decides whether
    the coarse level (_coarse_start, from 2**16 entries) runs, on
    log r(M_s) from initial.  The fine B root starts at that level's
    start, or else from initial, and its first solve from the level's
    seed, or else from all-ones.  The A root starts the same way at the
    B root, on the slope of log r(B).
    With margin = max(root_tol/10, radius_tol), each root aims its
    enclosure midpoint at
    margin <= |log r| <= root_tol + 4 (margin - root_tol/10)
    on the side its certificate needs: s_upper at log r(B) < 0,
    s_lower at log r(A) > 0.  An enclosure that met a radius_tol below
    1/2 has its ends less than radius_tol from the midpoint in log r,
    and one that stopped on the sign excludes 1, so the enclosure found
    at a root certifies its endpoint: certified is r_hi(B) <= 1 at
    s_upper and r_lo(A) >= 1 at s_lower, read from those two
    enclosures.  It fails only where a root solve ends on a collapsed
    bracket instead of in that band.
    The fine plan and the bound plan are built once and serve every s
    the fine solves visit.  Both meshes solve on their closed plans
    (discretize.closed_plan), whose spectral radii and
    Collatz-Wielandt bounds are those of the full matrices.  evals
    counts the matrices built on both meshes.  BadParams unless
    0 < root_tol < inf, 0 < radius_tol < inf and
    0 < initial[0] < initial[1] < inf, before any plan; then the bound
    plan raises NoContractionBound (kappa >= 1) or MissingDerivatives
    (a custom map without the chain's data), also before any plan.
    """
    _check_tols(root_tol, radius_tol)  # the coarse floor would hide root_tol
    _check_bracket(initial)
    bound_plan = BoundPlan(fam)
    plan = closed_plan(fam, mesh)

    def level(coarse_plan):
        last = np.ones(coarse_plan.dim)  # each coarse eigenvector in turn
        enclose, _ = _enclosures(coarse_plan, lambda s, which: None,
                                 radius_tol, seed=last)
        return lambda s: _log_midpoint(*enclose(s, "M"), radius_tol), last

    start, seed, coarse_evals = _coarse_start(
        fam, mesh, plan, level, initial, root_tol, radius_tol,
        _BRACKET_MIN_ENTRIES)
    models: dict[float, ErrorModel] = {}  # A and B share an s at B's root

    def coef(s: float, which: str) -> float:
        if s not in models:
            models[s] = error_model(fam, s, mesh.h, bound_plan)
        return _coef(models[s], which)

    enclose, radii = _enclosures(plan, coef, radius_tol, seed=seed)

    def log_r(s: float, which: str) -> float:
        return _log_midpoint(*enclose(s, which), radius_tol)

    # margin is at least radius_tol, so an accepted enclosure lies on
    # its midpoint's side of 1; at the default tolerances it is
    # root_tol/10, far above the rounding of the matrix and its solve.
    # Each midpoint may sit about radius_tol/2 off, so the band grows by
    # three times the part of radius_tol above root_tol/10.
    margin = max(0.1 * root_tol, radius_tol)
    top = root_tol + 4.0 * (margin - 0.1 * root_tol)
    aim, tol = 0.5 * (top + margin), 0.5 * (top - margin)
    s_up = _root(lambda x: log_r(x, "B") + aim, initial, tol, start)[0]
    b_points = {s: log_r(s, "B") for s, which in radii if which == "B"}
    slope = _slope(b_points, s_up) if len(b_points) > 1 else start[1]
    s_lo = _root(lambda x: log_r(x, "A") - aim, initial, tol,
                 (s_up, slope))[0]
    return DimensionBracket(
        s_lower=s_lo, s_upper=s_up, mesh_h=mesh.h, family_id=fam.family_id,
        evals=coarse_evals + len(radii),
        certified=radii[s_up, "B"][1] <= 1.0 and radii[s_lo, "A"][0] >= 1.0,
    )


@dataclass(frozen=True)
class ConvergenceStudy:
    """Bracket widths across a mesh ladder with the fitted order."""

    rows: tuple[tuple[float, float, float, float], ...]  # (h, lo, up, width)
    fitted_order: float


def convergence_study(fam: MapFamily, hs, intervals=None,
                      **kwargs) -> ConvergenceStudy:
    """Brackets on a ladder of mesh widths; order fit on log width vs log h.

    The meshes are built first, so make_mesh checks every width before
    any bracket, and each realized width mesh.h is bracketed once (the
    first mesh in hs that realizes it), in ascending order; if fewer
    than two distinct realized widths remain, BadParams is raised
    before any bracket.
    """
    if intervals is None:
        intervals = [fam.domain]
    meshes = {}  # realized width -> first mesh that realizes it
    for mesh in sorted((make_mesh(intervals, h=h) for h in hs),
                       key=lambda mesh: mesh.h):
        meshes.setdefault(mesh.h, mesh)
    if len(meshes) < 2:
        raise BadParams("mesh ladder needs two distinct realized widths, "
                        f"got {sorted(meshes)}")
    rows = []
    for mesh in meshes.values():
        br = bracket_dimension(fam, mesh, **kwargs)
        rows.append((mesh.h, br.s_lower, br.s_upper, br.width))
    slope = float(np.polyfit(np.log([r[0] for r in rows]),
                             np.log([max(r[3], 1e-300) for r in rows]), 1)[0])
    return ConvergenceStudy(rows=tuple(rows), fitted_order=slope)
