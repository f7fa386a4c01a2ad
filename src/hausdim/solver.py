"""Dimension brackets by root finding on certified log-radius curves.

The spectral radius of the assembled matrices is strictly decreasing and
log-convex in s, so log r(s) has a single root found by a secant
iteration safeguarded with bisection.  The lower matrix roots give a
certified lower dimension bound (r(A_s) >= 1), the upper matrix roots a
certified upper bound (r(B_s) <= 1); a nudge pass moves each endpoint
outward in steps of root_tol until the enclosure endpoint itself
certifies the inequality.

A bracket first finds the root of log r(M_s) on a mesh 16 times
coarser, where a matrix costs a sixteenth as much; the A/B roots
converge to the dimension like h**2, so that root lies close to the
fine ones.  The fine B root is then taken from it by one Newton step
with the coarse slope and secant steps, and the fine A root the same
way from the B root.  Each fine root aims outward, at
root_tol/10 <= |log r| <= root_tol on the side its certificate needs,
so the nudge pass rarely has to move it.

Within one bracket every power solve on a mesh starts from the
eigenvector of the one before it, and a solve away from the root stops
as soon as its enclosure excludes 1 and pins log r to 1%, which is all
a secant step needs there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import BoundPlan
from .discretize import ErrorModel, collocation_plan, error_model, make_mesh
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


def solve_root(f, bracket: tuple[float, float],
               root_tol: float = ROOT_TOL) -> tuple[float, int]:
    """Root of a decreasing function by secant steps inside a sign bracket.

    An endpoint with |f| <= root_tol is returned at once.  Otherwise the
    bracket is halved or doubled until f changes sign; each secant step
    stays inside the current bracket (bisection otherwise).  Returns
    (root, evaluations) after at most 40 evaluations; NoSignChange if no
    sign change exists in [1e-6, 64] or f gives NaN (+-inf are signs),
    BadParams unless 0 < root_tol < inf.
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    if not (0.0 < lo < hi):
        raise BadParams(f"bad bracket {bracket}")
    if not 0.0 < root_tol < math.inf:
        raise BadParams(f"need finite root_tol > 0, got {root_tol}")
    evals = 0

    def ev(x: float) -> float:
        nonlocal evals
        evals += 1
        fx = float(f(x))
        if math.isnan(fx):
            raise NoSignChange(f"f gives NaN at s = {x}")
        return fx

    flo = ev(lo)
    fhi = ev(hi)
    while flo < -root_tol:
        if lo <= _S_MIN or evals >= _MAX_EVALS:
            raise NoSignChange(f"no positive value down to s = {lo}")
        hi, fhi = lo, flo
        lo = max(_S_MIN, lo / _EXPAND)
        flo = ev(lo)
    while fhi > root_tol:
        if hi >= _S_MAX or evals >= _MAX_EVALS:
            raise NoSignChange(f"no negative value up to s = {hi}")
        lo, flo = hi, fhi
        hi = min(_S_MAX, hi * _EXPAND)
        fhi = ev(hi)
    if abs(flo) <= root_tol:
        return lo, evals
    if abs(fhi) <= root_tol:
        return hi, evals
    a, fa = lo, flo
    b, fb = hi, fhi
    x0, f0, x1, f1 = a, fa, b, fb
    while evals < _MAX_EVALS:
        denom = f1 - f0
        if denom != 0.0 and math.isfinite(denom):
            x = x1 - f1 * (x1 - x0) / denom
        else:
            x = 0.5 * (a + b)
        if not a < x < b:
            x = 0.5 * (a + b)
        fx = ev(x)
        x0, f0, x1, f1 = x1, f1, x, fx
        if abs(fx) <= root_tol:
            return x, evals
        if fx > 0.0:
            a, fa = x, fx
        else:
            b, fb = x, fx
        if b - a <= 4.0 * _EPS * max(1.0, abs(b)):
            break
    return (a if abs(fa) <= abs(fb) else b), evals


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


_NUDGE_STEPS = 64
_COARSEN = 16  # cell width of the coarse mesh, in fine cell widths
_START_STEPS = 4  # steps from a start point before solve_root takes over


def _enclosures(plan, coef, radius_tol: float):
    """Memoized enclose(s, which) -> (r_lo, r_hi, converged) on one plan.

    coef(s, which) gives the matrix's correction coefficient (None for
    M).  Every power solve starts from the eigenvector of the one before
    and may stop once its enclosure settles the sign of log r to 1%.
    """
    radii: dict[tuple[float, str], tuple[float, float, bool]] = {}
    seed = None  # eigenvector of the latest solve, the next one's start

    def enclose(s: float, which: str) -> tuple[float, float, bool]:
        nonlocal seed
        if (s, which) not in radii:
            enc = power_enclosure(plan.matrix(s, coef(s, which)),
                                  tol=radius_tol, seed_vec=seed,
                                  sign_rel=_SIGN_REL)
            seed = enc.eigvec
            radii[s, which] = (enc.r_lo, enc.r_hi, enc.converged)
        return radii[s, which]

    return enclose, radii


def _slope(points: dict[float, float], s: float) -> float:
    """Secant slope through the two points nearest s."""
    (s0, f0), (s1, f1) = sorted(points.items(),
                                key=lambda p: abs(p[0] - s))[:2]
    return (f1 - f0) / (s1 - s0)


def _coarse_mesh(mesh):
    """The same intervals as mesh, meshed 16 times coarser."""
    return make_mesh([(p.a, p.b) for p in mesh.pieces], h=_COARSEN * mesh.h)


def _coarse_root(fam: MapFamily, mesh, initial: tuple[float, float],
                 root_tol: float, radius_tol: float
                 ) -> tuple[float, float, int]:
    """Root of log r(M_s) on the same intervals meshed 16 times coarser.

    Returns the root, the slope of log r between the two evaluated
    points nearest it, and the number of matrices built.  The coarse
    plan is dropped on return.
    """
    enclose, _ = _enclosures(collocation_plan(fam, _coarse_mesh(mesh)),
                             lambda s, which: None, radius_tol)
    points: dict[float, float] = {}

    def log_r(s: float) -> float:
        points[s] = _log_midpoint(*enclose(s, "M"), radius_tol)
        return points[s]

    s_c, _ = solve_root(log_r, initial, root_tol)
    return s_c, _slope(points, s_c), len(points)


def _toward_root(x: float, fx: float, slope: float) -> float:
    """Newton step of a decreasing f from x, kept within a factor 2 of x.

    A step that would not move, or a slope that is not negative, goes
    the factor 2 toward the root.
    """
    lo, hi = x / _EXPAND, x * _EXPAND
    t = x - fx / slope if slope < 0.0 else math.nan
    if not (lo <= t <= hi and t != x):
        t = hi if fx > 0.0 else lo
    return t


def _root_from(f, s: float, slope: float, tol: float) -> float:
    """Root of a decreasing convex f from a start s near it.

    One Newton step with the given slope, then secant steps through the
    last two points, until |f| <= tol or f changes sign.  As f is
    convex, a step from its negative side crosses the root unless the
    slope is off, and steps from its positive side close in on it.
    After 4 steps, or at the first sign change, solve_root finishes on
    the last two points: a bracket with its ends already evaluated,
    which it widens as usual if f has not changed sign.
    """
    xs, fs = [s], [f(s)]
    for _ in range(_START_STEPS):
        if abs(fs[-1]) <= tol:
            return xs[-1]
        if len(xs) > 1:
            if (fs[-1] > 0.0) != (fs[-2] > 0.0):
                break
            slope = (fs[-1] - fs[-2]) / (xs[-1] - xs[-2])
        xs.append(_toward_root(xs[-1], fs[-1], slope))
        fs.append(f(xs[-1]))
    return solve_root(f, (min(xs[-2:]), max(xs[-2:])), tol)[0]


def bracket_dimension(fam: MapFamily, mesh, *, root_tol: float = ROOT_TOL,
                      radius_tol: float = RADIUS_TOL,
                      initial: tuple[float, float] = INITIAL_BRACKET
                      ) -> DimensionBracket:
    """Bracket the dimension with certified enclosure endpoints.

    The root s_c of log r(M_s) on the same intervals meshed 16 times
    coarser is found by solve_root from initial; that plan is dropped
    before the fine one is built.  The fine B root starts at s_c with
    one Newton step on the coarse slope and aims at
    -root_tol <= log r(B) <= -root_tol/10; the A root starts the same
    way at the B root, on the slope of log r(B), and aims at
    root_tol/10 <= log r(A) <= root_tol.  Each lands on the side its
    certificate needs: s_upper is nudged upward until the enclosure
    satisfies r_hi(B) <= 1, s_lower downward until r_lo(A) >= 1.  If 64 nudge steps do not
    certify an endpoint the bracket is returned with certified=False.
    The fine collocation plan and the bound plan are built once and
    serve every s the fine solves visit.  evals counts the matrices
    built on both meshes.
    """
    s_c, slope, coarse_evals = _coarse_root(fam, mesh, initial, root_tol,
                                            radius_tol)
    plan = collocation_plan(fam, mesh)
    bound_plan = BoundPlan(fam)
    models: dict[float, ErrorModel] = {}  # A and B share an s at B's root

    def coef(s: float, which: str) -> float:
        if s not in models:
            models[s] = error_model(fam, s, mesh.h, bound_plan)
        return _coef(models[s], which)

    enclose, radii = _enclosures(plan, coef, radius_tol)

    def log_r(s: float, which: str) -> float:
        return _log_midpoint(*enclose(s, which), radius_tol)

    def certify(s: float, which: str, step: float) -> tuple[float, bool]:
        """Move s by step until its enclosure certifies the endpoint."""
        for _ in range(_NUDGE_STEPS + 1):
            r_lo, r_hi, _ = enclose(s, which)
            if (r_hi <= 1.0) if which == "B" else (r_lo >= 1.0):
                return s, True
            s += step
        return s, False

    # Aim for root_tol/10 <= |log r| <= root_tol on the side each
    # certificate needs, so an endpoint keeps a margin of root_tol/10
    # there, far above the rounding of the matrix and its power solve.
    margin = 0.1 * root_tol
    aim, tol = 0.5 * (root_tol + margin), 0.5 * (root_tol - margin)
    s_b = _root_from(lambda x: log_r(x, "B") + aim, s_c, slope, tol)
    b_points = {s: log_r(s, "B") for s, which in radii if which == "B"}
    if len(b_points) > 1:
        slope = _slope(b_points, s_b)
    s_up, cert_up = certify(s_b, "B", root_tol)
    s_a = _root_from(lambda x: log_r(x, "A") - aim, s_b, slope, tol)
    s_lo, cert_lo = certify(s_a, "A", -root_tol)
    return DimensionBracket(
        s_lower=s_lo, s_upper=s_up, mesh_h=mesh.h, family_id=fam.family_id,
        evals=coarse_evals + len(radii), certified=cert_up and cert_lo,
    )


@dataclass(frozen=True)
class ConvergenceStudy:
    """Bracket widths across a mesh ladder with the fitted order."""

    rows: tuple[tuple[float, float, float, float], ...]  # (h, lo, up, width)
    fitted_order: float


def convergence_study(fam: MapFamily, hs, intervals=None,
                      **kwargs) -> ConvergenceStudy:
    """Brackets on a ladder of mesh widths; order fit on log width vs log h.

    The meshes are built first and each realized width mesh.h is
    bracketed once (the first mesh that realizes it); if fewer than two
    distinct realized widths remain, BadParams is raised before any
    bracket.
    """
    if intervals is None:
        intervals = [fam.domain]
    meshes = {}  # realized width -> first mesh that realizes it
    for h in sorted(float(h) for h in hs):
        mesh = make_mesh(intervals, h=h)
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
