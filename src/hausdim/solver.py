"""Dimension brackets by root finding on certified log-radius curves.

The spectral radius of the assembled matrices is strictly decreasing and
log-convex in s, so log r(s) has a single root found by a secant
iteration safeguarded with bisection.  The lower matrix roots give a
certified lower dimension bound (r(A_s) >= 1), the upper matrix roots a
certified upper bound (r(B_s) <= 1); a nudge pass moves each endpoint
outward in steps of root_tol until the enclosure endpoint itself
certifies the inequality.

Within one bracket every power solve starts from the eigenvector of the
one before it, and a solve away from the root stops as soon as its
enclosure excludes 1 and pins log r to 1%, which is all a secant step
needs there.  The A solve starts on a short bracket below the B root:
A <= B entrywise, so r(A) <= 1 there.
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

    The bracket is halved or doubled until f changes sign, then each
    secant candidate is accepted only inside the current bracket
    (bisection otherwise).  Returns (root, evaluations) after at most 40
    evaluations; NoSignChange if no sign change exists in [1e-6, 64].
    root_tol must be finite and positive (BadParams otherwise).
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
        return float(f(x))

    flo = ev(lo)
    fhi = ev(hi)
    while flo < 0.0:
        if lo <= _S_MIN or evals >= _MAX_EVALS:
            raise NoSignChange(f"no positive value down to s = {lo}")
        hi, fhi = lo, flo
        lo = max(_S_MIN, lo / _EXPAND)
        flo = ev(lo)
    while fhi > 0.0:
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


def bracket_dimension(fam: MapFamily, mesh, *, root_tol: float = ROOT_TOL,
                      radius_tol: float = RADIUS_TOL,
                      initial: tuple[float, float] = INITIAL_BRACKET
                      ) -> DimensionBracket:
    """Bracket the dimension with certified enclosure endpoints.

    s_upper comes from the root of log r(B_s) nudged upward until the
    enclosure satisfies r_hi(B) <= 1; s_lower from the root of
    log r(A_s) nudged downward until r_lo(A) >= 1.  If 64 nudge steps do
    not certify an endpoint the bracket is returned with certified=False.
    The A solve starts on a short bracket just below the B root.  The
    collocation plan and the bound plan are built once and serve every s
    the solves visit; each power solve starts from the eigenvector of
    the one before and may stop once its enclosure settles the sign of
    log r to 1% (sign_rel).
    """
    plan = collocation_plan(fam, mesh)
    bound_plan = BoundPlan(fam)
    models: dict[float, ErrorModel] = {}  # A and B share an s at B's root
    radii: dict[tuple[float, str], tuple[float, float, bool]] = {}
    seed = None  # eigenvector of the latest solve, the next one's start

    def enclose(s: float, which: str) -> tuple[float, float, bool]:
        nonlocal seed
        if (s, which) not in radii:
            if s not in models:
                models[s] = error_model(fam, s, mesh.h, bound_plan)
            matrix = plan.matrix(s, _coef(models[s], which))
            enc = power_enclosure(matrix, tol=radius_tol, seed_vec=seed,
                                  sign_rel=_SIGN_REL)
            seed = enc.eigvec
            radii[s, which] = (enc.r_lo, enc.r_hi, enc.converged)
        return radii[s, which]

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

    s_b, _ = solve_root(lambda x: log_r(x, "B"), initial, root_tol)
    # The slope of log r(B) near s_b, from the two points of its root
    # solve nearest s_b (radii holds no other point yet).
    (s0, f0), (s1, f1) = sorted(((s, log_r(s, "B")) for s, _ in radii),
                                key=lambda v: abs(v[0] - s_b))[:2]
    slope = (f1 - f0) / (s1 - s0)
    s_up, cert_up = certify(s_b, "B", root_tol)
    # log r(A) <= log r(B) ~ 0 at s_b, and both fall at about B's slope:
    # twice that step below s_b, plus four root_tol, should reach
    # log r(A) > 0; solve_root widens a bracket that falls short.
    reach = 2.0 * abs(log_r(s_b, "A")) / abs(slope) if slope else math.inf
    s_a, _ = solve_root(lambda x: log_r(x, "A"),
                        (max(0.5 * s_b, s_b - reach - 4.0 * root_tol), s_b),
                        root_tol)
    s_lo, cert_lo = certify(s_a, "A", -root_tol)
    return DimensionBracket(
        s_lower=s_lo, s_upper=s_up, mesh_h=mesh.h, family_id=fam.family_id,
        evals=len(radii), certified=cert_up and cert_lo,
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
