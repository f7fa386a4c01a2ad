"""Oracles for the benchmark's results, one per family type.

* Affine families: the exact Moran root of sum r_i^s = 1 (mpmath, 40
  digits).  For affine maps the eigenfunction is constant and
  r(L_s) = sum r_i^s exactly, so a certified bracket must contain it.
* Cantor a = 0: exactly ln 2 / ln 3.
* Other certified rows: the bracket must intersect the published one
  (both claim to contain the same dimension).
* Degree-d estimates: distance outside the reference interval (the
  published certified bracket, or a preset's value +- its published match
  tolerance) must not exceed HO_TOL.

A certified bracket that excludes an exact value by at most
KNOWN_ROUNDING_MISS is the known float-rounding defect of ROADMAP item 1
(the certificate compares float Collatz-Wielandt ratios with 1 without a
rounding allowance).  It counts as a failed item, but it does not make
the run incorrect; any other failure does.
"""

from __future__ import annotations

import functools

import mpmath

DIGITS = 40

# The widening ROADMAP item 1 may add to a bracket; a miss of an exact
# value this small is float rounding in the certificate, not a wrong
# bracket.
KNOWN_ROUNDING_MISS = 1e-13

# highorder_dimension accepts s once |log|lambda(s)|| <= root_tol (1e-12),
# and the power iteration settles |lambda| to radius_tol (1e-13) relative
# per step; allowing ten steps of drift after settling gives an error in
# log|lambda| of at most root_tol + 10 * radius_tol = 2e-12.  Every digit
# set here has |d log|lambda| / ds| >= 1.26 (the smallest, {1,2}, measured
# at the root), so the estimate lies within 2e-12 of the root of the
# discretized problem.  At degree 6 and h = 0.002 the discretization
# error is far below that.  The {10,11} estimate lands 1.8e-14 above the
# printed upper end, inside this tolerance.
HO_TOL = 2e-12


def _mpf(x: float):
    return mpmath.mpf(float(x))


def _moran_root(ratios) -> "mpmath.mpf":
    """Root of sum r_i^s = 1 by bisection on (0, 1]; sum r_i < 1 < len."""
    rs = [_mpf(r) for r in ratios]
    lo, hi = mpmath.mpf(0), mpmath.mpf(1)
    for _ in range(4 * DIGITS):
        mid = (lo + hi) / 2
        if sum(r ** mid for r in rs) > 1:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


@functools.lru_cache(maxsize=None)
def exact_value(oracle: tuple):
    """The exact dimension for exact oracles, else None."""
    with mpmath.workdps(DIGITS):
        if oracle[0] == "log2_log3":
            return mpmath.log(2) / mpmath.log(3)
        if oracle[0] == "moran":
            return _moran_root(oracle[1])
    return None


def check(item: dict, result: dict) -> dict:
    """Verdict on one item: status pass | known_defect | fail, plus the
    bracket width or estimate error and a note for anything not passed."""
    if "error" in result:
        return {"status": "fail", "note": result["error"]}
    oracle = item["oracle"]
    if item["mode"] == "estimate":
        s = float.fromhex(result["s"])
        err = max(oracle[1] - s, s - oracle[2], 0.0)
        verdict = {"status": "pass" if err <= HO_TOL else "fail",
                   "ho_err": err}
        if err > 0.0:
            verdict["note"] = f"estimate {err:.3g} outside its reference"
        return verdict
    lo = float.fromhex(result["s_lower"])
    hi = float.fromhex(result["s_upper"])
    verdict = {"status": "pass", "width": hi - lo}
    exact = exact_value(oracle)
    with mpmath.workdps(DIGITS):
        if exact is not None:
            miss = float(max(_mpf(lo) - exact, exact - _mpf(hi), 0))
            what = "the exact dimension"
        else:
            miss = max(lo - oracle[2], oracle[1] - hi, 0.0)
            what = "the published bracket"
    if miss > 0.0:
        known = exact is not None and miss <= KNOWN_ROUNDING_MISS
        verdict["status"] = "known_defect" if known else "fail"
        verdict["note"] = f"excludes {what} by {miss:.3g}" + (
            " (float rounding, ROADMAP item 1)" if known else "")
    if not result["certified"]:
        verdict["status"] = "fail"
        verdict["note"] = "returned certified=False"
    return verdict
