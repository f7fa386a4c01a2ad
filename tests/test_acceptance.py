"""Acceptance suite: one test per numbered criterion, one status line each.

Criterion 5 is implemented exactly as stated.  For decreasing-weight
digit families the upper matrix B rescales M entrywise by factors
(1 - coef_lo q) <= 1 with coef_lo > 0, so r(B) <= r(M) there and the
stated chain r(M) <= r(B) cannot hold; the test reports that honestly
instead of weakening the check.
"""

import json
import math
import time

import numpy as np
import pytest

from hausdim import (
    BoundPlan,
    bracket_dimension,
    collocation_plan,
    continuants,
    convergence_study,
    enclosure_at,
    highorder_dimension,
    hilbert_metric,
    interp_weights,
    make_cantor_family,
    make_mesh,
    make_mobius_family,
    power_enclosure,
    radius,
)
from hausdim.bounds import cantor_constants
from hausdim.cli import main
from hausdim.higher_order import _plan_matrix
from conftest import make_poly_family, one_step_enclosures

# The 15-digit display value 0.630929753571458 rounds 5.5e-16 above the
# double-precision constant; containment is asserted for the constant
# itself, intersection for the displayed enclosure around it.
LN2_LN3 = math.log(2.0) / math.log(3.0)
LN2_LN3_ENCLOSURE = (0.630929753571456, 0.630929753571458)


def _report(num, desc, ok):
    print(f"[criterion {num:02d}] {desc}: {'PASS' if ok else 'FAIL'}")


def test_criterion_01_exact_affine_case(capsys):
    t0 = time.monotonic()
    code = main(["--cantor", "0", "--n", "1000", "--format", "json", "dim"])
    elapsed = time.monotonic() - t0
    out = capsys.readouterr().out
    obj = json.loads(out)
    ok = (code == 0
          and obj["s_lower"] <= LN2_LN3 <= obj["s_upper"]
          and obj["s_lower"] <= LN2_LN3_ENCLOSURE[1]
          and LN2_LN3_ENCLOSURE[0] <= obj["s_upper"]
          and obj["width"] <= 1e-10
          and elapsed < 5.0)
    _report(1, f"affine pair bracket width {obj['width']:.2e} "
               f"in {elapsed:.2f}s", ok)
    assert ok


def test_criterion_02_desk_scale_bracket():
    t0 = time.monotonic()
    fam = make_mobius_family([1, 2])
    mesh = make_mesh((0.0, 1.0), h=1.0 / 1000.0)
    br = bracket_dimension(fam, mesh)
    elapsed = time.monotonic() - t0
    target = 0.5312805062772
    ok = (br.certified
          and br.s_lower <= target <= br.s_upper
          and br.width <= 5e-6
          and elapsed < 30.0)
    _report(2, f"desk-scale bracket width {br.width:.2e} "
               f"in {elapsed:.2f}s", ok)
    assert ok


def test_criterion_03_full_scale_spot_check():
    fam = make_mobius_family([1, 2])
    mesh = make_mesh((0.0, 1.0), h=0.0001)
    br = bracket_dimension(fam, mesh)
    ref_lo, ref_hi = 0.53128050509989, 0.53128050644980
    ref_mid = 0.5 * (ref_lo + ref_hi)
    ref_width = 1.35e-9
    ok = (br.certified
          and br.s_lower <= ref_mid <= br.s_upper
          and br.s_lower <= ref_hi and ref_lo <= br.s_upper
          and ref_width / 3.0 <= br.width <= ref_width * 3.0)
    _report(3, f"full-scale bracket [{br.s_lower:.14f}, {br.s_upper:.14f}] "
               f"width {br.width:.3e}", ok)
    assert ok


def test_criterion_04_quadratic_convergence_order():
    fam = make_mobius_family([1, 2])
    study = convergence_study(fam, [1.0 / 250.0, 1.0 / 500.0, 1.0 / 1000.0])
    ok = 1.7 <= study.fitted_order <= 2.3
    _report(4, f"width fit order {study.fitted_order:.3f}", ok)
    assert ok


def test_criterion_05_ordering_chain():
    families = [
        make_mobius_family([1, 2]),
        make_mobius_family([2, 3]),
        make_cantor_family(0.5),
        make_cantor_family(1.0),
        make_poly_family(),
    ]
    tol = 1e-12
    violations = []
    for fam in families:
        for s in (0.4, 0.6):
            for n in (50, 150):
                mesh = make_mesh(fam.domain, n=n)
                ra = enclosure_at(fam, mesh, s, "A").midpoint
                rm = enclosure_at(fam, mesh, s, "M").midpoint
                rb = enclosure_at(fam, mesh, s, "B").midpoint
                if not (ra <= rm * (1.0 + tol) and rm <= rb * (1.0 + tol)):
                    violations.append((fam.family_id, s, n, ra, rm, rb))
    ok = not violations
    _report(5, f"ordering r(A) <= r(M) <= r(B), "
               f"{len(violations)} violation(s)", ok)
    # Decreasing-weight digit families have coef_lo > 0, so B = M scaled
    # down entrywise and r(B) < r(M): the chain as stated cannot hold
    # for them.  Kept faithful; expected red.  The directions that make
    # the bracket certificates sound, r(A) <= r(L_s) <= r(B), are
    # enforced by test_criterion_02/03 containment and the solver tests.
    assert ok, (
        "r(M) <= r(B) fails for linear-interpolant digit families: "
        f"violations (family, s, n, rA, rM, rB) = {violations[:4]}"
    )


def _brute_radius_squaring(mat, steps=60):
    B = np.asarray(mat, dtype=float)
    t = 0.0
    for k in range(1, steps + 1):
        c = float(np.max(B.sum(axis=1)))
        if c == 0.0:
            return 0.0
        t += math.log(c) / 2 ** (k - 1)
        B = (B / c) @ (B / c)
    c = float(np.max(B.sum(axis=1)))
    return math.exp(t + math.log(c) / 2**steps)


def test_criterion_06_collatz_wielandt_oracle():
    rng = np.random.default_rng(17)
    checked = 0
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(2, 13))
        mat = rng.uniform(0.0, 1.0, size=(d, d))
        mat[rng.uniform(size=(d, d)) < 0.4] = 0.0
        mat += np.diag(rng.uniform(0.1, 1.0, size=d))
        # Brute force: dense eigensolver, cross-checked by normalized
        # squaring (and the characteristic polynomial in low dimension).
        r_eig = float(np.max(np.abs(np.linalg.eigvals(mat))))
        r_sq = _brute_radius_squaring(mat)
        assert r_sq == pytest.approx(r_eig, rel=1e-8)
        if d <= 4:
            r_poly = float(np.max(np.abs(np.roots(np.poly(mat)))))
            assert r_poly == pytest.approx(r_eig, rel=1e-6)
        enc = power_enclosure(mat, tol=1e-13)
        history, last = one_step_enclosures(mat, enc.iterations)
        assert np.array_equal(last, enc.eigvec)
        for lo, hi in history:
            assert lo <= r_eig * (1 + 1e-10)
            assert hi >= r_eig * (1 - 1e-10)
            worst = max(worst, lo / r_eig - 1.0, 1.0 - hi / r_eig)
        checked += 1
    ok = checked == 100
    _report(6, f"{checked} random matrices, every intermediate enclosure "
               f"contains the eigensolver radius (worst margin {worst:.1e})",
            ok)
    assert ok


def test_criterion_07_log_convexity():
    ok = True
    details = []
    for digits in ([1, 2], [2, 3]):
        fam = make_mobius_family(digits)
        mesh = make_mesh(fam.domain, n=200)

        def rad(s, fam=fam, mesh=mesh):
            return radius(fam, mesh, s, "M")

        for s0, s1 in ((0.3, 0.7), (0.4, 0.6)):
            r0, r1 = rad(s0), rad(s1)
            rm = rad(0.5 * (s0 + s1))
            passed = rm <= math.sqrt(r0 * r1) * (1.0 + 1e-10)
            ok &= passed
            details.append(f"E{digits}({s0},{s1}):{passed}")
    _report(7, "; ".join(details), ok)
    assert ok


def test_criterion_08_monotone_decrease():
    cases = [make_mobius_family([1, 2]), make_mobius_family([2, 3]),
             make_cantor_family(0.5), make_cantor_family(1.0)]
    grid = [0.2, 0.4, 0.6, 0.8, 1.0]
    ok = True
    for fam in cases:
        mesh = make_mesh(fam.domain, n=200)
        vals = [radius(fam, mesh, s, "M") for s in grid]
        ok &= all(a > b for a, b in zip(vals, vals[1:]))
    _report(8, f"r(M_s) strictly decreasing on {grid} for 4 families", ok)
    assert ok


def test_criterion_09_bound_cross_check():
    ok = True
    worst = 0.0
    for a in (0.25, 0.5, 0.75, 1.0):
        s = 0.7
        closed = cantor_constants(a, s)
        plan = BoundPlan(make_cantor_family(a))
        for name in ("kappa", "C1", "E2"):
            c = getattr(closed, name)
            b = plan.fam.kappa if name == "kappa" else plan.sup(name, s)
            rel = abs(b - c) / abs(c) if c != 0.0 else abs(b)
            worst = max(worst, rel)
            ok &= rel <= 1e-6
    # Branch continuity of C1 at the switch point a = 3/7.
    a = 3.0 / 7.0
    c = 3.5 * a
    left = c * 2.5 / (1.0 + c)
    right = c * (3.0 / (7.0 * a)) ** 0.6
    cont = abs(left - right) <= 1e-9
    ok &= cont
    _report(9, f"closed-form agreement worst rel {worst:.2e}, "
               f"C1 branch jump {abs(left - right):.1e}", ok)
    assert ok


def test_criterion_10_cantor_desk_scale(capsys):
    t0 = time.monotonic()
    code = main(["--cantor", "0.5", "--h", "0.001", "--format", "json",
                 "dim"])
    elapsed = time.monotonic() - t0
    obj = json.loads(capsys.readouterr().out)
    ref_lo, ref_hi = 0.733474573000780, 0.733474622222678
    ok = (code == 0
          and obj["certified"]
          and obj["s_lower"] <= ref_hi and ref_lo <= obj["s_upper"]
          and elapsed < 60.0)
    _report(10, f"bracket [{obj['s_lower']:.12f}, {obj['s_upper']:.12f}] "
                f"intersects reference in {elapsed:.2f}s", ok)
    assert ok


def test_criterion_11_higher_order():
    fam = make_mobius_family([1, 2])
    mesh = make_mesh(fam.domain, h=0.02)
    res = highorder_dimension(fam, mesh, 2)
    err = abs(res.s - 0.531280509905738)
    ok = err <= 1e-7
    # Degree-1 path must be bit-identical to the plain matrix M_s.
    mesh1 = make_mesh(fam.domain, n=100)
    hi1 = _plan_matrix(collocation_plan(fam, mesh1, 1), 0.531)
    m = collocation_plan(fam, mesh1).matrix(0.531)
    bitwise = (np.array_equal(hi1.data, m.data)
               and np.array_equal(hi1.indices, m.indices)
               and np.array_equal(hi1.indptr, m.indptr))
    ok &= bitwise
    _report(11, f"degree-2 error {err:.2e}, degree-1 bitwise == M: "
                f"{bitwise}", ok)
    assert ok


def test_criterion_12_property_suite():
    rng = np.random.default_rng(23)
    ok = True

    # Partition of unity of the hat interpolation.
    mesh = make_mesh((0.0, 1.0), n=61)
    for y in rng.uniform(0.0, 1.0, size=500):
        _, wl, wr = interp_weights(mesh, y)
        ok &= abs(wl + wr - 1.0) <= 1e-13

    # Hilbert metric scale invariance and triangle inequality.
    for _ in range(50):
        u = rng.uniform(0.1, 5.0, size=7)
        v = rng.uniform(0.1, 5.0, size=7)
        w = rng.uniform(0.1, 5.0, size=7)
        d = hilbert_metric(u, v)
        ok &= abs(hilbert_metric(3.7 * u, v) - d) <= 1e-12 * max(d, 1.0)
        ok &= d <= hilbert_metric(u, w) + hilbert_metric(w, v) + 1e-12

    # Continuant identities: recursion, growth, composition.
    for digits in ([1, 2], [1, 3], [2, 3]):
        gamma = min(digits)
        fam = make_mobius_family(digits)
        for _ in range(20):
            word = [int(b) for b in rng.choice(digits, size=8)]
            c = continuants(word)
            for k in range(2, 9):
                ok &= c.A[k] == c.A[k - 2] + word[k - 1] * c.A[k - 1]
                ok &= c.B[k] == c.B[k - 2] + word[k - 1] * c.B[k - 1]
            for k in range(1, 5):
                ok &= c.B[2 * k] >= (1 + gamma**2) ** k * (1 - 1e-9)
            idx = [digits.index(b) for b in word]
            from hausdim import apply_word

            x = float(rng.uniform(0.0, 1.0 / gamma))
            direct = float(apply_word(fam, idx, x))
            via = c.mobius_value(x)
            ok &= abs(direct - via) <= 1e-9 * abs(via)

        # Contraction factor kappa = (1+gamma^2)^-2 on length-2 words.
        kappa = (1 + gamma**2) ** -2
        for _ in range(50):
            i, j = rng.integers(0, len(digits), size=2)
            x, y = np.sort(rng.uniform(0.0, 1.0 / gamma, size=2))
            fx = apply_word(fam, [i, j], x)
            fy = apply_word(fam, [i, j], y)
            ok &= abs(fx - fy) <= kappa * abs(x - y) * (1 + 1e-9)

    _report(12, "interpolation partition of unity, Hilbert metric, "
                "continuant identities, contraction factor", ok)
    assert ok
