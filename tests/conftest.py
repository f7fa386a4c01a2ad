import math

import numpy as np
import pytest

from hausdim import (
    MapSpec,
    collocation_plan,
    error_model,
    make_custom_family,
    power_enclosure,
)


def hat_matrices(fam, mesh, s):
    """(A, M, B, model) at s on one hat-basis plan, as enclosure_at builds them."""
    model = error_model(fam, s, mesh.h)
    plan = collocation_plan(fam, mesh)
    return (plan.matrix(s, model.coef_hi), plan.matrix(s),
            plan.matrix(s, model.coef_lo), model)


def one_step_enclosures(matrix, steps):
    """The (lo, hi) of each of the first steps power iterates, and the last.

    Each step is its own power_enclosure call, stopped after one matvec
    by tol = inf and started from the previous call's eigvec: the same
    float operations as one solve of that many iterations.
    """
    w, bounds = None, []
    for _ in range(steps):
        enc = power_enclosure(matrix, tol=math.inf, seed_vec=w)
        bounds.append((enc.r_lo, enc.r_hi))
        w = enc.eigvec
    return bounds, w


def make_poly_family():
    """Custom cubic pair on [0,1]: theta(x) = (x + 0.2 x^3)/4 (+ 0.6).

    Increasing convex maps with increasing weight g = (1 + 0.6 x^2)/4,
    so the sign conditions hold for s >= 0.5; kappa = 0.4.
    """
    def base(x):
        return (x + 0.2 * x**3) / 4.0

    def d1(x):
        return (1.0 + 0.6 * x**2) / 4.0

    def d2(x):
        return 0.3 * x

    def d3(x):
        return 0.3 * np.ones_like(np.asarray(x, dtype=float))

    def log_w(x):
        return np.log1p(0.6 * x**2) - np.log(4.0)

    def r1(x):
        return 1.2 * x / (1.0 + 0.6 * x**2)

    def r2(x):
        return 1.2 / (1.0 + 0.6 * x**2)

    def r3(x):
        return np.zeros_like(np.asarray(x, dtype=float))

    left = MapSpec(label="poly-left", eval=base, d1=d1, d2=d2, d3=d3,
                   log_weight=log_w, weight_r1=r1, weight_r2=r2,
                   weight_r3=r3, d1_sup=0.4)
    right = MapSpec(label="poly-right",
                    eval=lambda x: base(x) + 0.6,
                    d1=d1, d2=d2, d3=d3, log_weight=log_w,
                    weight_r1=r1, weight_r2=r2, weight_r3=r3, d1_sup=0.4)
    return make_custom_family([left, right], (0.0, 1.0), label="poly-cubic")


@pytest.fixture
def poly_fam():
    return make_poly_family()
