import dataclasses
import math

import numpy as np
import pytest

from hausdim import (
    BadIndex,
    BadParams,
    EmptyFamily,
    MapSpec,
    MissingDerivatives,
    NoContractionBound,
    NonPositiveDigit,
    OutOfDomain,
    ParamOutOfRange,
    apply_word,
    continuants,
    eval_map,
    general_constants,
    ifs,
    make_cantor_family,
    make_custom_family,
    make_mobius_family,
    reduce_domain,
)


def test_mobius_family_basic():
    fam = make_mobius_family([2, 1])
    assert fam.n_maps == 2
    # Domain is [0, 1/gamma] with gamma the smallest digit.
    assert fam.domain == (0.0, 1.0)
    fam3 = make_mobius_family([3])
    assert fam3.domain == (0.0, pytest.approx(1.0 / 3.0))
    fam5 = make_mobius_family([2, 4, 6, 8, 10])
    assert fam5.n_maps == 5
    assert fam5.domain == (0.0, 0.5)


def test_mobius_family_explicit_domain():
    # A wider explicit domain is accepted when maps still send it inside.
    fam = make_mobius_family([3, 5], domain=(0.0, 1.0))
    assert fam.domain == (0.0, 1.0)
    # theta_3(1) = 1/4 and theta_5(0) = 1/5 stay inside [0, 1].
    assert eval_map(fam, 0, 1.0) == pytest.approx(0.25)
    assert eval_map(fam, 1, 0.0) == pytest.approx(0.2)


def test_family_domains_are_real_numbers(poly_fam):
    # Domain ends are read as real numbers, never parsed or cast.
    for domain, bad in ((("0", 1.0), "domain start"),
                        ((0.0, 1 + 0j), "domain end"),
                        ((False, 1.0), "domain start")):
        with pytest.raises(BadParams, match=f"{bad} must be a real number"):
            make_mobius_family([3, 5], domain=domain)
        with pytest.raises(BadParams, match=f"{bad} must be a real number"):
            make_custom_family(poly_fam.maps, domain)
    fam = make_mobius_family([3, 5], domain=(np.float32(0.0), np.int64(1)))
    assert fam.domain == (0.0, 1.0)


@pytest.mark.parametrize("domain,message", [
    ((0.0, 1.0, 5.0), "two ends"),
    ((0.0,), "two ends"),
    (1.0, "two ends"),
    ((0.0, math.inf), "bounded"),
    ((math.nan, 1.0), "bounded"),
    ((1.0, 0.0), "empty domain"),
], ids=["three_ends", "one_end", "scalar", "infinite", "nan", "reversed"])
def test_family_domains_are_two_finite_increasing_ends(poly_fam, domain,
                                                       message):
    # Checked before any map is: no end is dropped, and no map is blamed.
    with pytest.raises(ParamOutOfRange, match=message):
        make_custom_family(poly_fam.maps, domain)
    with pytest.raises(ParamOutOfRange, match=message):
        make_mobius_family([1, 2], domain=domain)


def test_mobius_family_rejects_bad_digits():
    with pytest.raises(NonPositiveDigit):
        make_mobius_family([0, 2])
    with pytest.raises(NonPositiveDigit):
        make_mobius_family([-1])
    with pytest.raises(EmptyFamily):
        make_mobius_family([])
    with pytest.raises(ParamOutOfRange):
        make_mobius_family([2, 2])
    # A digit is read exactly, never truncated or parsed.
    for digits, bad in (([1.5, 2], "1.5"), (["3", 2], "'3'"),
                        ([2.0, 3], "2.0"), ([True, 2], "True")):
        with pytest.raises(BadParams, match=f"digit must be an integer, "
                                            f"got {bad}"):
            make_mobius_family(digits)
    fam = make_mobius_family(np.array([2, 1]))
    assert fam.family_id == "cf:1,2" and fam.digits == (1, 2)


def test_mobius_map_values():
    fam = make_mobius_family([1, 2])
    # theta_b(x) = 1/(x+b): value, then first three derivatives.
    assert eval_map(fam, 0, 0.0) == pytest.approx(1.0)
    assert eval_map(fam, 0, 0.0, order=1) == pytest.approx(-1.0)
    assert eval_map(fam, 0, 0.0, order=2) == pytest.approx(2.0)
    assert eval_map(fam, 0, 0.0, order=3) == pytest.approx(-6.0)
    assert eval_map(fam, 1, 0.5, 0) == pytest.approx(0.4)
    assert eval_map(fam, 1, 0.5, 1) == pytest.approx(-0.16)


def test_eval_map_errors():
    fam = make_mobius_family([1, 2])
    with pytest.raises(BadIndex):
        eval_map(fam, 5, 0.5)
    with pytest.raises(BadIndex):
        eval_map(fam, -1, 0.5)
    with pytest.raises(BadIndex):
        eval_map(fam, 0, 0.5, order=4)
    # Index and order are integers, never truncated floats.
    for j, order in ((0.0, 0), ("0", 0), (0, 1.0), (0, "1"), (True, 0),
                     (0, False)):
        with pytest.raises(BadIndex, match="must be an integer"):
            eval_map(fam, j, 0.5, order=order)
    assert eval_map(fam, np.int64(1), 0.0, order=np.int32(1)) == -0.25
    with pytest.raises(OutOfDomain):
        eval_map(fam, 0, 2.0)


def test_eval_map_missing_derivatives():
    spec = MapSpec(label="lin", eval=lambda x: 0.25 * x + 0.1,
                   d1=lambda x: 0.25 * np.ones_like(np.asarray(x, float)),
                   log_weight=lambda x: np.log(0.25)
                   * np.ones_like(np.asarray(x, float)),
                   d1_sup=0.25)
    fam = make_custom_family([spec], (0.0, 1.0))
    with pytest.raises(MissingDerivatives):
        eval_map(fam, 0, 0.5, order=2)


def test_cantor_family_values():
    # a = 0 is the middle-thirds pair.
    fam0 = make_cantor_family(0.0)
    assert eval_map(fam0, 0, 0.9) == pytest.approx(0.3)
    assert eval_map(fam0, 1, 0.0) == pytest.approx(2.0 / 3.0)
    assert eval_map(fam0, 1, 1.0) == pytest.approx(1.0)
    # a = 1: theta_1(x) = (x + x^3.5)/5.
    fam1 = make_cantor_family(1.0)
    assert eval_map(fam1, 0, 0.5) == pytest.approx((0.5 + 0.5**3.5) / 5.0)
    # Right map ends at 1 for every a.
    for a in (0.0, 0.25, 0.5, 1.0):
        fam = make_cantor_family(a)
        assert eval_map(fam, 1, 1.0) == pytest.approx(1.0)


def test_cantor_family_rejects_bad_parameter():
    with pytest.raises(ParamOutOfRange):
        make_cantor_family(1.5)
    with pytest.raises(ParamOutOfRange):
        make_cantor_family(-0.1)
    # a is a real number: a string is not parsed, nor a bool or a
    # complex cast.
    for a in ("0.5", 0.5 + 0j, True, None):
        with pytest.raises(BadParams, match="perturbation a must be a real"):
            make_cantor_family(a)
    assert make_cantor_family(np.float64(0.5)).family_id == "cantor:0.5"


def test_contraction_data():
    fam = make_mobius_family([1, 2])
    assert (fam.kappa, fam.mu) == (pytest.approx(0.25), 2)
    fam = make_mobius_family([2, 3])
    assert (fam.kappa, fam.mu) == (pytest.approx((1 + 4) ** -2), 2)
    fam = make_cantor_family(1.0)
    assert (fam.kappa, fam.mu) == (pytest.approx(0.9), 1)
    fam = make_cantor_family(0.0)
    assert (fam.kappa, fam.mu) == (pytest.approx(1.0 / 3.0), 1)


def test_contraction_data_custom_expansion_fails(poly_fam):
    assert (poly_fam.kappa, poly_fam.mu) == (pytest.approx(0.4), 1)
    bad = MapSpec(label="expand", eval=lambda x: np.asarray(x, float),
                  d1=lambda x: np.ones_like(np.asarray(x, float)),
                  log_weight=lambda x: np.zeros_like(np.asarray(x, float)),
                  d1_sup=1.0)
    # The family builds; the bound layer refuses it.
    fam = make_custom_family([bad], (0.0, 1.0))
    assert fam.kappa == 1.0
    with pytest.raises(NoContractionBound):
        general_constants(fam, 0.5)


def test_custom_kappa_samples_derivative_without_d1_sup():
    # A map without d1_sup contributes max |theta'| on 4096 points.  The
    # peak of theta' = c (1 - (x - x0)^2) lies off that grid, so the
    # sampled maximum depends on the grid and stays below c.
    x0 = 0.1234567

    def d1(c):
        return lambda x: c * (1.0 - (np.asarray(x, float) - x0) ** 2)

    def spec(label, c):
        return MapSpec(label=label, d1=d1(c), eval=lambda x: c * (
            np.asarray(x, float) - (np.asarray(x, float) - x0) ** 3 / 3.0))
    fam = make_custom_family([spec("lo", 0.1), spec("hi", 0.2)],
                             (0.0, 1.0 / 3.0))
    xs = np.linspace(0.0, 1.0 / 3.0, 4096)
    assert fam.kappa == float(np.max(np.abs(d1(0.2)(xs))))
    assert fam.kappa < 0.2
    assert fam.kappa != float(np.max(d1(0.2)(np.linspace(0, 1 / 3, 1000))))
    assert fam.mu == 1
    # d1_sup, where given, wins over sampling.
    with_sup = MapSpec(label="sup", eval=lambda x: 0.5 * np.asarray(x, float),
                       d1=lambda x: np.full_like(np.asarray(x, float), 0.5),
                       d1_sup=0.75)
    fam = make_custom_family([spec("lo", 0.1), with_sup], (0.0, 1.0 / 3.0))
    assert fam.kappa == 0.75


def test_contraction_words():
    # Words of length mu contract distances by at least kappa.
    rng = np.random.default_rng(7)
    for fam in (make_mobius_family([1, 2]), make_mobius_family([2, 3]),
                make_cantor_family(0.5)):
        kappa, mu = fam.kappa, fam.mu
        a, b = fam.domain
        for _ in range(50):
            word = rng.integers(0, fam.n_maps, size=mu)
            x, y = np.sort(rng.uniform(a, b, size=2))
            fx = apply_word(fam, word, x)
            fy = apply_word(fam, word, y)
            assert abs(fx - fy) <= kappa * abs(x - y) + 1e-12


def test_continuants_single_digit():
    c = continuants([4])
    assert c.A == (0, 1)
    assert c.B == (1, 4)


def test_continuants_fibonacci():
    # All-ones words give Fibonacci numbers.
    c = continuants([1] * 8)
    assert c.B == (1, 1, 2, 3, 5, 8, 13, 21, 34)
    assert c.A == (0, 1, 1, 2, 3, 5, 8, 13, 21)


def test_continuants_recursion_exact():
    rng = np.random.default_rng(3)
    for _ in range(20):
        word = [int(b) for b in rng.integers(1, 10, size=9)]
        c = continuants(word)
        for k in range(2, len(word) + 1):
            assert c.A[k] == c.A[k - 2] + word[k - 1] * c.A[k - 1]
            assert c.B[k] == c.B[k - 2] + word[k - 1] * c.B[k - 1]


def test_continuants_reject_bad_words():
    with pytest.raises(NonPositiveDigit):
        continuants([1, 0, 2])
    with pytest.raises(ParamOutOfRange):
        continuants([])
    for word in ([1.5, 2], [1, "2"], [1, True]):
        with pytest.raises(BadParams, match="digit must be an integer"):
            continuants(word)
    assert continuants(np.array([1, 2])).word == (1, 2)


def test_composition_matches_continuants():
    # theta_{b_n} o ... o theta_{b_1} = (A_{n-1} x + B_{n-1})/(A_n x + B_n).
    fam = make_mobius_family([1, 2])
    digits = np.array([1, 2])
    rng = np.random.default_rng(11)
    for _ in range(25):
        idx = rng.integers(0, 2, size=6)
        word = [int(digits[j]) for j in idx]
        c = continuants(word)
        for x in rng.uniform(0.0, 1.0, size=3):
            direct = apply_word(fam, idx, x)
            assert direct == pytest.approx(c.mobius_value(x), rel=1e-12)


def test_continuant_growth():
    # B_{2k} >= (1 + gamma^2)^k along any word over the digit set.
    rng = np.random.default_rng(5)
    for digits in ([1, 2], [1, 3], [2, 3]):
        gamma = min(digits)
        for _ in range(20):
            word = [int(b) for b in
                    rng.choice(digits, size=10)]
            c = continuants(word)
            for k in range(1, len(word) // 2 + 1):
                assert c.B[2 * k] >= (1 + gamma**2) ** k * (1 - 1e-9)


def test_continuant_ratio_range():
    # B_n / A_n >= gamma for n >= 1 over words from the digit set.
    rng = np.random.default_rng(13)
    for digits in ([1, 2], [2, 5]):
        gamma = min(digits)
        for _ in range(20):
            word = [int(b) for b in rng.choice(digits, size=8)]
            c = continuants(word)
            for n in range(1, len(word) + 1):
                if c.A[n] > 0:
                    assert c.B[n] / c.A[n] >= gamma - 1e-12


def test_reduce_domain_one_step():
    fam = make_mobius_family([1, 2])
    parts = reduce_domain(fam, 1)
    # Images are [1/2, 1] and [1/3, 1/2]; adjacent, so they merge.
    assert len(parts) == 1
    lo, hi = parts[0]
    assert lo == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert hi == pytest.approx(1.0, abs=1e-12)


def test_reduce_domain_two_steps():
    fam = make_mobius_family([1, 2])
    parts = reduce_domain(fam, 2)
    assert len(parts) == 2
    assert parts[0][0] == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert parts[0][1] == pytest.approx(3.0 / 7.0, abs=1e-12)
    assert parts[1][0] == pytest.approx(0.5, abs=1e-12)
    assert parts[1][1] == pytest.approx(0.75, abs=1e-12)


def test_reduce_domain_zero_steps_and_nesting():
    fam = make_mobius_family([1, 2])
    assert reduce_domain(fam, 0) == [fam.domain]
    assert reduce_domain(fam, np.int64(2)) == reduce_domain(fam, 2)
    for bad in (2.5, 2.0, "2", True):
        with pytest.raises(BadParams, match="iterations must be an integer"):
            reduce_domain(fam, bad)
    outer = reduce_domain(fam, 1)
    inner = reduce_domain(fam, 2)
    # Each refined interval sits inside some interval of the coarser union.
    for lo, hi in inner:
        assert any(a - 1e-12 <= lo and hi <= b + 1e-12 for a, b in outer)


def test_reduce_domain_merge_gap():
    fam = make_mobius_family([1, 2])
    merged = reduce_domain(fam, 2, merge_gap=0.2)
    # Gap between 3/7 and 1/2 is 1/14 < 0.2, so the pieces merge.
    assert len(merged) == 1
    assert merged[0][0] == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert merged[0][1] == pytest.approx(0.75, abs=1e-12)


def test_reduce_domain_rejects_negative_iterations():
    with pytest.raises(ParamOutOfRange, match="iterations must be >= 0"):
        reduce_domain(make_mobius_family([1, 2]), -1)


@pytest.mark.parametrize("gap", ["x", None, True, math.nan, -1.0, math.inf],
                         ids=["str", "none", "bool", "nan", "negative", "inf"])
def test_reduce_domain_rejects_bad_merge_gap(gap):
    # A gap that is not a finite real >= 0 is refused up front: "x" would
    # raise a raw TypeError in the merge, and NaN or -1 would leave
    # cf{1,2}'s pieces touching at 0.4, which make_mesh rejects.
    fam = make_mobius_family([1, 2])
    for k in (0, 2):
        with pytest.raises(BadParams, match="merge_gap"):
            reduce_domain(fam, k, merge_gap=gap)


@pytest.mark.parametrize("k", [5, 6])
def test_reduce_domain_caps_word_count(monkeypatch, k):
    # 34^5 words would take gigabytes; refuse before enumerating any.
    def fail(*args):
        raise AssertionError("word enumerated")

    monkeypatch.setattr(ifs, "apply_word", fail)
    with pytest.raises(BadParams, match=r"34\^%d words" % k):
        reduce_domain(make_mobius_family(range(1, 35)), k)
    with pytest.raises(BadParams):
        reduce_domain(make_mobius_family([1, 2]), 22)


def test_reduce_domain_caps_one_map_word_length(monkeypatch):
    # One map has one word of each length, but applying it k times is
    # O(k) work: the budget counts a one-map family as two maps.
    def fail(*args):
        raise AssertionError("word enumerated")

    fam = make_mobius_family([2])
    assert len(reduce_domain(fam, 21)) == 1
    monkeypatch.setattr(ifs, "apply_word", fail)
    with pytest.raises(BadParams, match=r"1\^1000000 words"):
        reduce_domain(fam, 10**6)
    with pytest.raises(BadParams):
        reduce_domain(fam, 22)


@pytest.mark.parametrize("sups,bad", [
    ((0.4, math.nan), "poly-right"),
    ((math.nan, 0.4), "poly-left"),
    ((0.1, 0.1), "poly-left"),
    ((0.4, math.inf), "poly-right"),
    ((0.4, 0.0), "poly-right"),
])
def test_custom_family_rejects_bad_d1_sup(poly_fam, sups, bad):
    # The poly maps reach slope 0.4 at x = 1.
    maps = [dataclasses.replace(spec, d1_sup=sup)
            for spec, sup in zip(poly_fam.maps, sups)]
    with pytest.raises(ParamOutOfRange, match=f"map '{bad}' has d1_sup"):
        make_custom_family(maps, poly_fam.domain)


def test_d1_sup_may_round_just_below_sampled_slope(poly_fam):
    # 1/157^2 can round one ulp below the sampled (x + 157)^-2 (numpy's
    # vectorized pow); the family must still build.
    make_mobius_family([157])
    maps = [dataclasses.replace(spec, d1_sup=math.nextafter(0.4, 0.0))
            for spec in poly_fam.maps]
    assert make_custom_family(maps, poly_fam.domain).kappa < 0.4


def test_custom_family_must_stay_inside_domain():
    esc = MapSpec(label="esc", eval=lambda x: np.asarray(x, float) + 0.8,
                  d1=lambda x: np.full_like(np.asarray(x, float), 0.5),
                  log_weight=lambda x: np.full_like(np.asarray(x, float),
                                                    np.log(0.5)),
                  d1_sup=0.5)
    with pytest.raises(OutOfDomain):
        make_custom_family([esc], (0.0, 1.0))


def test_custom_family_must_be_monotone(poly_fam):
    # theta(x) = (x - 0.5)^2 / 4 + 0.1 turns at x = 0.5.
    turn = MapSpec(label="turn",
                   eval=lambda x: 0.25 * (np.asarray(x, float) - 0.5)**2 + 0.1,
                   d1=lambda x: 0.5 * (np.asarray(x, float) - 0.5),
                   d1_sup=0.25)
    with pytest.raises(ParamOutOfRange, match="map 'turn' is not monotone"):
        make_custom_family([poly_fam.maps[0], turn], (0.0, 1.0))


def test_custom_family_weight_must_be_positive(poly_fam):
    # log g = -inf on (0.5, 1] is a weight of 0 there.
    def log_w(x):
        x = np.asarray(x, dtype=float)
        return np.where(x > 0.5, -math.inf, poly_fam.maps[1].log_weight(x))

    maps = [poly_fam.maps[0],
            dataclasses.replace(poly_fam.maps[1], log_weight=log_w)]
    with pytest.raises(ParamOutOfRange,
                       match="weight of map 'poly-right' is not positive"):
        make_custom_family(maps, poly_fam.domain)


def test_custom_family_log_weight_must_be_log_slope(poly_fam):
    # The matrix reads log_weight and the bounds read d1, so a log weight
    # that is not log|theta'| would bracket another operator.  Rounding
    # passes; a weight of 1 or one off by 1e-6 relative does not.
    log_w = poly_fam.maps[1].log_weight

    def scaled(factor):
        return lambda x: factor * log_w(x)

    for bad in (scaled(1.0 + 1e-6), scaled(2.0),
                lambda x: np.zeros_like(np.asarray(x, dtype=float))):
        maps = [poly_fam.maps[0],
                dataclasses.replace(poly_fam.maps[1], log_weight=bad)]
        with pytest.raises(ParamOutOfRange,
                           match="log_weight of map 'poly-right' is not "
                                 "log\\|theta'\\|"):
            make_custom_family(maps, poly_fam.domain)
    maps = [poly_fam.maps[0],
            dataclasses.replace(poly_fam.maps[1],
                                log_weight=scaled(1.0 + 1e-12))]
    assert make_custom_family(maps, poly_fam.domain).n_maps == 2


def test_custom_family_needs_a_map():
    with pytest.raises(EmptyFamily):
        make_custom_family([], (0, 1))


def test_custom_family_needs_a_nonempty_domain(poly_fam):
    with pytest.raises(ParamOutOfRange, match="empty domain"):
        make_custom_family(poly_fam.maps, (0.0, 0.0))


def test_family_id_strings(poly_fam):
    assert make_mobius_family([2, 1]).family_id == "cf:1,2"
    assert make_cantor_family(0.5).family_id == "cantor:0.5"
    assert poly_fam.family_id == "custom:poly-cubic"


def test_family_id_distinguishes_families():
    ids = {make_mobius_family([1, 2]).family_id,
           make_mobius_family([1, 3]).family_id,
           make_cantor_family(0.5).family_id,
           make_cantor_family(0.25).family_id}
    assert len(ids) == 4


@pytest.mark.parametrize("digits", [[1, 2], [2, 4, 6, 8, 10],
                                    list(range(1, 35)), [100, 10000]])
def test_digit_broadcast_equals_each_map_bit_for_bit(digits):
    # eval_all_maps evaluates a digit family in one broadcast over its
    # digits; every image and log weight must be the closure's own bits,
    # on mesh nodes (degree 1 and 6 node counts) and on random points,
    # in arrays of sizes that leave every SIMD remainder.
    fam = make_mobius_family(digits)
    a, b = fam.domain
    rng = np.random.default_rng(len(digits))
    points = [a + np.arange(n + 1) * (b - a) / n for n in (2000, 6 * 2000)]
    points += [rng.uniform(a, b, size) for size in (1, 7, 1001, 4099)]
    for x in points:
        images = np.empty((x.size, fam.n_maps))
        log_weights = np.empty_like(images)
        ifs.eval_all_maps(fam, x, x, images, log_weights)
        for j, spec in enumerate(fam.maps):
            assert np.array_equal(images[:, j].view(np.int64),
                                  spec.eval(x).view(np.int64))
            assert np.array_equal(log_weights[:, j].view(np.int64),
                                  spec.log_weight(x).view(np.int64))
