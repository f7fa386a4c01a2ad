"""Seeded workload definitions for the hausdim benchmark.

Each workload is a list of plain-data items (dicts of numbers, tuples and
strings); `child.py` turns them into hausdim families and meshes, and
`oracles.py` checks the results against them.  Nothing here imports
hausdim, so run.py can regenerate the inputs without loading numpy.

The seed only jitters mesh widths by a small relative amount, shuffles
the item order and draws the affine ratios.  It never changes the item
count or the size class, so every seed loads the same layers.

The published values below are the benchmark's own copy: an oracle that
lives in the code under test would move with it.
"""

from __future__ import annotations

import random

# Relative half-width of the seeded mesh-width jitter.
H_JITTER = 0.005

ODD_DIGITS_33 = tuple(range(1, 34, 2))
EVEN_DIGITS_34 = tuple(range(2, 35, 2))

# Published certified brackets (table1): digits -> {h: (lower, upper)}.
TABLE1 = {
    (1, 2): {1e-4: (0.53128050509989, 0.53128050644980),
             5e-5: (0.53128050598142, 0.53128050632077)},
    (1, 3): {1e-4: (0.45448907685942, 0.45448907780427),
             5e-5: (0.45448907745903, 0.45448907769761)},
    (1, 4): {1e-4: (0.41118272409575, 0.41118272491153),
             5e-5: (0.41118272460331, 0.41118272480924)},
    (2, 3): {1e-4: (0.33743678074485, 0.33743678082457),
             5e-5: (0.33743678079023, 0.33743678081090)},
    (2, 4): {1e-4: (0.30631276799370, 0.30631276807670),
             5e-5: (0.30631276803924, 0.30631276805816)},
    (10, 11): {2e-4: (0.14692123539045, 0.14692123539103),
               5e-5: (0.14692123539076, 0.14692123539080)},
    (100, 10000): {4e-4: (0.05224659263866, 0.05224659263866),
                   1e-4: (0.05224659263866, 0.05224659263866)},
    (2, 4, 6, 8, 10): {1e-4: (0.51735703083073, 0.51735703098246),
                       5e-5: (0.51735703091123, 0.51735703094801)},
    tuple(range(1, 11)): {1e-4: (0.92573758921886, 0.92573759153175),
                          5e-5: (0.92573759066470, 0.92573759124295)},
    ODD_DIGITS_33: {1e-4: (0.77051600758209, 0.77051600898599),
                    5e-5: (0.77051600843322, 0.77051600878460)},
    EVEN_DIGITS_34: {1e-4: (0.63347197012177, 0.63347197028753),
                     5e-5: (0.63347197021161, 0.63347197025258)},
    tuple(range(1, 35)): {1e-4: (0.98041962337899, 0.98041962562238),
                          5e-5: (0.98041962476506, 0.98041962532582)},
}

# Published perturbed-Cantor brackets at h = 1e-4 (table3): a -> bracket.
TABLE3 = {
    0.0: (0.630929753571456, 0.630929753571458),
    0.25: (0.691029100877742, 0.691029110502742),
    0.5: (0.733474573000780, 0.733474622222678),
    0.75: (0.767207065889322, 0.767207292955631),
    1.0: (0.796726361744928, 0.796727861914648),
}

# Published higher-order presets (table2 for {1,2}, table2b for
# {2,4,6,8,10}): (digits, degree, h, value, match tolerance).
HIGHORDER_PRESETS = (
    ((1, 2), 1, 0.01, 0.531282991861209, 1e-6),
    ((1, 2), 2, 0.02, 0.531280509905738, 1e-7),
    ((1, 2), 4, 0.04, 0.531280506277707, 1e-9),
    ((1, 2), 5, 0.05, 0.531280506277198, 1e-9),
    ((2, 4, 6, 8, 10), 3, 0.1, 0.517357031893604, 1e-8),
    ((2, 4, 6, 8, 10), 3, 0.05, 0.517357031040157, 1e-8),
    ((2, 4, 6, 8, 10), 3, 0.02, 0.517357030941730, 1e-8),
    ((2, 4, 6, 8, 10), 3, 0.01, 0.517357030937109, 1e-9),
    ((2, 4, 6, 8, 10), 3, 0.005, 0.517357030937029, 1e-8),
    ((2, 4, 6, 8, 10), 3, 0.002, 0.517357030937019, 1e-8),
    ((2, 4, 6, 8, 10), 3, 0.001, 0.517357030937018, 1e-8),
)

HIGHORDER_DEGREE = 6
HIGHORDER_H = 0.002

# Why each workload exists and which layer it loads.
RATIONALE = {
    "wide_alphabet": (
        "One bracket for cf{1..34} at h~5e-5 (dim 20001, 1.36M nonzeros per"
        " matrix): assembly- and memory-bound; discretize dominates and the"
        " triple cache sets peak RSS."),
    "published_tables": (
        "The 13 published certified rows users reproduce (table1 at h=1e-4 "
        "with at most 10 digits, all table3 rows): power iteration carries "
        "real weight beside assembly."),
    "custom_maps": (
        "Brackets through make_custom_family (seeded affine families, "
        "custom Cantor maps, digit sets with smallest digit >= 2): "
        "general_constants makes bounds the main layer."),
    "highorder": (
        "highorder_dimension at degree 6, h~0.002 on the 11 table1 digit "
        "sets plus the table2/table2b presets: degree-d assembly and "
        "dominant_magnitude do the work."),
}

WORKLOADS = tuple(RATIONALE)


def _jitter(rng: random.Random, h: float) -> float:
    return h * (1.0 + rng.uniform(-H_JITTER, H_JITTER))


def _mobius_domain(digits) -> tuple[float, float]:
    return (0.0, 1.0 / min(digits))


def _certified(item_id, family, h, domain, oracle) -> dict:
    return {"id": item_id, "mode": "bracket", "family": family, "h": h,
            "domain": domain, "oracle": oracle}


def _published(digits, h_ref: float) -> tuple:
    return ("bracket",) + TABLE1[digits][h_ref]


def _wide_alphabet(rng: random.Random) -> list[dict]:
    digits = tuple(range(1, 35))
    return [_certified(
        "cf1..34", ("mobius", digits), _jitter(rng, 5e-5),
        _mobius_domain(digits), _published(digits, 5e-5))]


def _published_tables(rng: random.Random) -> list[dict]:
    items = []
    for digits, rows in TABLE1.items():
        if 1e-4 in rows and len(digits) <= 10:
            items.append(_certified(
                "table1:cf" + ",".join(map(str, digits)), ("mobius", digits),
                _jitter(rng, 1e-4), _mobius_domain(digits),
                _published(digits, 1e-4)))
    for a, bracket in TABLE3.items():
        # a = 0 is the middle-thirds set: its oracle is exact, ln 2/ln 3.
        oracle = ("log2_log3",) if a == 0.0 else ("bracket",) + bracket
        items.append(_certified(f"table3:cantor{a}", ("cantor", a),
                                _jitter(rng, 1e-4), (0.0, 1.0), oracle))
    return items


def _affine_family(rng: random.Random, index: int) -> dict:
    """2..5 disjoint increasing affine maps on [0, 1], ratios summing < 0.9."""
    k = rng.randint(2, 5)
    total = rng.uniform(0.3, 0.9)
    weights = [rng.uniform(0.2, 1.0) for _ in range(k)]
    ratios = tuple(total * w / sum(weights) for w in weights)
    gap = (1.0 - sum(ratios)) / (k - 1)
    offsets, pos = [], 0.0
    for r in ratios:
        offsets.append(pos)
        pos += r + gap
    return _certified(f"custom:affine{index}",
                      ("affine", ratios, tuple(offsets)),
                      _jitter(rng, 1e-3), (0.0, 1.0), ("moran", ratios))


def _custom_maps(rng: random.Random) -> list[dict]:
    items = [_affine_family(rng, i) for i in range(4)]
    for a in (0.25, 0.5, 0.75, 1.0):
        items.append(_certified(f"custom:cantor{a}", ("custom_cantor", a),
                                _jitter(rng, 1e-3), (0.0, 1.0),
                                ("bracket",) + TABLE3[a]))
    for digits in ((2, 3), (10, 11), (100, 10000)):
        h_ref = min(TABLE1[digits])
        items.append(_certified(
            "custom:cf" + ",".join(map(str, digits)),
            ("custom_mobius", digits), _jitter(rng, 1e-4),
            _mobius_domain(digits), _published(digits, h_ref)))
    return items


def _highorder(rng: random.Random) -> list[dict]:
    items = []
    for digits, rows in TABLE1.items():
        if 5e-5 in rows:
            items.append({
                "id": "ho:cf" + ",".join(map(str, digits)), "mode": "estimate",
                "family": ("mobius", digits), "degree": HIGHORDER_DEGREE,
                "h": _jitter(rng, HIGHORDER_H),
                "domain": _mobius_domain(digits),
                "oracle": ("interval",) + rows[5e-5]})
    for digits, degree, h, value, tol in HIGHORDER_PRESETS:
        items.append({
            "id": f"ho:cf{','.join(map(str, digits))}:d{degree}:h{h}",
            "mode": "estimate", "family": ("mobius", digits),
            "degree": degree, "h": _jitter(rng, h),
            "domain": _mobius_domain(digits),
            "oracle": ("interval", value - tol, value + tol)})
    return items


_MAKERS = {
    "wide_alphabet": _wide_alphabet,
    "published_tables": _published_tables,
    "custom_maps": _custom_maps,
    "highorder": _highorder,
}


def make_items(workload: str, seed: int) -> list[dict]:
    """The workload's items for this seed, in seeded order."""
    rng = random.Random(f"{workload}:{seed}")
    items = _MAKERS[workload](rng)
    rng.shuffle(items)
    return items
