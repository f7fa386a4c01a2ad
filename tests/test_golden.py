"""Bit-exact pins on bracket endpoints, degree-d estimates and error models.

The bracket and degree-d values were recorded with float.hex() before the
collocation matrices were rebuilt from an s-independent plan.  Entry
order within each row, the order the matvec adds a row's entries and
the weight products are all visible here, so any change to that arithmetic fails
these tests.  The error-model values were recorded before the choice of
bound route moved into bounds.ratio_bounds; they cover the digit route,
the Cantor closed forms (certified and, at a = 1, s = 0.2, the symmetric
uncertified pair) and the generic chain of a custom family.  The
Cantor a = 0.5, s = 0.8 pair was re-recorded when K2 became a closed
form: coef_hi and R_hi each moved down one ulp, because the old seeded
search read max |q| a few ulps high.  The
general_constants values were recorded before the sweep dropped the
suprema that no bound reads; their C2, E3, K3 and M3 columns were
dropped, with no kept value re-recorded, when BoundConstants lost those
third-order fields and the word chain stopped at second order.  The sha256 pins of the CLI's JSON tables
were recorded before the sampled sign check was removed.  The brackets
and error models of the custom-wrapped Cantor a = 0.5 maps and of a
three-map affine custom family were recorded before a custom family's
word chains moved into a plan built once per bracket; they cover the
multi-word sweep and its refinement rounds.  The six bracket pins and
the table1 and table3 CLI digests were re-recorded when each power solve
of a bracket started from the previous solve's eigenvector and stopped
once its enclosure settled the sign of log r: the secant iterates move,
so every endpoint moved by at most one root_tol step (1e-12) and every
re-recorded bracket is still certified.  The table1 --scale 100 and
table2 CLI digests were re-recorded when every collocation contribution
became its own CSR entry: where two maps share a cell the matvec now
adds their products itself instead of reading one pre-merged entry.
Four table1 rows (cf{10,11} at h = 0.005, the odd and even 17-digit sets)
moved by at most 1.11e-16, the two degree-3 table2 estimates of
cf{2,4,6,8,10} by 1.11e-16, and every row still passes.  Then each row
came to hold its entries in the order collocation makes them (map by
map, each map's basis columns consecutive) instead of sorted by column,
and the degree-d nodes became those of the mesh with d*n cells per
piece.  The matvec adds a row in the new order, so these moved and were
re-recorded: the cf12_n200 s_lower 0x1.100399d8e77f3p-1 ->
0x1.100399d8e77f4p-1, the cf12_reduced2_h005 s_lower
0x1.10039c00681d5p-1 -> 0x1.10039c00681d4p-1, the degree-4, h = 0.04
estimate (in both tests that pin it) 0x1.1003ff9eee1f3p-1 ->
0x1.1003ff9eee1f5p-1, and the table1 --scale 100 (values moved by at
most 3.3e-16) and table2 (at most 2.2e-16) digests, every row still
passing.  The other pins did not move.  Last, each degree-d estimate
came to carry one power-iteration vector across its root solve and to
stop a solve once log |lambda| is pinned to 1%: the secant iterates
move, and with them the accepted root within root_tol.  Re-recorded:
the degree-4, h = 0.04 estimate (both tests) 0x1.1003ff9eee1f5p-1 ->
0x1.1003ff9eee1f4p-1 (-1.1e-16), the degree-1, h = 0.01 estimate
0x1.10045305ee0bep-1 -> 0x1.10045305ee0bap-1 (-4.4e-16), and the
table2 digest a886ae0e... -> 5d73c015... (the cf{1,2} rows moved by at
most 5.6e-16, the degree-3 cf{2,4,6,8,10} rows by at most 9.0e-15;
every row still passes).  No other pin moved.  Then every bracket
came to find its root on a mesh 16 times coarser first, take the fine
B and A roots from there in a few Newton and secant steps, and aim each
endpoint at root_tol/10 <= |log r| <= root_tol on its certified side.
The fine iterates change, so all six bracket pins moved (s_lower,
s_upper): affine3_h1e-2 by (+6.0e-13, +4.0e-13), cantor05_h1e-3 by
(-7.5e-13, +8.0e-14), cantor05custom_h1e-2 by (+3.1e-13, +6.1e-13),
cf12_n200 by (+5.7e-13, -5.4e-13), cf12_reduced2_h005 by (-2.2e-13,
+1.4e-13) and poly_h1e-2 by (+5.5e-13, +3.2e-13), every one still
certified.  The table1 --scale 100 and table3 --scale 20 digests were
re-recorded (their endpoints moved by at most 9.1e-13 and 5.0e-13,
every row still passing).  No other pin moved.  Then every degree-d
estimate on a plan of 32768 entries or more came to start on a mesh 16
times coarser and take its fine root from there, its first solve
starting from the interpolated coarse iterate.  The degree-4 and
degree-1 pins and every table2 row sit below that size and did not
move; the degree-6, h = 0.002 pin was added on the coarse start (the
cold start gives 0x1.1003ff9eed03ap-1, 3.3e-16 higher).  Then the
degree >= 2 Lagrange weights came to be built from prefix and suffix
products divided once by an exact integer, each power solve of an
estimate came to stop once its geometric tail is below tol, the coarse
start's cut-off fell to 16384 entries, and a coarse mesh keeping more
than a tenth of the fine nodes came to be skipped.  Re-recorded: the
degree-4, h = 0.04 estimate (both tests) 0x1.1003ff9eee1f4p-1 ->
0x1.1003ff9eee1f1p-1 (-3.3e-16), the degree-6, h = 0.002 estimate
0x1.1003ff9eed037p-1 -> 0x1.1003ff9eed035p-1 (-2.2e-16), the table2
digest 5d73c015... -> f46538f9... (the cf{1,2} degree-4 row moved by
-3.3e-16, three cf{2,4,6,8,10} rows by 1.1e-16 and the h = 0.001 one,
now on the coarse start, by 8.7e-15; every row still passes) and the
table1 --scale 100 digest 2b74e7b7... -> ec560675... (the cf{10,11}
rows at h = 0.02 and 0.005 and the two cf{100,10000} rows, whose
coarse meshes kept 3 of 6, 3 of 21 and 3 of 3 nodes, now have no
coarse level; their endpoints moved by at most 8.6e-14, every row
still passing).  The degree-1
estimate and every bracket pin did not move.  The sha256 pins of
`radius` stdout (text, csv, json) and of its three --dump-matrix files
were recorded while it still took A, M and B from a matrix-triple
helper, before it built them from the plan and error model itself.
The bracket of Cantor a = 0.5 on the 256 pieces of reduce_domain(., 8)
and the degree-6 estimate of cf{1,2} on reduce_domain(., 2) were
recorded while a point's cell on a many-piece mesh was still found by a
loop over the pieces.  Then brackets and degree-d estimates came to
solve on the closed node set only (the rows of the largest node set
whose rows read only its own columns, compacted where it keeps at most
3/4 of the nodes).  The spectral radii are the same, but the
Collatz-Wielandt min and max, the power iterates and the secant steps
run over fewer rows, so these moved and were re-recorded (new value,
shift): cf12_n200 (0x1.100399d8e8b4ap-1, 0x1.10040eabf1f45p-1;
-1.9e-14, -1.3e-14), cf12_reduced2_h005 (0x1.10039c0067a19p-1,
0x1.10040e418a273p-1; +3.2e-15, +1.4e-15) and poly_h1e-2
(0x1.1edee1a88f772p-1, 0x1.1ee1217dc76fbp-1; -2.3e-15, +4.6e-14), every
one still certified; the degree-4, h = 0.04 estimate (both tests)
0x1.1003ff9eee1f1p-1 -> 0x1.1003ff9eee15cp-1 (-1.7e-14), the degree-1,
h = 0.01 one 0x1.10045305ee0bap-1 -> 0x1.10045305ee024p-1 (-1.7e-14),
the degree-6, h = 0.002 one 0x1.1003ff9eed035p-1 ->
0x1.1003ff9eecfa8p-1 (-1.6e-14), the two-piece degree-6 one
0x1.1003ff9eecf6fp-1 -> 0x1.1003ff9eecfadp-1 (+6.9e-15), and the
table1 --scale 100 digest ec560675... -> 3e6434f4... (endpoints moved
by at most 3.4e-13) and table2 digest f46538f9... -> 6d4424d1... (at
most 2.2e-14), every row still passing.  The cantor05, cantor05custom
and affine3 brackets run on compacted plans too but did not move, the
cantor05_reduced8 plan keeps every node, and the table3 digest and the
`radius` outputs and dumps (which show the whole matrices) did not move.
"""

import hashlib
import math
from unittest import mock

import numpy as np
import pytest

from hausdim import (
    MapSpec,
    NoContractionBound,
    bounds,
    cli,
    bracket_dimension,
    error_model,
    highorder_dimension,
    make_cantor_family,
    make_custom_family,
    make_mesh,
    make_mobius_family,
    reduce_domain,
)
from hausdim.bounds import general_constants

from conftest import make_poly_family


def _affine3():
    """Three disjoint affine maps on [0, 1]: constant weights, zero d2, d3."""
    def const(value):
        return lambda x: np.full_like(np.asarray(x, dtype=float), value)

    def spec(j, ratio, offset):
        return MapSpec(label=f"affine-{j}",
                       eval=lambda x: ratio * np.asarray(x, dtype=float) + offset,
                       d1=const(ratio), d2=const(0.0), d3=const(0.0),
                       log_weight=const(math.log(ratio)), weight_r1=const(0.0),
                       weight_r2=const(0.0), weight_r3=const(0.0),
                       d1_sup=ratio)

    maps = [spec(j, r, t)
            for j, (r, t) in enumerate([(0.2, 0.0), (0.3, 0.35), (0.25, 0.75)])]
    return make_custom_family(maps, (0.0, 1.0), label="affine3")


def _cantor05_custom():
    return make_custom_family(make_cantor_family(0.5).maps, (0.0, 1.0))


def _cases():
    cf12 = make_mobius_family([1, 2])
    poly = make_poly_family()
    return {
        "cf12_n200": (cf12, make_mesh(cf12.domain, n=200)),
        "cantor05_h1e-3": (make_cantor_family(0.5),
                           make_mesh((0.0, 1.0), h=1e-3)),
        "poly_h1e-2": (poly, make_mesh(poly.domain, h=1e-2)),
        "cf12_reduced2_h005": (cf12, make_mesh(reduce_domain(cf12, 2),
                                               h=0.005)),
        "cantor05custom_h1e-2": (_cantor05_custom(),
                                 make_mesh((0.0, 1.0), h=1e-2)),
        "affine3_h1e-2": (_affine3(), make_mesh((0.0, 1.0), h=1e-2)),
        "cantor05_reduced8_h1e-4": (
            make_cantor_family(0.5),
            make_mesh(reduce_domain(make_cantor_family(0.5), 8), h=1e-4)),
    }


BRACKETS = {
    "cf12_n200": ("0x1.100399d8e8b4ap-1", "0x1.10040eabf1f45p-1"),
    "cantor05_h1e-3": ("0x1.7789c2718f7bep-1", "0x1.778a13efd686fp-1"),
    "poly_h1e-2": ("0x1.1edee1a88f772p-1", "0x1.1ee1217dc76fbp-1"),
    "cf12_reduced2_h005": ("0x1.10039c0067a19p-1", "0x1.10040e418a273p-1"),
    "cantor05custom_h1e-2": ("0x1.7771dfe817c2dp-1", "0x1.77b20b8f8a00ep-1"),
    "affine3_h1e-2": ("0x1.94ed79f49b60bp-1", "0x1.94ed79f49d21fp-1"),
    "cantor05_reduced8_h1e-4": ("0x1.7789fb98a4ca1p-1",
                                "0x1.7789fc4fe7350p-1"),
}


@pytest.mark.parametrize("name", sorted(BRACKETS))
def test_bracket_endpoints_bit_exact(name):
    fam, mesh = _cases()[name]
    br = bracket_dimension(fam, mesh)
    assert br.certified
    assert (br.s_lower.hex(), br.s_upper.hex()) == BRACKETS[name]


@pytest.mark.parametrize("degree,h,expect", [
    (4, 0.04, "0x1.1003ff9eee15cp-1"),
    (1, 0.01, "0x1.10045305ee024p-1"),
    (6, 0.002, "0x1.1003ff9eecfa8p-1"),
], ids=["d4-h0.04", "d1-h0.01", "d6-h0.002"])
def test_highorder_estimate_bit_exact(degree, h, expect):
    fam = make_mobius_family([1, 2])
    res = highorder_dimension(fam, make_mesh(fam.domain, h=h), degree)
    assert res.s.hex() == expect


def test_highorder_estimate_on_pieces_bit_exact():
    # Two pieces: the coarse start's iterate reaches the fine nodes of
    # each piece through _interpolate_nodal.
    fam = make_mobius_family([1, 2])
    mesh = make_mesh(reduce_domain(fam, 2), h=0.0008)
    assert len(mesh.pieces) == 2
    res = highorder_dimension(fam, mesh, 6)
    assert res.s.hex() == "0x1.1003ff9eecfadp-1"


def test_custom_wrapped_digit_maps_keep_degree_d_estimate():
    # The {1,2} inverse branches contract only over two steps: the custom
    # family has kappa = d1_sup of 1/(x+1) = 1.  Its degree-d estimate needs
    # no bound and matches the digit family's bit for bit; a certified
    # bracket needs kappa < 1.
    digits = make_mobius_family([1, 2])
    fam = make_custom_family(digits.maps, digits.domain, label="cf12")
    assert (fam.kappa, fam.mu) == (1.0, 1)
    mesh = make_mesh(fam.domain, h=0.04)
    assert highorder_dimension(fam, mesh, 4).s.hex() == "0x1.1003ff9eee15cp-1"
    with pytest.raises(NoContractionBound):
        bracket_dimension(fam, mesh)


ERROR_MODELS = {
    # (family, s): (coef_hi, coef_lo, osc, R_lo, R_hi) at h = 0.01
    ("cf12", 0.2): ("0x1.1fde825f4662ep-2", "0x1.1d934e1dae7e9p-6",
                    "0x1.999999999999ap-2", "0x1.1eb851eb851ebp-5",
                    "0x1.1eb851eb851ebp-1"),
    ("cf12", 0.5): ("0x1.0292a5d2f2226p+0", "0x1.fae7cfd2b9cfep-5",
                    "0x1.0000000000000p+0", "0x1.0000000000000p-3",
                    "0x1.0000000000000p+1"),
    ("cf12", 0.8): ("0x1.0e88badb3d928p+1", "0x1.06039948ed54fp-3",
                    "0x1.999999999999ap+0", "0x1.0a3d70a3d70a4p-2",
                    "0x1.0a3d70a3d70a4p+2"),
    ("cantor05", 0.2): ("0x1.086dd40e86ef2p+1", "0x0.0p+0",
                        "0x1.0563fc552a81dp+0", "0x0.0p+0",
                        "0x1.05be2710193c3p+2"),
    ("cantor05", 0.5): ("0x1.bd4747d6910f2p+2", "0x0.0p+0",
                        "0x1.46bcfb6a75224p+1", "0x0.0p+0",
                        "0x1.b20e50b5034f7p+3"),
    ("cantor05", 0.8): ("0x1.c4693d30ecf16p+3", "0x0.0p+0",
                        "0x1.0563fc552a81dp+2", "0x0.0p+0",
                        "0x1.b24e4b617ff65p+4"),
    ("cantor10", 0.2): ("0x1.fcf57e581f5d4p+4", "-0x1.d3db428a92782p+4",
                        "0x1.0d75627dae5c6p+2", "-0x1.e7f9a392edb2fp+5",
                        "0x1.e7f9a392edb2fp+5"),
    ("cantor10", 0.5): ("0x1.e06cf7f18a4e7p+6", "0x0.0p+0",
                        "0x1.50d2bb1d19f38p+3", "0x0.0p+0",
                        "0x1.b06d80fd98c87p+7"),
    ("cantor10", 0.8): ("0x1.094df1e4b68dcp+8", "0x0.0p+0",
                        "0x1.0d75627dae5c6p+4", "0x0.0p+0",
                        "0x1.c05e235c7da64p+8"),
    ("poly", 0.2): ("0x1.ab25aa3c4ad99p-3", "-0x1.a8fed7573f9aep-3",
                    "0x1.028f5c28f5c2ap-2", "-0x1.aa11e7c66c047p-2",
                    "0x1.aa11e7c66c047p-2"),
    ("poly", 0.5): ("0x1.2f2d24e766c4cp-1", "-0x1.2b5f700ae8265p-1",
                    "0x1.4333333333334p-1", "-0x1.2d44c118de5abp+0",
                    "0x1.2d44c118de5abp+0"),
    ("poly", 0.8): ("0x1.0fb9b0f0b73ccp+0", "-0x1.0a4aa454242a3p+0",
                    "0x1.028f5c28f5c2ap+0", "-0x1.0cfea777c75bcp+1",
                    "0x1.0cfea777c75bcp+1"),
    ("cantor05custom", 0.5): ("0x1.c55cd71515861p+2", "-0x1.ae9406179e7fdp+2",
                              "0x1.4a016e91ec10dp+1", "-0x1.b9d2d6cf6c398p+3",
                              "0x1.b9d2d6cf6c398p+3"),
    ("cantor05custom", 0.8): ("0x1.ccd65dad879afp+3", "-0x1.a857fe5d93c82p+3",
                              "0x1.0801254189a71p+2", "-0x1.ba36d93cd2134p+4",
                              "0x1.ba36d93cd2134p+4"),
    ("affine3", 0.5): ("0x0.0p+0", "-0x0.0p+0", "0x0.0p+0", "-0x0.0p+0",
                       "0x0.0p+0"),
    ("affine3", 0.8): ("0x0.0p+0", "-0x0.0p+0", "0x0.0p+0", "-0x0.0p+0",
                       "0x0.0p+0"),
}


@pytest.mark.parametrize("name,s", sorted(ERROR_MODELS))
def test_error_model_bit_exact(name, s):
    fam = {"cf12": lambda: make_mobius_family([1, 2]),
           "cantor05": lambda: make_cantor_family(0.5),
           "cantor10": lambda: make_cantor_family(1.0),
           "poly": make_poly_family,
           "cantor05custom": _cantor05_custom,
           "affine3": _affine3}[name]()
    m = error_model(fam, s, 0.01)
    got = (m.coef_hi, m.coef_lo, m.osc, m.R_lo, m.R_hi)
    assert tuple(x.hex() for x in got) == ERROR_MODELS[name, s]


GENERAL_FIELDS = ("kappa", "C1", "E2", "K2", "M1", "M2", "R_lo", "R_hi")

GENERAL_CONSTANTS = {
    # (family, s): GENERAL_FIELDS, default safety
    ("cantor05", 0.5): (
        "0x1.6000000000000p-1", "0x1.9c81ca3667150p+0", "0x1.1accccccccccdp+0",
        "0x1.93ac17ffb0d4cp+1", "0x1.4a016e91ec10dp+1", "0x1.b9d2d6cf6c398p+3",
        "-0x1.b9d2d6cf6c398p+3", "0x1.b9d2d6cf6c398p+3"),
    ("cantor05", 0.8): (
        "0x1.6000000000000p-1", "0x1.9c81ca3667150p+0", "0x1.1accccccccccdp+0",
        "0x1.b104ecc08886bp+1", "0x1.0801254189a71p+2", "0x1.ba36d93cd2134p+4",
        "-0x1.ba36d93cd2134p+4", "0x1.ba36d93cd2134p+4"),
    ("cf12", 0.5): (
        "0x1.0000000000000p-2", "0x1.58bf258bf258dp+0", "0x1.028f5c28f5c29p-2",
        "0x1.cba9876543211p+0", "0x1.cba9876543211p-1", "0x1.8596da6824c1dp+0",
        "-0x1.8596da6824c1dp+0", "0x1.8596da6824c1dp+0"),
    ("cf12", 0.8): (
        "0x1.0000000000000p-2", "0x1.58bf258bf258dp+0", "0x1.028f5c28f5c29p-2",
        "0x1.2ac7cb35053bep+1", "0x1.6fbad2b768e74p+0", "0x1.9a1ffbc1ff0e4p+1",
        "-0x1.9a1ffbc1ff0e4p+1", "0x1.9a1ffbc1ff0e4p+1"),
    ("poly", 0.5): (
        "0x1.999999999999ap-2", "0x1.83d70a3d70a3ep-1", "0x1.3645a1cac0831p-2",
        "0x1.3645a1cac0831p+0", "0x1.4333333333334p-1", "0x1.2d44c118de5abp+0",
        "-0x1.2d44c118de5abp+0", "0x1.2d44c118de5abp+0"),
    ("poly", 0.8): (
        "0x1.999999999999ap-2", "0x1.83d70a3d70a3ep-1", "0x1.3645a1cac0831p-2",
        "0x1.3645a1cac0831p+0", "0x1.028f5c28f5c2ap+0", "0x1.0cfea777c75bcp+1",
        "-0x1.0cfea777c75bcp+1", "0x1.0cfea777c75bcp+1"),
}


def _general_family(name):
    return {"cf12": lambda: make_mobius_family([1, 2]),
            "cantor05": lambda: make_cantor_family(0.5),
            "poly": make_poly_family}[name]()


@pytest.mark.parametrize("name,s", sorted(GENERAL_CONSTANTS))
def test_general_constants_bit_exact(name, s):
    c = general_constants(_general_family(name), s)
    got = tuple(float(getattr(c, f)).hex() for f in GENERAL_FIELDS)
    assert got == GENERAL_CONSTANTS[name, s]


def test_general_constants_sweeps_only_read_suprema():
    # 2 words on the grid, then 5 refinement rounds for each of the three
    # suprema C1, E2, K2: 17 grids, of which 12 differ, because suprema
    # that peak at the same end of [0, 1] share their windows.  Each
    # distinct (word, grid) chain is computed once.
    fam = make_poly_family()
    with mock.patch.object(bounds, "_word_chain",
                           wraps=bounds._word_chain) as chain:
        general_constants(fam, 0.8)
    grids = {(c.args[1], c.args[2].tobytes()) for c in chain.call_args_list}
    assert chain.call_count == len(grids) == 12


CLI_TABLES = {
    # sha256 of the stdout of `hausdim --format json <args>`; exit code 0
    "table1 --scale 100":
        "3e6434f4bb29d675f9177c4fd4752483d52429a61027c651bca0b6b881fbd1d6",
    "table2":
        "6d4424d111a22b94a25f88de72a26cd17a94b92666d65418709e415eeeb5d83e",
    "table3 --scale 20":
        "ae0d301b3ad3424a3a9ee81d18bd3676d76f4c6eef8f76d68d420d925fe453e4",
}


@pytest.mark.parametrize("args", sorted(CLI_TABLES))
def test_cli_json_tables_bit_exact(args, capsys):
    assert cli.main(["--format", "json", *args.split()]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == CLI_TABLES[args]


RADIUS_CASES = ("--cf 1,2 --n 40 --s 0.5", "--cantor 0.5 --h 0.01 --s 0.7")
RADIUS_OUTPUT = {
    # sha256 of the stdout of `hausdim radius --format <format> <args>`
    (RADIUS_CASES[0], "text"):
        "673dff3dc2bb123e381a3821abc4c4ed331a0428de6190dd7d1acc04d0319222",
    (RADIUS_CASES[0], "csv"):
        "f0a2a6b357c12789f3250d32c7bd9851c391cd7608f8d5439c9a5e07c8d88202",
    (RADIUS_CASES[0], "json"):
        "c1843eef9d9f481bfa9146b44fb0a841b19c7fa126b071457d3ac509fad60322",
    (RADIUS_CASES[1], "text"):
        "604daef931a44268a17487056ef2305956136a29fc0adaabb059d5bcea5c5881",
    (RADIUS_CASES[1], "csv"):
        "e9d6ff5bec70bbd9b23a3e7abf106eb9848c9676d2ba4ac2ffe52af4b60af450",
    (RADIUS_CASES[1], "json"):
        "b98a7c3b6a82cdb9df187be267aeb1643c869cd85a9921453979ff0d6fa9333f",
}
RADIUS_DUMPS = {
    # sha256 of PATH.<tag> from `hausdim radius <RADIUS_CASES[0]> --dump-matrix PATH`
    "A": "23873ef7e55c7a52830146588c4f2ad564474f6405543ce445e1e0cc5ba4ec14",
    "M": "9cfb6711155b6553bd27af24096369c7e5e1aeb7e0f1fd3d82e03bc1d3d2a468",
    "B": "3862493553687d8045436c0b228b087ddd513126398edb7f2686f55156d656ee",
}


@pytest.mark.parametrize("args,fmt", sorted(RADIUS_OUTPUT))
def test_cli_radius_bit_exact(args, fmt, capsys):
    assert cli.main(["radius", "--format", fmt, *args.split()]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == RADIUS_OUTPUT[args, fmt]


def test_cli_radius_dumps_bit_exact(tmp_path, capsys):
    path = tmp_path / "dump"
    assert cli.main(["radius", *RADIUS_CASES[0].split(),
                     "--dump-matrix", str(path)]) == 0
    capsys.readouterr()
    for tag, want in RADIUS_DUMPS.items():
        got = hashlib.sha256(path.with_suffix(f".{tag}").read_bytes())
        assert got.hexdigest() == want, tag
