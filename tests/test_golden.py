"""Bit-exact pins on brackets, estimates, bound constants and CLI output.

Each pin is a float.hex() value or the sha256 of an output.  They cover:

* the endpoints of seven certified brackets: cf{1,2} on 200 cells and on
  reduce_domain(., 2), the perturbed Cantor a = 0.5 family on [0, 1] and
  on the 256 pieces of reduce_domain(., 8), and three custom families
  (the poly pair, the Cantor a = 0.5 maps wrapped as custom maps, and
  three affine maps), whose sampled bounds cover the sweep over several
  maps on the uniform grid;
* degree-d estimates of cf{1,2} at degrees 1, 4 and 6 (the degree-6 one
  on the coarse start), on two pieces, and of the {1,2} maps wrapped as
  a custom family;
* error models (coef_hi, coef_lo, osc, R_lo, R_hi) on the digit route,
  the Cantor closed forms (certified and, at a = 1, s = 0.2, the
  symmetric uncertified pair) and the sampled custom route, and the
  general_constants fields of two families (the Cantor a = 0.5 maps and
  the poly pair);
* the JSON stdout of table1 --scale 100, table2 and table3 --scale 20,
  and the stdout of `radius` in each format with its three
  --dump-matrix files.

Entry order within each row, the order the matvec adds a row's entries,
the weight products, the power-iteration stops and the root solve's
steps are all visible here, so any change to that arithmetic fails
these tests.  A change that moves a pin on purpose re-records it and
states in CHANGES.md the old value, the new value and the shift (for a
digest, how far the rows it covers moved), and that every moved bracket
is still certified and every table row still passes.
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
    "cf12_n200": ("0x1.100399d8e8b80p-1", "0x1.10040eabf1f52p-1"),
    "cantor05_h1e-3": ("0x1.7789c2718fbfcp-1", "0x1.778a13efd6863p-1"),
    "poly_h1e-2": ("0x1.1edee1a88f749p-1", "0x1.1ee1217dc77c6p-1"),
    "cf12_reduced2_h005": ("0x1.10039c0067c7cp-1", "0x1.10040e418a262p-1"),
    "cantor05custom_h1e-2": ("0x1.7771dfe818343p-1", "0x1.77b20b8f89359p-1"),
    "affine3_h1e-2": ("0x1.94ed79f49b60dp-1", "0x1.94ed79f49d220p-1"),
    "cantor05_reduced8_h1e-4": ("0x1.7789fb98a4c4fp-1",
                                "0x1.7789fc4fe8243p-1"),
}


@pytest.mark.parametrize("name", sorted(BRACKETS))
def test_bracket_endpoints_bit_exact(name):
    fam, mesh = _cases()[name]
    br = bracket_dimension(fam, mesh)
    assert br.certified
    assert (br.s_lower.hex(), br.s_upper.hex()) == BRACKETS[name]


@pytest.mark.parametrize("degree,h,expect", [
    (4, 0.04, "0x1.1003ff9eedec6p-1"),
    (1, 0.01, "0x1.10045305ede67p-1"),
    (6, 0.002, "0x1.1003ff9eecf9fp-1"),
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
    assert res.s.hex() == "0x1.1003ff9eed0bfp-1"


def test_custom_wrapped_digit_maps_keep_degree_d_estimate():
    # The {1,2} inverse branches contract only over two steps: the custom
    # family has kappa = d1_sup of 1/(x+1) = 1.  Its degree-d estimate needs
    # no bound and matches the digit family's bit for bit; a certified
    # bracket needs kappa < 1.
    digits = make_mobius_family([1, 2])
    fam = make_custom_family(digits.maps, digits.domain, label="cf12")
    assert (fam.kappa, fam.mu) == (1.0, 1)
    mesh = make_mesh(fam.domain, h=0.04)
    assert highorder_dimension(fam, mesh, 4).s.hex() == "0x1.1003ff9eedec6p-1"
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
    ("poly", 0.2): ("0x1.ab25aa3c4ad98p-3", "-0x1.a8fed7573f9adp-3",
                    "0x1.028f5c28f5c28p-2", "-0x1.aa11e7c66c046p-2",
                    "0x1.aa11e7c66c046p-2"),
    ("poly", 0.5): ("0x1.2f2d24e766c4cp-1", "-0x1.2b5f700ae8265p-1",
                    "0x1.4333333333332p-1", "-0x1.2d44c118de5abp+0",
                    "0x1.2d44c118de5abp+0"),
    ("poly", 0.8): ("0x1.0fb9b0f0b73cbp+0", "-0x1.0a4aa454242a2p+0",
                    "0x1.028f5c28f5c28p+0", "-0x1.0cfea777c75bbp+1",
                    "0x1.0cfea777c75bbp+1"),
    ("cantor05custom", 0.5): ("0x1.c55cd7129147ap+2", "-0x1.ae94061551318p+2",
                              "0x1.4a016e909cbb4p+1", "-0x1.b9d2d6cd03f3fp+3",
                              "0x1.b9d2d6cd03f3fp+3"),
    ("cantor05custom", 0.8): ("0x1.ccd65daa526a3p+3", "-0x1.a857fe5ac3321p+3",
                              "0x1.080125407d62ap+2", "-0x1.ba36d939d09b4p+4",
                              "0x1.ba36d939d09b4p+4"),
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
    # (family, s): GENERAL_FIELDS, the sampled suprema times 1.01
    ("cantor05", 0.5): (
        "0x1.6000000000000p-1", "0x1.9c81ca34c3ea1p+0", "0x1.1accccccccccdp+0",
        "0x1.93ac17fe3bc11p+1", "0x1.4a016e909cbb4p+1", "0x1.b9d2d6cd03f3fp+3",
        "-0x1.b9d2d6cd03f3fp+3", "0x1.b9d2d6cd03f3fp+3"),
    ("cantor05", 0.8): (
        "0x1.6000000000000p-1", "0x1.9c81ca34c3ea1p+0", "0x1.1accccccccccdp+0",
        "0x1.b104ecbcdd2abp+1", "0x1.080125407d62ap+2", "0x1.ba36d939d09b4p+4",
        "-0x1.ba36d939d09b4p+4", "0x1.ba36d939d09b4p+4"),
    ("poly", 0.5): (
        "0x1.999999999999ap-2", "0x1.83d70a3d70a3cp-1", "0x1.3645a1cac0831p-2",
        "0x1.3645a1cac0831p+0", "0x1.4333333333332p-1", "0x1.2d44c118de5abp+0",
        "-0x1.2d44c118de5abp+0", "0x1.2d44c118de5abp+0"),
    ("poly", 0.8): (
        "0x1.999999999999ap-2", "0x1.83d70a3d70a3cp-1", "0x1.3645a1cac0831p-2",
        "0x1.3645a1cac0831p+0", "0x1.028f5c28f5c28p+0", "0x1.0cfea777c75bbp+1",
        "-0x1.0cfea777c75bbp+1", "0x1.0cfea777c75bbp+1"),
}


def _general_family(name):
    return {"cantor05": lambda: make_cantor_family(0.5),
            "poly": make_poly_family}[name]()


@pytest.mark.parametrize("name,s", sorted(GENERAL_CONSTANTS))
def test_general_constants_bit_exact(name, s):
    c = general_constants(_general_family(name), s)
    got = tuple(float(getattr(c, f)).hex() for f in GENERAL_FIELDS)
    assert got == GENERAL_CONSTANTS[name, s]


def test_general_constants_sweeps_only_read_suprema():
    # The three suprema C1, E2, K2 read one chain per map, all sampled
    # on the one uniform grid over the domain.
    fam = make_poly_family()
    with mock.patch.object(bounds, "_map_chain",
                           wraps=bounds._map_chain) as chain:
        general_constants(fam, 0.8)
    assert [c.args[0].label for c in chain.call_args_list] == \
        [spec.label for spec in fam.maps]
    grid = np.linspace(*fam.domain, bounds._GRID)
    for c in chain.call_args_list:
        assert c.args[1].tobytes() == grid.tobytes()


CLI_TABLES = {
    # sha256 of the stdout of `hausdim --format json <args>`; exit code 0
    "table1 --scale 100":
        "c9e3d1c6ebc64bd9a5da087c057f4e6bc844ca4994524d449c62957ec48e5ba5",
    "table2":
        "f7cd09df39138f48f8d57da383f6d3d27aa20f2fde87ee26bb35a8e4d5cc5fb7",
    "table3 --scale 20":
        "3bbbd03e6a7e2f9b2e09284cfb2934162af75a7be02edf20028be33a3418c503",
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
