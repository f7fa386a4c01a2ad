"""Bit-exact pins on bracket endpoints, degree-d estimates and error models.

The bracket and degree-d values were recorded with float.hex() before the
collocation matrices were rebuilt from an s-independent plan.  Entry
order, the accumulation order of coincident entries and the weight
products are all visible here, so any change to that arithmetic fails
these tests.  The error-model values were recorded before the choice of
bound route moved into bounds.ratio_bounds; they cover the digit route,
the Cantor closed forms (certified and, at a = 1, s = 0.2, the symmetric
uncertified pair) and the generic chain of a custom family.  The
general_constants values were recorded before the sweep dropped the
suprema that no bound reads.  The sha256 pins of the CLI's JSON tables
were recorded before the sampled sign check was removed.
"""

import hashlib
from unittest import mock

import pytest

from hausdim import (
    bounds,
    cli,
    bracket_dimension,
    error_model,
    highorder_dimension,
    make_cantor_family,
    make_mesh,
    make_mobius_family,
    reduce_domain,
)
from hausdim.bounds import general_constants

from conftest import make_poly_family


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
    }


BRACKETS = {
    "cf12_n200": ("0x1.100399d8e7822p-1", "0x1.10040eabf3360p-1"),
    "cantor05_h1e-3": ("0x1.7789c2718f188p-1", "0x1.778a13efd7459p-1"),
    "poly_h1e-2": ("0x1.1edee1a88e4a8p-1", "0x1.1ee1217dc8b51p-1"),
    "cf12_reduced2_h005": ("0x1.10039c00668d9p-1", "0x1.10040e418b63bp-1"),
}


@pytest.mark.parametrize("name", sorted(BRACKETS))
def test_bracket_endpoints_bit_exact(name):
    fam, mesh = _cases()[name]
    br = bracket_dimension(fam, mesh)
    assert br.certified
    assert (br.s_lower.hex(), br.s_upper.hex()) == BRACKETS[name]


@pytest.mark.parametrize("degree,h,expect", [
    (4, 0.04, "0x1.1003ff9eee1f3p-1"),
    (1, 0.01, "0x1.10045305ee0bep-1"),
])
def test_highorder_estimate_bit_exact(degree, h, expect):
    fam = make_mobius_family([1, 2])
    res = highorder_dimension(fam, make_mesh(fam.domain, h=h), degree)
    assert res.s.hex() == expect


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
    ("cantor05", 0.8): ("0x1.c4693d30ecf17p+3", "0x0.0p+0",
                        "0x1.0563fc552a81dp+2", "0x0.0p+0",
                        "0x1.b24e4b617ff66p+4"),
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
}


@pytest.mark.parametrize("name,s", sorted(ERROR_MODELS))
def test_error_model_bit_exact(name, s):
    fam = {"cf12": lambda: make_mobius_family([1, 2]),
           "cantor05": lambda: make_cantor_family(0.5),
           "cantor10": lambda: make_cantor_family(1.0),
           "poly": make_poly_family}[name]()
    m = error_model(fam, s, 0.01)
    got = (m.coef_hi, m.coef_lo, m.osc, m.R_lo, m.R_hi)
    assert tuple(x.hex() for x in got) == ERROR_MODELS[name, s]


GENERAL_FIELDS = ("kappa", "C1", "C2", "E2", "E3", "K2", "K3", "M1", "M2",
                  "M3", "R_lo", "R_hi")

GENERAL_CONSTANTS = {
    # (family, s): GENERAL_FIELDS, default safety
    ("cantor05", 0.5): (
        "0x1.6000000000000p-1", "0x1.9c81ca3667150p+0", "0x1.cbe877dfee1d5p+1",
        "0x1.1accccccccccdp+0", "0x1.a833333333333p+0", "0x1.93ac17ffb0d4cp+1",
        "inf", "0x1.4a016e91ec10dp+1", "0x1.b9d2d6cf6c398p+3", "inf",
        "-0x1.b9d2d6cf6c398p+3", "0x1.b9d2d6cf6c398p+3"),
    ("cantor05", 0.8): (
        "0x1.6000000000000p-1", "0x1.9c81ca3667150p+0", "0x1.cbe877dfee1d5p+1",
        "0x1.1accccccccccdp+0", "0x1.a833333333333p+0", "0x1.b104ecc08886bp+1",
        "inf", "0x1.0801254189a71p+2", "0x1.ba36d93cd2134p+4", "inf",
        "-0x1.ba36d93cd2134p+4", "0x1.ba36d93cd2134p+4"),
    ("cf12", 0.5): (
        "0x1.0000000000000p-2", "0x1.58bf258bf258dp+0", "0x1.58bf258bf258dp+1",
        "0x1.028f5c28f5c29p-2", "0x1.83d70a3d70a3ep-2", "0x1.cba9876543211p+0",
        "0x1.cba9876543214p+1", "0x1.cba9876543211p-1", "0x1.8596da6824c1dp+0",
        "0x1.de4cce7984a8dp+1", "-0x1.8596da6824c1dp+0",
        "0x1.8596da6824c1dp+0"),
    ("cf12", 0.8): (
        "0x1.0000000000000p-2", "0x1.58bf258bf258dp+0", "0x1.58bf258bf258dp+1",
        "0x1.028f5c28f5c29p-2", "0x1.83d70a3d70a3ep-2", "0x1.2ac7cb35053bep+1",
        "0x1.66895a3f9fe19p+2", "0x1.6fbad2b768e74p+0", "0x1.9a1ffbc1ff0e4p+1",
        "0x1.33a61a199aaeep+3", "-0x1.9a1ffbc1ff0e4p+1",
        "0x1.9a1ffbc1ff0e4p+1"),
    ("poly", 0.5): (
        "0x1.999999999999ap-2", "0x1.83d70a3d70a3ep-1", "0x1.3645a1cac0831p+0",
        "0x1.3645a1cac0831p-2", "0x1.3645a1cac0831p-2", "0x1.3645a1cac0831p+0",
        "0x1.7532ffb060d58p-1", "0x1.4333333333334p-1", "0x1.2d44c118de5abp+0",
        "0x1.0043dd36cb942p+1", "-0x1.2d44c118de5abp+0",
        "0x1.2d44c118de5abp+0"),
    ("poly", 0.8): (
        "0x1.999999999999ap-2", "0x1.83d70a3d70a3ep-1", "0x1.3645a1cac0831p+0",
        "0x1.3645a1cac0831p-2", "0x1.3645a1cac0831p-2", "0x1.3645a1cac0831p+0",
        "0x1.37183a02ac5b0p-2", "0x1.028f5c28f5c2ap+0", "0x1.0cfea777c75bcp+1",
        "0x1.f3f70b302c40bp+1", "-0x1.0cfea777c75bcp+1",
        "0x1.0cfea777c75bcp+1"),
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
    # 2 words on the grid, then 5 refinement rounds for each of the six
    # suprema C1, C2, E2, E3, K2, K3.
    fam = make_poly_family()
    with mock.patch.object(bounds, "_word_chain",
                           wraps=bounds._word_chain) as chain:
        general_constants(fam, 0.8)
    assert chain.call_count == 32


CLI_TABLES = {
    # sha256 of the stdout of `hausdim --format json <args>`; exit code 0
    "table1 --scale 100":
        "f1ae7fd45bc5a5600e3c5741acba92f56db12ea5eb7358cebcd30f16f4e53771",
    "table2":
        "75ee257c83796fba7ad34373479b4a6f5b7e84e9657e4580c2c7140b090c688a",
    "table3 --scale 20":
        "fec3b91ca377f57bc28c47413d953b7bdcf1a190525d5d5c4239f06dc779dc0b",
}


@pytest.mark.parametrize("args", sorted(CLI_TABLES))
def test_cli_json_tables_bit_exact(args, capsys):
    assert cli.main(["--format", "json", *args.split()]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == CLI_TABLES[args]
