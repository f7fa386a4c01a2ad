import csv
import io
import json
import math
import os
import subprocess
import sys
from unittest import mock

import mpmath
import pytest

from hausdim import ifs
from hausdim.cli import main
from hausdim.discretize import CollocationPlan
from test_orbit_values import ORBIT_VALUES

LOG2_3 = math.log(2.0) / math.log(3.0)


def run_cli(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_radius_json_output(capsys):
    code, out, err = run_cli(capsys, "--cf", "1,2", "--h", "0.01",
                             "--s", "0.5", "--format", "json", "radius")
    assert code == 0
    obj = json.loads(out)
    assert obj["family"]
    assert obj["h"] == pytest.approx(0.01)
    assert obj["s"] == 0.5
    mats = obj["matrices"]
    assert set(mats) == {"A", "M", "B"}
    for w in "AMB":
        assert mats[w]["converged"]
        assert mats[w]["r_lo"] <= mats[w]["r_hi"]
    # Lower matrix radius never exceeds the upper matrix radius.
    assert mats["A"]["r_hi"] <= mats["B"]["r_hi"] * (1 + 1e-12)
    assert obj["cone"]["member"] is True


def test_radius_flags_after_subcommand(capsys):
    code, out, _ = run_cli(capsys, "radius", "--cf", "1,2", "--n", "50",
                           "--s", "0.5", "--format", "json")
    assert code == 0
    assert json.loads(out)["dim"] == 51


def test_radius_at_known_root_is_near_one(capsys):
    code, out, _ = run_cli(capsys, "--cantor", "0", "--n", "100",
                           "--s", f"{LOG2_3:.16f}", "--format", "json",
                           "radius")
    assert code == 0
    mats = json.loads(out)["matrices"]
    for w in "AMB":
        assert mats[w]["r_lo"] == pytest.approx(1.0, abs=1e-12)
        assert mats[w]["r_hi"] == pytest.approx(1.0, abs=1e-12)


def test_radius_requires_s(capsys):
    code, _, err = run_cli(capsys, "--cf", "1,2", "--h", "0.01", "radius")
    assert code == 2
    assert "--s" in err


def test_radius_text_and_csv_formats(capsys):
    code, out, _ = run_cli(capsys, "--cf", "1,2", "--n", "60", "--s", "0.5",
                           "radius")
    assert code == 0
    assert "r(A) in [" in out
    assert "cone" in out
    code, out, _ = run_cli(capsys, "--cf", "1,2", "--n", "60", "--s", "0.5",
                           "--format", "csv", "radius")
    assert code == 0
    assert out.splitlines()[0] == "matrix,r_lo,r_hi,iterations,converged"
    assert len(out.strip().splitlines()) == 4


def test_coarse_mesh_correction_too_large(capsys):
    # At s = 1.5 and realized h = 0.5 the correction factor passes 1.
    code, _, err = run_cli(capsys, "--cf", "1,2", "--h", "1.0", "--s", "1.5",
                           "radius")
    assert code == 3
    assert "refine" in err


def test_dim_json_round_trip(capsys):
    code, out, _ = run_cli(capsys, "--cantor", "0", "--n", "200",
                           "--format", "json", "dim")
    assert code == 0
    obj = json.loads(out)
    assert set(obj) == {"family", "h", "s_lower", "s_upper", "width",
                        "evals", "certified"}
    assert obj["certified"] is True
    assert obj["s_lower"] <= LOG2_3 <= obj["s_upper"]
    # Serialization round trip preserves every field exactly.
    assert json.loads(json.dumps(obj)) == obj


def test_dim_csv_matches_json(capsys):
    # A digit family's id holds commas, so csv quotes it: the row reads
    # back through csv.reader as the header's seven fields.
    for family in (("--cantor", "0.5"), ("--cf", "1,2")):
        args = (*family, "--h", "0.01", "dim")
        code, out, _ = run_cli(capsys, "--format", "csv", *args)
        assert code == 0
        assert out.splitlines()[0] == \
            "family,h,s_lower,s_upper,width,evals,certified"
        code, js, _ = run_cli(capsys, "--format", "json", *args)
        assert code == 0
        obj = json.loads(js)
        want = [obj["family"],
                *("%.17g" % obj[k]
                  for k in ("h", "s_lower", "s_upper", "width")),
                str(obj["evals"]), str(obj["certified"]).lower()]
        assert list(csv.reader(io.StringIO(out)))[1:] == [want]
        assert want[-1] == "true"
    assert want[0] == "cf:1,2"


def test_table1_csv_rows_keep_their_fields(capsys):
    code, out, _ = run_cli(capsys, "--scale", "100", "--format", "csv",
                           "table1")
    assert code == 0
    header, *rows = csv.reader(io.StringIO(out))
    assert header == ["family", "h", "s_lower", "s_upper", "ref_lower",
                      "ref_upper", "status"]
    assert len(rows) == 24
    assert all(len(row) == len(header) for row in rows)
    assert rows[0][0] == "cf:1,2"
    assert all(row[-1] == "pass" for row in rows)


def test_dim_text_output(capsys):
    code, out, _ = run_cli(capsys, "--cantor", "0", "--n", "100", "dim")
    assert code == 0
    assert "dimension in [" in out
    assert "certified True" in out


def test_dim_with_explicit_bracket(capsys):
    code, out, _ = run_cli(capsys, "--cantor", "0", "--n", "100",
                           "--smin", "0.5", "--smax", "0.8",
                           "--format", "json", "dim")
    assert code == 0
    obj = json.loads(out)
    assert obj["s_lower"] <= LOG2_3 <= obj["s_upper"]


def test_dim_desk_scale_even_sparse_family(capsys):
    # Tiny domain: published endpoints agree to every printed digit.
    code, out, _ = run_cli(capsys, "--cf", "100,10000", "--h", "0.0004",
                           "--format", "json", "dim")
    assert code == 0
    obj = json.loads(out)
    assert obj["certified"]
    assert obj["s_lower"] == pytest.approx(0.05224659263866, abs=1e-11)
    assert obj["s_upper"] == pytest.approx(0.05224659263866, abs=1e-11)


def test_dim_reduced_domain(capsys):
    code, out, _ = run_cli(capsys, "--cf", "1,2", "--h", "0.002",
                           "--domain", "reduced:2", "--format", "json",
                           "dim")
    assert code == 0
    red = json.loads(out)
    code, out, _ = run_cli(capsys, "--cf", "1,2", "--h", "0.002",
                           "--format", "json", "dim")
    full = json.loads(out)
    assert red["certified"] and full["certified"]
    assert red["s_lower"] <= full["s_upper"]
    assert full["s_lower"] <= red["s_upper"]


def test_study_csv_contract(capsys):
    code, out, _ = run_cli(capsys, "--cf", "1,2", "--hs", "0.004,0.002",
                           "study")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "h,s_lower,s_upper,width"
    assert len(lines) == 4
    assert lines[-1].startswith("# fitted_order = ")
    rows = [ln.split(",") for ln in lines[1:3]]
    h0, w0 = float(rows[0][0]), float(rows[0][3])
    h1, w1 = float(rows[1][0]), float(rows[1][3])
    assert h0 < h1
    # Quadratic gap law: width ratio tracks (h1/h0)^2 = 4.
    assert 3.3 <= w1 / w0 <= 4.7


def test_study_json_and_order(capsys):
    code, out, _ = run_cli(capsys, "--cf", "1,2",
                           "--hs", "0.008,0.004,0.002", "--format", "json",
                           "study")
    assert code == 0
    obj = json.loads(out)
    assert len(obj["rows"]) == 3
    assert 1.7 <= obj["fitted_order"] <= 2.3


def test_study_needs_ladder(capsys):
    code, _, err = run_cli(capsys, "--cf", "1,2", "--hs", "0.004", "study")
    assert code == 2
    assert "two" in err


@pytest.mark.parametrize("hs", ["0.01,0.01", "0.01,0.0100001"])
def test_study_needs_two_realized_widths(capsys, hs):
    # Both ladders round to one 100-cell mesh.
    code, out, err = run_cli(capsys, "--cf", "1,2", "--hs", hs, "study")
    assert code == 2
    assert out == ""
    assert "two distinct" in err


def test_study_brackets_each_realized_width_once(capsys):
    code, out, _ = run_cli(capsys, "--cf", "1,2", "--hs", "0.01,0.01,0.005",
                           "study")
    assert code == 0
    rows = [line for line in out.splitlines()[1:] if not line.startswith("#")]
    assert [row.split(",")[0] for row in rows] == ["0.0050000000000000001",
                                                   "0.01"]
    code, plain, _ = run_cli(capsys, "--cf", "1,2", "--hs", "0.01,0.005",
                             "study")
    assert code == 0
    assert out == plain


@pytest.mark.parametrize("args, message", [
    (("--cf", "1,x", "--h", "0.01", "dim"), "bad digit list '1,x'"),
    (("--cf", "1,2", "--hs", "0.1,y", "study"), "bad width list '0.1,y'"),
])
def test_bad_comma_lists_are_named(capsys, args, message):
    with pytest.raises(SystemExit) as exc:
        main(list(args))
    out = capsys.readouterr()
    assert exc.value.code == 2
    assert out.out == ""
    assert message in out.err


def test_exactly_one_family_required(capsys):
    code, _, err = run_cli(capsys, "--h", "0.01", "--s", "0.5", "radius")
    assert code == 2
    code, _, err = run_cli(capsys, "--cf", "1,2", "--cantor", "0.5",
                           "--h", "0.01", "--s", "0.5", "radius")
    assert code == 2


def test_exactly_one_mesh_parameter(capsys):
    code, _, err = run_cli(capsys, "--cf", "1,2", "--h", "0.01", "--n", "50",
                           "--s", "0.5", "radius")
    assert code == 2
    assert "exactly one" in err
    code, _, err = run_cli(capsys, "--cf", "1,2", "--s", "0.5", "radius")
    assert code == 2


def test_bad_flag_values(capsys):
    code, _, _ = run_cli(capsys, "--cf", "0,2", "--h", "0.01", "--s", "0.5",
                         "radius")
    assert code == 2
    code, _, _ = run_cli(capsys, "--cf", "1,2", "--h", "-0.01", "--s", "0.5",
                         "radius")
    assert code == 2
    code, _, _ = run_cli(capsys, "--cf", "1,2", "--h", "0.01", "--s", "0.5",
                         "--domain", "reduced:0", "radius")
    assert code == 2
    code, _, _ = run_cli(capsys, "--cantor", "2.0", "--h", "0.01",
                         "--s", "0.5", "radius")
    assert code == 2
    for args, message in [
        (("--scale", "0", "table3"), "--scale must be positive"),
        (("--cf", "1,2", "--h", "0.01", "--smin", "0.3", "dim"),
         "give both --smin and --smax"),
        (("--cf", "1,2", "--h", "0.01", "--smin", "0.9", "--smax", "0.5",
          "dim"), "need 0 < smin < smax"),
        (("--cf", "1,2", "--h", "0.01", "--root-tol", "-1", "dim"),
         "tolerances must be positive"),
    ]:
        code, out, err = run_cli(capsys, *args)
        assert (code, out) == (2, ""), args
        assert message in err, args


@pytest.mark.parametrize("args", [
    ("--h", "-0.01", "dim"), ("--h", "0", "dim"),
    ("--hs=-0.01,0.005", "study"),
], ids=["h_negative", "h_zero", "hs_negative"])
def test_non_positive_width_named_before_domain_reduction(capsys, args):
    # A reduced domain merges pieces closer than h/2, so the width is
    # checked first: the error names it, not the pieces it would produce.
    code, out, err = run_cli(capsys, "--cf", "1,2", "--domain", "reduced:2",
                             *args)
    assert (code, out) == (2, "")
    flag = args[0].split("=")[0]
    assert f"config error: {flag} " in err and "must be positive" in err


def test_reduced_domain_word_cap_exits_2(capsys, monkeypatch):
    def fail(*args):
        raise AssertionError("word enumerated")

    monkeypatch.setattr(ifs, "apply_word", fail)
    digits = ",".join(str(d) for d in range(1, 35))
    code, out, err = run_cli(capsys, "--cf", digits, "--h", "0.01",
                             "--domain", "reduced:5", "dim")
    assert (code, out) == (2, "")
    assert "more than 2^21" in err


def test_reduced_domain_huge_k_exits_2(capsys):
    # A k past Python's 4300-digit int() limit is a configuration error,
    # not a ValueError traceback.
    code, out, err = run_cli(capsys, "--cf", "1,2", "--h", "0.01",
                             "--domain", "reduced:" + "1" * 4301, "dim")
    assert (code, out) == (2, "")
    assert "k in 1..9999" in err and "Traceback" not in err


@pytest.mark.parametrize("args", [
    ("--cf", "1,2", "--h", "nan", "dim"),
    ("--cf", "1,2", "--hs", "0.01,nan", "study"),
    ("--cf", "1,2", "--h", "inf", "dim"),
    ("--cf", "1,2", "--h", "0.01", "--s", "nan", "radius"),
    ("--cf", "1,2", "--h", "0.01", "--s", "inf", "radius"),
    ("--cf", "1,2", "--h", "0.01", "--root-tol", "inf", "dim"),
    ("--cf", "1,2", "--h", "0.01", "--smin", "0.1", "--smax", "inf", "dim"),
    ("--cf", "1,2", "--h", "0.01", "--radius-tol", "inf", "dim"),
], ids=["h_nan", "hs_nan", "h_inf", "s_nan", "s_inf", "root_tol_inf",
        "smax_inf", "radius_tol_inf"])
def test_non_finite_values_exit_2(capsys, args):
    code, out, err = run_cli(capsys, *args)
    assert code == 2
    assert out == ""
    assert err.startswith("config error:")


def test_mesh_beyond_int32_columns_exits_2(capsys):
    code, out, err = run_cli(capsys, "--cf", "1,2", "--h", "1e-300", "dim")
    assert (code, out) == (2, "")
    assert "more than 2147483647 nodes" in err and "Traceback" not in err


def test_unknown_format_rejected_by_parser():
    with pytest.raises(SystemExit) as exc:
        main(["--cf", "1,2", "--h", "0.01", "--s", "0.5",
              "--format", "junk", "radius"])
    assert exc.value.code == 2


def test_power_divergence_exit_code(capsys):
    # An unreachable tolerance forces the stall guard, but whether a
    # bracket meets it depends on the rounding of each solve: the gap
    # of a solve near the root may close exactly.  With root solves
    # started at the plan's predicted root, cf{1,2} stalls at n = 27, 46
    # and 68 of n = 10..129 cells, cf{1,3} only at 41; at n = 46 the
    # fourth solve (closed set of 14 of 47 nodes) stalls at 3.3e-16.
    code, _, err = run_cli(capsys, "--cf", "1,2", "--n", "46",
                           "--radius-tol", "1e-18", "dim")
    assert code == 3
    assert "numeric failure" in err


def test_config_file_resolution(tmp_path, capsys):
    cfgfile = tmp_path / "run.json"
    cfgfile.write_text(json.dumps({"cf": [1, 2], "n": 50, "s": 0.5,
                                   "format": "json"}))
    code, out, _ = run_cli(capsys, "--config", str(cfgfile), "radius")
    assert code == 0
    assert json.loads(out)["dim"] == 51
    # Command-line flags override config values.
    code, out, _ = run_cli(capsys, "--config", str(cfgfile), "--s", "0.6",
                           "radius")
    assert code == 0
    assert json.loads(out)["s"] == 0.6


def test_config_file_unknown_key(tmp_path, capsys):
    cfgfile = tmp_path / "bad.json"
    cfgfile.write_text(json.dumps({"cf": [1, 2], "n": 50, "bogus": 1}))
    code, _, err = run_cli(capsys, "--config", str(cfgfile), "dim")
    assert code == 2
    assert "bogus" in err


def test_threads_setting_removed(tmp_path, capsys):
    cfgfile = tmp_path / "threads.json"
    cfgfile.write_text(json.dumps({"cf": [1, 2], "n": 50, "threads": 2}))
    code, _, err = run_cli(capsys, "--config", str(cfgfile), "dim")
    assert code == 2
    assert "threads" in err
    with pytest.raises(SystemExit) as exc:
        main(["--cf", "1,2", "--n", "50", "--threads", "2", "dim"])
    assert exc.value.code == 2


@pytest.mark.parametrize("key,value", [
    ("root_tol", "abc"), ("cf", 5), ("domain", 5), ("hs", 0.01), ("n", 1.5),
    ("h", True), ("cf", [True, 2]), ("scale", True), ("root_tol", False),
    ("n", True), ("hs", [0.01, True]), ("cf", "1,2"),
])
def test_config_file_wrong_type_exits_2(tmp_path, capsys, key, value):
    data = {"cf": [1, 2], "h": 0.01} if key != "n" else {"cf": [1, 2]}
    data[key] = value
    cfgfile = tmp_path / "typed.json"
    cfgfile.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "--config", str(cfgfile), "dim")
    assert code == 2
    assert out == ""
    assert err.startswith("config error:")
    assert key in err
    assert repr(value) in err


@pytest.mark.parametrize("content,message", [
    ("[1, 2]", "config file must hold one JSON object"),
    ('{"cf": [1, 2], "h": 0.01, "format": "xml"}', "--format must be one of"),
    (None, "cannot read config file"),
], ids=["list", "format_xml", "missing"])
def test_config_file_rejected_exits_2(tmp_path, capsys, content, message):
    cfgfile = tmp_path / "run.json"
    if content is not None:
        cfgfile.write_text(content)
    code, out, err = run_cli(capsys, "--config", str(cfgfile), "dim")
    assert (code, out) == (2, "")
    assert err.startswith("config error:") and message in err


def test_config_file_invalid_json(tmp_path, capsys):
    cfgfile = tmp_path / "broken.json"
    cfgfile.write_text("{not json")
    code, _, err = run_cli(capsys, "--config", str(cfgfile), "dim")
    assert code == 2


def test_dump_matrix_files(tmp_path, capsys):
    stem = tmp_path / "mats"
    code, _, _ = run_cli(capsys, "--cf", "1,2", "--n", "40", "--s", "0.5",
                         "--dump-matrix", str(stem), "radius")
    assert code == 0
    for tag in "AMB":
        path = tmp_path / f"mats.{tag}"
        assert path.exists()
        lines = path.read_text().strip().splitlines()
        head = lines[0].split()
        assert head[0] == "41"
        assert head[1] == "40"
        assert float(head[2]) == 0.5
        assert len(lines) > 41


def test_table3_scaled_run(capsys):
    code, out, _ = run_cli(capsys, "--scale", "20", "--format", "json",
                           "table3")
    assert code == 0
    obj = json.loads(out)
    assert obj["all_pass"] is True
    assert len(obj["rows"]) == 5
    for row in obj["rows"]:
        assert row["status"] == "pass"
        assert row["s_lower"] <= row["ref_upper"]
        assert row["ref_lower"] <= row["s_upper"]


def test_table1_scaled_run(capsys):
    code, out, _ = run_cli(capsys, "--scale", "100", "--format", "json",
                           "table1")
    assert code == 0
    obj = json.loads(out)
    assert obj["all_pass"] is True
    assert len(obj["rows"]) == 24


def test_table2_full_scale(capsys):
    # All preset runs are desk-size; published values hit to ~1e-15.
    code, out, _ = run_cli(capsys, "--format", "json", "table2")
    assert code == 0
    obj = json.loads(out)
    assert obj["all_pass"] is True
    assert len(obj["rows"]) == 11
    for row in obj["rows"]:
        assert row["status"] == "pass"
        assert row["diff"] <= 1e-9


def test_table2_on_reduced_domain(capsys):
    # Every preset on the two-step reduced domain, whose pieces each get
    # their own mesh.
    code, out, _ = run_cli(capsys, "--domain", "reduced:2", "--format",
                           "json", "table2")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert len(rows) == 11
    assert all(row["status"] == "pass" for row in rows)


def test_table2_scaled_on_reduced_domain_starts_coarse(capsys):
    # At a fortieth of the published widths the finest cf{2,4,6,8,10}
    # row has a plan of 104060 entries on the reduced domain, whose
    # coarse mesh keeps 140 of 1751 nodes, so it starts on the coarse
    # mesh, interpolates its iterate piece by piece and builds its fine
    # matrix once, where a cold start builds 8.  (At a twentieth the
    # coarse mesh keeps 98 of 890 nodes, more than a tenth, and the
    # row starts cold: there the coarse start took 1.4 times as long.)
    with mock.patch.object(CollocationPlan, "data", autospec=True,
                           side_effect=CollocationPlan.data) as data:
        code, out, _ = run_cli(capsys, "--domain", "reduced:2", "--scale",
                               "0.025", "--format", "json", "table2")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert all(row["status"] == "scaled" for row in rows)
    assert rows[-1]["diff"] <= 1e-12
    dims = [call.args[0].dim for call in data.call_args_list]
    assert dims.count(max(dims)) == 1


def test_table2_scaled_rows_not_judged(capsys):
    code, out, _ = run_cli(capsys, "--scale", "2", "--format", "json",
                           "table2")
    assert code == 0
    obj = json.loads(out)
    assert all(r["status"] == "scaled" for r in obj["rows"])


def test_console_script_installed():
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=src if not path else src + os.pathsep + path)
    proc = subprocess.run([sys.executable, "-m", "hausdim.cli",
                           "--cantor", "0", "--n", "60", "--format", "json",
                           "dim"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    obj = json.loads(proc.stdout)
    assert obj["certified"] is True


def test_dim_from_a_start_bracket_up_to_s_64(capsys):
    # The 4-row closed coarse plan of cf{1,2} at h = 0.01 does not
    # converge at s = 64; the bracket then solves on the fine mesh alone.
    code, out, err = run_cli(capsys, "--cf", "1,2", "--h", "0.01",
                             "--smin", "0.1", "--smax", "64",
                             "--format", "json", "dim")
    assert code == 0, err
    obj = json.loads(out)
    assert obj["certified"] is True
    with mpmath.workdps(40):
        assert mpmath.mpf(obj["s_lower"]) <= mpmath.mpf(ORBIT_VALUES[1, 2]) \
            <= mpmath.mpf(obj["s_upper"])
