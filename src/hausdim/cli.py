"""Command-line front end.

    hausdim [flags] <radius|dim|study|table1|table2|table3>

Flags may appear before or after the subcommand and can also be loaded
from a JSON config file (--config); explicit flags win over the file.
Output goes to stdout in text, csv or json form; errors go to stderr
with exit code 2 for configuration problems and 3 for numeric failures.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import operator
import re
import sys
from dataclasses import dataclass, fields

from . import reference_data as ref
from .discretize import collocation_plan, dump_matrix, error_model, make_mesh
from .errors import BadParams, ConfigError, NumericError
from .higher_order import highorder_dimension
from .ifs import MapFamily, make_cantor_family, make_mobius_family, reduce_domain
from .solver import (
    INITIAL_BRACKET,
    ROOT_TOL,
    bracket_dimension,
    convergence_study,
)
from .spectral import RADIUS_TOL, ConeParams, cone_membership, power_enclosure

_DOMAIN_RE = re.compile(r"^(full|reduced:[1-9][0-9]{0,3})$")  # k <= 9999
_FORMATS = ("text", "csv", "json")
_FINITE = ("h", "s", "smin", "smax", "root_tol", "radius_tol")


def _number(convert):
    """convert, refusing a bool: JSON true and false are not numbers."""
    def number(v):
        if isinstance(v, bool):
            raise TypeError(v)
        return convert(v)
    return number


def _several(convert):
    def several(v) -> tuple:
        if isinstance(v, str):
            raise TypeError(v)
        return tuple(convert(x) for x in v)
    return several


_INDEX, _FLOAT = _number(operator.index), _number(float)
# How RunConfig takes each field; TypeError or ValueError rejects a value.
_CONVERT = dict(
    cf=_several(_INDEX), n=_INDEX, hs=_several(_FLOAT),
    **dict.fromkeys(("cantor", "scale") + _FINITE, _FLOAT))


@dataclass
class RunConfig:
    """One resolved run: family, mesh, tolerances, output options."""

    cf: tuple[int, ...] | None = None
    cantor: float | None = None
    h: float | None = None
    n: int | None = None
    s: float | None = None
    smin: float | None = None
    smax: float | None = None
    hs: tuple[float, ...] | None = None
    root_tol: float = ROOT_TOL
    radius_tol: float = RADIUS_TOL
    domain: str = "full"
    format: str = "text"
    scale: float = 1.0
    dump_matrix: str | None = None

    def __post_init__(self):
        for name, convert in _CONVERT.items():
            v = getattr(self, name)
            if v is None:
                continue
            try:
                v = convert(v)
            except (TypeError, ValueError):
                raise BadParams(f"{name} has the wrong type: {v!r}") from None
            if name in _FINITE and not math.isfinite(v):
                flag = "--" + name.replace("_", "-")
                raise BadParams(f"{flag} must be finite, got {v}")
            setattr(self, name, v)
        # checked here, before a reduced domain reads h as its merge gap
        if self.h is not None and not self.h > 0.0:
            raise BadParams(f"--h must be positive, got {self.h}")
        if self.hs is not None and not all(h > 0.0 for h in self.hs):
            raise BadParams(f"--hs widths must be positive, got {self.hs}")
        if not self.root_tol > 0.0 or not self.radius_tol > 0.0:
            raise BadParams("tolerances must be positive")
        if not (isinstance(self.domain, str) and _DOMAIN_RE.match(self.domain)):
            raise BadParams(
                "--domain must be 'full' or 'reduced:k' with k in 1..9999, "
                f"got {self.domain!r:.40}")
        if self.format not in _FORMATS:
            raise BadParams(f"--format must be one of {_FORMATS}")
        if not self.scale > 0.0:
            raise BadParams("--scale must be positive")
        if (self.smin is None) != (self.smax is None):
            raise BadParams("give both --smin and --smax or neither")
        if self.smin is not None and not 0.0 < self.smin < self.smax:
            raise BadParams("need 0 < smin < smax")

    @property
    def initial_bracket(self) -> tuple[float, float]:
        if self.smin is not None:
            return (self.smin, self.smax)
        return INITIAL_BRACKET


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _family(cfg: RunConfig) -> MapFamily:
    if (cfg.cf is None) == (cfg.cantor is None):
        raise BadParams("give exactly one of --cf and --cantor")
    if cfg.cf is not None:
        return make_mobius_family(cfg.cf)
    return make_cantor_family(cfg.cantor)


def _intervals(cfg: RunConfig, fam: MapFamily, h: float | None):
    if cfg.domain == "full":
        return [fam.domain]
    k = int(cfg.domain.split(":", 1)[1])
    return reduce_domain(fam, k, merge_gap=(h / 2.0 if h else 0.0))


def _mesh(cfg: RunConfig, fam: MapFamily):
    if (cfg.h is None) == (cfg.n is None):
        raise BadParams("give exactly one of --h and --n")
    return make_mesh(_intervals(cfg, fam, cfg.h), n=cfg.n, h=cfg.h)


# ---------------------------------------------------------------------------
# subcommands


def cmd_radius(cfg: RunConfig) -> int:
    fam = _family(cfg)
    mesh = _mesh(cfg, fam)
    if cfg.s is None:
        raise BadParams("radius needs --s")
    s = cfg.s
    model = error_model(fam, s, mesh.h)
    plan = collocation_plan(fam, mesh)
    mats = {"A": plan.matrix(s, model.coef_hi), "M": plan.matrix(s),
            "B": plan.matrix(s, model.coef_lo)}
    encs = {w: power_enclosure(m, tol=cfg.radius_tol) for w, m in mats.items()}
    if cfg.dump_matrix:
        for tag, mat in mats.items():
            with open(f"{cfg.dump_matrix}.{tag}", "w", encoding="utf-8") as fh:
                fh.write(dump_matrix(mat, mesh.n, s, fam.family_id))
    cone = ConeParams(M=model.osc + 1.0, h=mesh.h)
    member = all(
        cone_membership(encs["B"].eigvec[lo:hi], cone)
        for lo, hi in zip(mesh.offsets, mesh.offsets[1:])
    )
    if cfg.format == "json":
        obj = {
            "family": fam.family_id, "h": mesh.h, "dim": mesh.dim, "s": s,
            "matrices": {
                w: {"r_lo": e.r_lo, "r_hi": e.r_hi,
                    "iterations": e.iterations, "converged": e.converged}
                for w, e in encs.items()
            },
            "cone": {"M": cone.M, "h": cone.h, "member": member},
        }
        print(json.dumps(obj, indent=2))
    elif cfg.format == "csv":
        print("matrix,r_lo,r_hi,iterations,converged")
        for w in "AMB":
            e = encs[w]
            print(f"{w},{_fmt(e.r_lo)},{_fmt(e.r_hi)},{e.iterations},"
                  f"{str(e.converged).lower()}")
    else:
        print(f"family {fam.family_id}  h {_fmt(mesh.h)}  s {_fmt(s)}")
        for w in "AMB":
            e = encs[w]
            print(f"  r({w}) in [{_fmt(e.r_lo)}, {_fmt(e.r_hi)}]  "
                  f"iterations {e.iterations}  converged {e.converged}")
        print(f"  cone: M {_fmt(cone.M)}  member {member}")
    return 0


def cmd_dim(cfg: RunConfig) -> int:
    fam = _family(cfg)
    mesh = _mesh(cfg, fam)
    br = bracket_dimension(fam, mesh, root_tol=cfg.root_tol,
                           radius_tol=cfg.radius_tol,
                           initial=cfg.initial_bracket)
    if cfg.format == "json":
        obj = {
            "family": br.family_id, "h": br.mesh_h,
            "s_lower": br.s_lower, "s_upper": br.s_upper,
            "width": br.width, "evals": br.evals, "certified": br.certified,
        }
        print(json.dumps(obj, indent=2))
    elif cfg.format == "csv":
        _write_csv([["family", "h", "s_lower", "s_upper", "width", "evals",
                     "certified"],
                    [br.family_id, _fmt(br.mesh_h), _fmt(br.s_lower),
                     _fmt(br.s_upper), _fmt(br.width), br.evals,
                     str(br.certified).lower()]])
    else:
        print(f"family {br.family_id}  h {_fmt(br.mesh_h)}")
        print(f"  dimension in [{_fmt(br.s_lower)}, {_fmt(br.s_upper)}]")
        print(f"  width {_fmt(br.width)}  assemblies {br.evals}  "
              f"certified {br.certified}")
    return 0


def cmd_study(cfg: RunConfig) -> int:
    fam = _family(cfg)
    if cfg.hs is None or len(cfg.hs) < 2:
        raise BadParams("study needs --hs with at least two mesh widths")
    intervals = _intervals(cfg, fam, min(cfg.hs))
    study = convergence_study(fam, cfg.hs, intervals=intervals,
                              root_tol=cfg.root_tol,
                              radius_tol=cfg.radius_tol,
                              initial=cfg.initial_bracket)
    if cfg.format == "json":
        obj = {
            "family": fam.family_id,
            "rows": [
                {"h": h, "s_lower": lo, "s_upper": up, "width": w}
                for h, lo, up, w in study.rows
            ],
            "fitted_order": study.fitted_order,
        }
        print(json.dumps(obj, indent=2))
    else:
        print("h,s_lower,s_upper,width")
        for h, lo, up, w in study.rows:
            print(f"{_fmt(h)},{_fmt(lo)},{_fmt(up)},{_fmt(w)}")
        print(f"# fitted_order = {study.fitted_order:.6g}")
    return 0


def _print_table(cfg: RunConfig, header: list[str], rows: list[dict],
                 all_pass: bool) -> None:
    if cfg.format == "json":
        print(json.dumps({"rows": rows, "all_pass": all_pass}, indent=2))
        return
    lines = [header] + [[_fmt(v) if isinstance(v, float) else str(v)
                         for v in (row[k] for k in header)] for row in rows]
    if cfg.format == "csv":
        _write_csv(lines)
        return
    for cells in lines:
        print(",".join(cells))
    print(f"# all rows pass: {all_pass}")


def _write_csv(rows) -> None:
    """CSV rows to stdout; a field with a comma, as in cf:1,2, is quoted."""
    csv.writer(sys.stdout, lineterminator="\n").writerows(rows)


def _bracket_table(cfg: RunConfig, table: tuple[dict, ...], family) -> int:
    """Certified brackets for a published table; family(row) builds the IFS."""
    header = ["family", "h", "s_lower", "s_upper", "ref_lower", "ref_upper",
              "status"]
    rows, ok = [], True
    for row in table:
        fam = family(row)
        h = row["h"] * cfg.scale
        mesh = make_mesh(_intervals(cfg, fam, h), h=h)
        br = bracket_dimension(fam, mesh, root_tol=cfg.root_tol,
                               radius_tol=cfg.radius_tol)
        passed = br.s_lower <= row["upper"] and row["lower"] <= br.s_upper
        ok &= passed
        rows.append({
            "family": fam.family_id, "h": mesh.h,
            "s_lower": br.s_lower, "s_upper": br.s_upper,
            "ref_lower": row["lower"], "ref_upper": row["upper"],
            "status": "pass" if passed else "FAIL",
        })
    _print_table(cfg, header, rows, ok)
    return 0 if ok else 3


def cmd_table1(cfg: RunConfig) -> int:
    return _bracket_table(cfg, ref.TABLE1,
                          lambda row: make_mobius_family(row["digits"]))


def cmd_table2(cfg: RunConfig) -> int:
    header = ["family", "degree", "h", "s", "ref", "diff", "status"]
    rows, ok = [], True
    presets = [((1, 2), row) for row in ref.TABLE2]
    presets += [((2, 4, 6, 8, 10), row) for row in ref.TABLE2B]
    for digits, row in presets:
        fam = make_mobius_family(digits)
        h = row["h"] * cfg.scale
        mesh = make_mesh(_intervals(cfg, fam, h), h=h)
        result = highorder_dimension(fam, mesh, row["degree"],
                                     root_tol=cfg.root_tol,
                                     radius_tol=cfg.radius_tol)
        diff = abs(result.s - row["value"])
        if cfg.scale == 1.0:
            passed = diff <= row["tol"]
            status = "pass" if passed else "FAIL"
            ok &= passed
        else:
            status = "scaled"
        rows.append({
            "family": fam.family_id, "degree": row["degree"], "h": mesh.h,
            "s": result.s, "ref": row["value"], "diff": diff,
            "status": status,
        })
    _print_table(cfg, header, rows, ok)
    return 0 if ok else 3


def cmd_table3(cfg: RunConfig) -> int:
    return _bracket_table(cfg, ref.TABLE3,
                          lambda row: make_cantor_family(row["a"]))


_COMMANDS = {
    "radius": cmd_radius,
    "dim": cmd_dim,
    "study": cmd_study,
    "table1": cmd_table1,
    "table2": cmd_table2,
    "table3": cmd_table3,
}


# ---------------------------------------------------------------------------
# argument parsing


def _parse_digits(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.split(",") if p.strip() != "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad digit list {text!r}") from None


def _parse_hs(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(p) for p in text.split(",") if p.strip() != "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad width list {text!r}") from None


def _common_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    p.add_argument("--cf", type=_parse_digits, metavar="D1,D2,...",
                   help="digit family: inverse branches 1/(x+d)")
    p.add_argument("--cantor", type=float, metavar="A",
                   help="perturbed Cantor family with perturbation a in [0,1]")
    p.add_argument("--h", type=float, help="target mesh cell width")
    p.add_argument("--n", type=int, help="mesh cell count")
    p.add_argument("--s", type=float, help="operator parameter (radius command)")
    p.add_argument("--smin", type=float, help="lower end of the root bracket")
    p.add_argument("--smax", type=float, help="upper end of the root bracket")
    p.add_argument("--hs", type=_parse_hs, metavar="H1,H2,...",
                   help="mesh-width ladder for the study command")
    p.add_argument("--root-tol", type=float, dest="root_tol",
                   help=f"tolerance on log-radius at the root "
                        f"(default {ROOT_TOL:g})")
    p.add_argument("--radius-tol", type=float, dest="radius_tol",
                   help=f"relative enclosure gap tolerance "
                        f"(default {RADIUS_TOL:g})")
    p.add_argument("--domain", help="'full' or 'reduced:k' (k refinement steps)")
    p.add_argument("--format", choices=_FORMATS, help="output format")
    p.add_argument("--scale", type=float,
                   help="multiply preset table mesh widths by this factor")
    p.add_argument("--dump-matrix", dest="dump_matrix", metavar="PATH",
                   help="radius: write matrix dumps to PATH.A/.M/.B")
    p.add_argument("--config", help="JSON file with RunConfig fields")
    return p


def _build_parser() -> argparse.ArgumentParser:
    common = _common_parser()
    parser = argparse.ArgumentParser(
        prog="hausdim", parents=[common],
        description="Certified Hausdorff-dimension brackets for "
                    "one-dimensional iterated function systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    docs = {
        "radius": "spectral-radius enclosures of A, M, B at one s",
        "dim": "certified dimension bracket",
        "study": "bracket widths across a mesh ladder; CSV + fitted order",
        "table1": "reproduce the published digit-family brackets",
        "table2": "reproduce the published higher-order collocation values",
        "table3": "reproduce the published perturbed-Cantor brackets",
    }
    for name in _COMMANDS:
        sub.add_parser(name, parents=[common], help=docs[name],
                       description=docs[name])
    return parser


_CONFIG_FIELDS = {f.name for f in fields(RunConfig)}


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise BadParams(f"cannot read config file: {exc}") from None
    except json.JSONDecodeError as exc:
        raise BadParams(f"config file is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise BadParams("config file must hold one JSON object")
    unknown = set(data) - _CONFIG_FIELDS
    if unknown:
        raise BadParams(f"unknown config keys: {sorted(unknown)}")
    return data


def _resolve(ns: argparse.Namespace) -> RunConfig:
    given = {k: v for k, v in vars(ns).items() if k != "command"}
    data: dict = {}
    if "config" in given:
        data.update(_load_config(given.pop("config")))
    else:
        given.pop("config", None)
    data.update(given)
    return RunConfig(**data)


def main(argv=None) -> int:
    parser = _build_parser()
    ns = parser.parse_args(argv)
    try:
        cfg = _resolve(ns)
        return _COMMANDS[ns.command](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
