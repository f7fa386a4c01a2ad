"""One pass of one workload in a fresh interpreter.

Started by run.py with single-threaded BLAS/OpenMP settings.  It imports
hausdim, builds the workload's families and meshes through the public
API, optionally installs the layer hooks of tracing.py, runs every item
and prints one JSON line: monotonic timestamps of "inputs ready" and
"last result returned", ru_maxrss, an input digest and the raw results
(floats as hex, so determinism checks are bit-exact).  With --setup-only
it stops once the inputs are ready.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import time

import numpy as np

import hausdim

import workloads


def _affine_spec(ratio: float, offset: float, label: str):
    log_r = math.log(ratio)

    def const(value):
        return lambda x: np.full_like(np.asarray(x, dtype=float), value)

    return hausdim.MapSpec(
        label=label,
        eval=lambda x: ratio * np.asarray(x, dtype=float) + offset,
        d1=const(ratio), d2=const(0.0), d3=const(0.0),
        log_weight=const(log_r), weight_r1=const(0.0), weight_r2=const(0.0),
        weight_r3=const(0.0), d1_sup=ratio)


def _family(item: dict):
    kind, *params = item["family"]
    if kind == "mobius":
        return hausdim.make_mobius_family(params[0])
    if kind == "cantor":
        return hausdim.make_cantor_family(params[0])
    # Custom families route their bounds through general_constants; the
    # label keeps every family's cache identity distinct.
    label = item["id"]
    if kind == "custom_cantor":
        maps = hausdim.make_cantor_family(params[0]).maps
    elif kind == "custom_mobius":
        maps = hausdim.make_mobius_family(params[0]).maps
    else:
        ratios, offsets = params
        maps = [_affine_spec(r, t, f"affine-{j}")
                for j, (r, t) in enumerate(zip(ratios, offsets))]
    return hausdim.make_custom_family(maps, item["domain"], label=label)


def build_inputs(items: list[dict]) -> tuple[list, str]:
    """(family, mesh) per item and a digest of everything they hold."""
    built, digest = [], hashlib.sha256()
    for item in items:
        fam = _family(item)
        mesh = hausdim.make_mesh(item["domain"], h=item["h"])
        built.append((fam, mesh))
        digest.update(f"{item['id']}|{fam.family_id}|{fam.domain}|".encode())
        digest.update(np.ascontiguousarray(mesh.nodes).tobytes())
    return built, digest.hexdigest()


def run_item(item: dict, fam, mesh) -> dict:
    out = {"id": item["id"]}
    try:
        if item["mode"] == "bracket":
            br = hausdim.bracket_dimension(fam, mesh)
            out.update(s_lower=br.s_lower.hex(), s_upper=br.s_upper.hex(),
                       certified=bool(br.certified))
        else:
            res = hausdim.highorder_dimension(fam, mesh, item["degree"])
            out.update(s=res.s.hex())
    except Exception as exc:  # a failed item is reported, not fatal
        out["error"] = f"{type(exc).__name__}: {exc}"
    return out


def main() -> None:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--spans", help="write the traced spans here (JSONL)")
    args = p.parse_args()

    items = workloads.make_items(args.workload, args.seed)
    inputs, input_digest = build_inputs(items)
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    t_ready = time.monotonic()
    report = {"t_ready": t_ready, "input_digest": input_digest}
    if not args.setup_only:
        t_start = time.perf_counter()
        results = [run_item(item, fam, mesh)
                   for item, (fam, mesh) in zip(items, inputs)]
        wall = time.perf_counter() - t_start
        report.update(wall=wall, results=results)
        if tracer is not None:
            report["layers"] = tracer.metrics(wall)
            report["unmeasured"] = tracer.unmeasured
            if args.spans:
                tracer.write(args.spans)
    report["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(report))


if __name__ == "__main__":
    main()
