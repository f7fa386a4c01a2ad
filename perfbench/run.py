"""hausdim benchmark: entry point.

    python3 perfbench/run.py --workload <name|all> --seed N --seconds S \
        --trace 0|1

Run from the repository root.  Each measured pass runs one workload's
items in a fresh single-threaded interpreter (child.py), one pass after
another, while the next pass is likely to end within half a pass of S
seconds (at least two passes).  Inputs come
from the seed alone (workloads.py), and every output is checked against
its oracle (oracles.py).

--trace 0 reports the end-to-end metrics: wall_rel (median over passes
of the pass time from inputs ready to the last result, divided by the
time of reference.py's fixed kernel measured just before and after the
pass), setup_s (median time from interpreter start to inputs ready, over
at least MIN_SETUPS processes) and peak_rss_mb (median ru_maxrss per
pass).  It also prints wall_s and ref_s, the two sides of wall_rel in
seconds, and fail_frac, width_max and ho_err_max.
--trace 1 alternates untraced and traced passes and reports the
per-layer metrics of tracing.py, with trace.overhead_frac (traced over
untraced wall, minus 1); the spans of the last traced pass are written
to perfbench/out/spans-<workload>.jsonl.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  Exit status is nonzero, with no result
line, when the program cannot be run.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import oracles
import reference
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")

MIN_PASSES = 2       # the determinism check compares passes
MIN_SETUPS = 7       # setup_s is a median over at least this many processes
CHILD_TIMEOUT = 150  # seconds; a run must end within 180
RUN_BUDGET = 120     # no new pass starts after this many seconds

PER_LAYER_UNITS = {
    "bounds.calls": "count", "bounds.busy_s": "s",
    "bounds.calls_per_eval": "ratio",
    "discretize.assemblies": "count", "discretize.assemble_s": "s",
    "discretize.assemble_ms": "ms", "discretize.nnz": "count",
    "discretize.matrices_used_ratio": "ratio", "discretize.bytes_held": "B",
    "spectral.solves": "count", "spectral.iterations": "count",
    "spectral.iters_per_solve": "ratio", "spectral.power_s": "s",
    "spectral.matvecs": "count", "spectral.matvec_us": "us",
    "spectral.matvec_bytes": "B",
    "solver.brackets": "count", "solver.evals_per_bracket": "ratio",
    "solver.root_evals": "count", "solver.nudge_checks": "count",
    "solver.cache_hit_ratio": "ratio",
    "higher_order.assemblies": "count", "higher_order.assemble_s": "s",
    "higher_order.power_s": "s", "higher_order.matvecs": "count",
    "higher_order.evals_per_estimate": "ratio",
    "trace.overhead_frac": "ratio", "trace.uncovered_frac": "ratio",
}

NOISE_NOTE = ("no CPU pinning, no cache dropping, no hardware counters; "
              "on a shared VM the CPU speed (and CPU time with it) can "
              "shift 10-35% for tens of seconds to minutes; wall_rel "
              "divides it out with a reference kernel, wall_s does not")


class BenchError(RuntimeError):
    """The program could not be run; no result line is printed."""


def _version(dist: str) -> str:
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return "missing"


def _commit() -> str:
    """HEAD of the checkout's git repository, or 'unknown' outside one."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    return {
        "commit": _commit(), "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": _version("numpy"),
        "scipy": _version("scipy"), "mpmath": _version("mpmath"),
        "threads": "OMP/OPENBLAS/MKL/NUMEXPR/VECLIB/BLIS = 1 per child",
        "noise": NOISE_NOTE,
    }


def _child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                "BLIS_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(workload: str, seed: int, *, traced: bool = False,
          setup_only: bool = False) -> dict:
    """Run child.py once; add setup_s (spawn to inputs ready) to its report."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           "--workload", workload, "--seed", str(seed),
           "--trace", "1" if traced else "0"]
    if setup_only:
        cmd.append("--setup-only")
    if traced:
        os.makedirs(OUT_DIR, exist_ok=True)
        cmd += ["--spans", os.path.join(OUT_DIR, f"spans-{workload}.jsonl")]
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=_child_env(), cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        raise BenchError(
            f"{workload} pass exceeded {CHILD_TIMEOUT} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{workload} child exited {proc.returncode}:\n"
                         + proc.stderr[-2000:])
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    report["setup_s"] = report["t_ready"] - t_spawn
    report["traced"] = traced
    return report


def _quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)}, q1 {q1:.4g}, q3 {q3:.4g}"


def run_workload(workload: str, seed: int, seconds: float, trace: bool):
    """Measure one workload; returns (correct, attempted, failed, metrics)."""
    items = workloads.make_items(workload, seed)
    print(f"== {workload}  seed {seed}  trace {int(trace)}  "
          f"{len(items)} items per pass")
    print(f"   why: {workloads.RATIONALE[workload]}")
    problems = []
    ref = reference.Reference()
    # fills the bytecode and page caches; its setup time is not counted
    warm = spawn(workload, seed, setup_only=True)
    t0 = time.monotonic()
    passes, refs, steps = [], [ref.seconds()], []
    # A pass starts only if it is likely to end within half a pass of the
    # run's seconds, so a run of long passes does not overshoot by a pass.
    while len(passes) < MIN_PASSES or (
            time.monotonic() - t0 + statistics.median(steps) / 2
            < min(seconds, RUN_BUDGET)):
        t_step = time.monotonic()
        traced = trace and len(passes) % 2 == 1
        passes.append(spawn(workload, seed, traced=traced))
        refs.append(ref.seconds())
        # each pass is divided by the mean of the references around it
        passes[-1]["ref"] = (refs[-2] + refs[-1]) / 2
        steps.append(time.monotonic() - t_step)
    setups = [p for p in passes if not p["traced"]]
    while not trace and len(setups) < MIN_SETUPS:
        setups.append(spawn(workload, seed, setup_only=True))

    if len({r["input_digest"] for r in [warm] + passes + setups}) != 1:
        problems.append("generated inputs differ between processes")
    result_sets = {json.dumps(p["results"]) for p in passes}
    if len(result_sets) != 1:
        problems.append("results differ between passes of one seed")
    print(f"   digests: inputs {warm['input_digest'][:16]}  results "
          + " ".join(hashlib.sha256(r.encode()).hexdigest()[:16]
                     for r in sorted(result_sets)))

    # Every pass repeats the same items and the passes were just checked
    # to agree bit for bit, so the items are counted once: attempted and
    # failed depend on the seed alone, not on how many passes fit.
    verdicts = [dict(oracles.check(item, result), id=item["id"])
                for item, result in zip(items, passes[0]["results"])]
    attempted = len(verdicts)
    failed = sum(v["status"] != "pass" for v in verdicts)
    known = [f"{v['id']}: {v['note']}" for v in verdicts
             if v["status"] == "known_defect"]
    problems += [f"{v['id']}: {v['note']}" for v in verdicts
                 if v["status"] == "fail"]

    untraced = [p for p in passes if not p["traced"]]
    walls = [p["wall"] for p in untraced]
    rel = [p["wall"] / p["ref"] for p in untraced]
    ref_s = [p["ref"] for p in untraced]
    rss = [p["maxrss_kb"] / 1024.0 for p in untraced]
    setup = [p["setup_s"] for p in setups]
    widths = [v["width"] for v in verdicts if "width" in v]
    ho_errs = [v["ho_err"] for v in verdicts if "ho_err" in v]

    if trace:
        traced_passes = [p for p in passes if p["traced"]]
        metrics = {}
        for name in PER_LAYER_UNITS:
            if name == "trace.overhead_frac":
                value = (statistics.median(p["wall"] for p in traced_passes)
                         / statistics.median(walls) - 1.0)
            else:
                value = statistics.median(p["layers"][name]
                                          for p in traced_passes)
            metrics[name] = {"value": value, "unit": PER_LAYER_UNITS[name]}
        for name, m in metrics.items():
            print(f"   {name:34s} {m['value']:<14.6g} {m['unit']:6s} "
                  f"median of {len(traced_passes)} traced passes")
        for hook in sorted({h for p in traced_passes
                            for h in p["unmeasured"]}):
            print(f"   unmeasured: hook target for {hook} not found")
        print(f"   spans: {os.path.relpath(OUT_DIR, ROOT)}/"
              f"spans-{workload}.jsonl")
    else:
        metrics = {
            "wall_rel": {"value": statistics.median(rel), "unit": "ref"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(rss), "unit": "MB"},
        }
        for name, unit, samples in (
                ("wall_rel", "ref", rel), ("setup_s", "s", setup),
                ("peak_rss_mb", "MB", rss),
                ("wall_s", "s", walls), ("ref_s", "s", ref_s)):
            print(f"   {name:12s} {statistics.median(samples):<12.6g} "
                  f"{unit:3s} median ({_quartiles(samples)})")
    print(f"   fail_frac    {failed / attempted:<12.6g} ratio "
          f"({failed} of {attempted} items; {len(passes)} identical passes)")
    if widths:
        print(f"   width_max    {max(widths):<12.6g} dim   "
              f"largest certified bracket width ({len(widths)} brackets)")
    if ho_errs:
        print(f"   ho_err_max   {max(ho_errs):<12.6g} dim   largest distance "
              f"outside a reference interval ({len(ho_errs)} estimates, "
              f"pass <= {oracles.HO_TOL:g})")
    for line in known:
        print(f"   known defect: {line}")
    for line in dict.fromkeys(problems):
        print(f"   INCORRECT: {line}")
    return not problems, attempted, failed, metrics


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all",
                   choices=workloads.WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=27.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "hausdim", "__init__.py")):
        print("perfbench: src/hausdim not found; run from a hausdim checkout",
              file=sys.stderr)
        return 2
    env = environment()
    print("# env: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    correct, attempted, failed, metrics = True, 0, 0, {}
    try:
        for name in names:
            ok, att, fail, met = run_workload(name, args.seed, args.seconds,
                                              bool(args.trace))
            correct &= ok
            attempted += att
            failed += fail
            if len(names) == 1:
                metrics = met
            else:
                metrics.update({f"{name}.{k}": v for k, v in met.items()})
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
