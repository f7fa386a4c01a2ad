"""Layer spans for hausdim, recorded from outside the package.

`Tracer.install` wraps the public functions of bounds, discretize,
spectral, solver and higher_order under every module-level name that
refers to them (solver imports assemble and power_enclosure by name, so
patching only the defining module would miss its calls).  Each call
becomes a span [name, parent, t0, t1, info]; spans stay in memory and are
written out after the pass.  A layer's self time is its span's duration
minus the durations of its direct child spans, so assemble excludes the
bounds constants it triggers through error_model.

A hook target that no longer exists is listed in `unmeasured`; it
records no spans, so the metrics built on it read 0, and the pass itself
still runs.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
import weakref

_clock = time.perf_counter

# (defining module, attribute, span name)
_FUNCTIONS = (
    ("hausdim.solver", "bracket_dimension", "solver.bracket"),
    ("hausdim.solver", "solve_root", "solver.root_solve"),
    ("hausdim.solver", "_radius_scalars", "solver.lookup"),
    ("hausdim.discretize", "assemble", "discretize.assemble"),
    ("hausdim.spectral", "power_enclosure", "spectral.power"),
    ("hausdim.bounds", "general_constants", "bounds.general_constants"),
    ("hausdim.bounds", "cantor_constants", "bounds.cantor_constants"),
    ("hausdim.bounds", "mobius_ratio_bounds", "bounds.mobius_ratio_bounds"),
    ("hausdim.higher_order", "highorder_dimension", "higher_order.estimate"),
    ("hausdim.higher_order", "assemble_highorder", "higher_order.assemble"),
    ("hausdim.higher_order", "dominant_magnitude", "higher_order.power"),
)

# (defining module, class, method, span name)
_METHODS = (
    ("hausdim.discretize", "SparseNonnegMatrix", "matvec", "spectral.matvec"),
    ("hausdim.higher_order", "HighOrderMatrix", "matvec",
     "higher_order.matvec"),
)


def _index_itemsize(matrix) -> int:
    """Index width scipy uses in the matvec (it may downcast to int32)."""
    csr = getattr(matrix, "_csr", None)
    indices = getattr(csr, "indices", None)
    if indices is None:
        indices = matrix.indices
    return int(indices.dtype.itemsize)


def matvec_bytes(matrix) -> int:
    """Computed compulsory traffic of one CSR matvec: data, indices,
    indptr, one read of x and one write of y (cache misses ignored)."""
    isz = _index_itemsize(matrix)
    nnz, dim = int(matrix.nnz), int(matrix.dim)
    return nnz * (8 + isz) + (dim + 1) * isz + 2 * 8 * dim


def _held_bytes(triple) -> int:
    """Bytes of the distinct arrays behind a matrix triple (computed)."""
    seen, total = set(), 0
    for name in ("A", "M", "B"):
        m = getattr(triple, name, None)
        if m is None:
            continue
        csr = getattr(m, "_csr", None)
        for owner in (m, csr):
            for attr in ("data", "indices", "indptr"):
                arr = getattr(owner, attr, None)
                if arr is None or not hasattr(arr, "nbytes"):
                    continue
                key = (arr.__array_interface__["data"][0], arr.nbytes)
                if key not in seen:
                    seen.add(key)
                    total += int(arr.nbytes)
    return total


class Tracer:
    """In-memory span recorder plus the hooks that feed it."""

    def __init__(self):
        self.spans: list[list] = []
        self.unmeasured: list[str] = []
        self._stack: list[int] = []
        self._matvec_bytes: dict[int, int] = {}
        self._built: dict[int, bool] = {}  # id(matrix) -> radius read
        self.matrices_built = 0
        self.matrices_used = 0
        self._live = 0
        self.peak_held = 0

    # -- span recording ---------------------------------------------------

    def _wrap(self, name, fn, after=None):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = _clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[3] = _clock()
                stack.pop()
            if after is not None:
                rec[4] = after(args, out)
            return out

        return wrapper

    # -- per-hook bookkeeping (runs after the span has closed) -------------

    def _after_assemble(self, args, triple):
        nnz = 0
        for name in ("A", "M", "B"):
            m = getattr(triple, name, None)
            if m is None:
                continue
            self._built[id(m)] = False
            self._matvec_bytes[id(m)] = matvec_bytes(m)
            self.matrices_built += 1
            nnz += int(m.nnz)
        held = _held_bytes(triple)
        self._live += held
        self.peak_held = max(self.peak_held, self._live)
        try:
            weakref.finalize(triple, self._release, held)
        except TypeError:
            self._live -= held
        return nnz

    def _release(self, held: int) -> None:
        self._live -= held

    def _after_power(self, args, enclosure):
        key = id(args[0]) if args else None
        if self._built.get(key) is False:
            self._built[key] = True
            self.matrices_used += 1
        return int(getattr(enclosure, "iterations", 0))

    def _after_matvec(self, args, out):
        m = args[0]
        b = self._matvec_bytes.get(id(m))
        return b if b is not None else matvec_bytes(m)

    @staticmethod
    def _after_root_solve(args, out):
        return int(out[1]) if isinstance(out, tuple) and len(out) == 2 else 0

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        after = {
            "discretize.assemble": self._after_assemble,
            "spectral.power": self._after_power,
            "spectral.matvec": self._after_matvec,
            "solver.root_solve": self._after_root_solve,
        }
        for modname, attr, span in _FUNCTIONS:
            try:
                fn = getattr(importlib.import_module(modname), attr)
            except (ImportError, AttributeError):
                self.unmeasured.append(span)
                continue
            wrapped = self._wrap(span, fn, after.get(span))
            for mod in [m for n, m in sys.modules.items()
                        if n == "hausdim" or n.startswith("hausdim.")]:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapped)
        for modname, cls_name, method, span in _METHODS:
            try:
                cls = getattr(importlib.import_module(modname), cls_name)
                fn = getattr(cls, method)
            except (ImportError, AttributeError):
                self.unmeasured.append(span)
                continue
            setattr(cls, method, self._wrap(span, fn, after.get(span)))

    # -- metrics ----------------------------------------------------------

    def metrics(self, wall: float) -> dict:
        """Per-layer metrics of one pass whose items took `wall` seconds."""
        spans = self.spans
        dur = [s[3] - s[2] for s in spans]
        child = [0.0] * len(spans)
        for i, s in enumerate(spans):
            if s[1] >= 0:
                child[s[1]] += dur[i]

        def named(prefix):
            return [i for i, s in enumerate(spans) if s[0].startswith(prefix)]

        def ancestor(i, name):
            """Index of the nearest enclosing span called `name`, or -1."""
            p = spans[i][1]
            while p >= 0 and spans[p][0] != name:
                p = spans[p][1]
            return p

        def self_s(ix):
            return sum(dur[i] - child[i] for i in ix)

        def info(ix):
            return sum(spans[i][4] or 0 for i in ix)

        def ratio(a, b):
            return a / b if b else 0.0

        bounds = named("bounds.")
        assembles = named("discretize.assemble")
        powers = named("spectral.power")
        matvecs = named("spectral.matvec")
        brackets = named("solver.bracket")
        lookups = [i for i in named("solver.lookup")
                   if ancestor(i, "solver.bracket") >= 0]
        missed = {ancestor(i, "solver.lookup") for i in assembles}
        ho_asm = named("higher_order.assemble")
        top = sum(d for d, s in zip(dur, spans) if s[1] < 0)
        return {
            "bounds.calls": len(bounds),
            "bounds.busy_s": self_s(bounds),
            "bounds.calls_per_eval": ratio(len(bounds), len(assembles)),
            "discretize.assemblies": len(assembles),
            "discretize.assemble_s": self_s(assembles),
            "discretize.assemble_ms": 1e3 * ratio(self_s(assembles),
                                                  len(assembles)),
            "discretize.nnz": info(assembles),
            "discretize.matrices_used_ratio": ratio(self.matrices_used,
                                                    self.matrices_built),
            "discretize.bytes_held": self.peak_held,
            "spectral.solves": len(powers),
            "spectral.iterations": info(powers),
            "spectral.iters_per_solve": ratio(info(powers), len(powers)),
            "spectral.power_s": sum(dur[i] for i in powers),
            "spectral.matvecs": len(matvecs),
            "spectral.matvec_us": 1e6 * ratio(sum(dur[i] for i in matvecs),
                                              len(matvecs)),
            "spectral.matvec_bytes": ratio(info(matvecs), len(matvecs)),
            "solver.brackets": len(brackets),
            "solver.evals_per_bracket": ratio(
                sum(1 for i in assembles
                    if ancestor(i, "solver.bracket") >= 0),
                len(brackets)),
            "solver.root_evals": info(
                [i for i in named("solver.root_solve")
                 if ancestor(i, "solver.bracket") >= 0]),
            "solver.nudge_checks": sum(
                1 for i in lookups
                if spans[spans[i][1]][0] == "solver.bracket"),
            "solver.cache_hit_ratio": ratio(
                sum(1 for i in lookups if i not in missed), len(lookups)),
            "higher_order.assemblies": len(ho_asm),
            "higher_order.assemble_s": self_s(ho_asm),
            "higher_order.power_s": sum(
                dur[i] for i in named("higher_order.power")),
            "higher_order.matvecs": len(named("higher_order.matvec")),
            "higher_order.evals_per_estimate": ratio(
                len(ho_asm), len(named("higher_order.estimate"))),
            "trace.uncovered_frac": ratio(wall - top, wall),
        }

    def write(self, path: str) -> None:
        """Write the spans as JSONL: name, parent index, t0, t1, info."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")
