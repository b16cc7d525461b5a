"""Per-layer tracing from outside the library.

Wraps public functions and methods of each zonotile module in a span
recorder. A span holds its name, start, end, parent span and op id; spans
are kept in compact arrays and written out when the run ends. Self time is a
span's duration minus the durations of its direct children. Counters are
taken at the same boundaries.

Functions imported by name (``from .lattices import lattice_points_in_box``)
live on in every importing module, so each binding is replaced, and
``install`` fails if any module still holds an unwrapped original.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
from array import array
from time import perf_counter

from zonotile.zonotope import Location

# (module, attribute path) of every traced callable, grouped by layer
TARGETS = (
    ("linalg", "smith_normal_form"),
    ("linalg", "hermite_row_basis"),
    ("linalg", "rank_of"),
    ("lattices", "lattice_points_in_box"),
    ("lattices", "lattice_from_vectors"),
    ("lattices", "plane_section"),
    ("lattices", "dual_lattice"),
    ("lattices", "CosetEnumeration.index_of_coords"),
    ("zonotope", "Zonotope.__init__"),
    ("zonotope", "Zonotope.frames"),
    ("zonotope", "Zonotope.contains"),
    ("zonotope", "Zonotope.interior_mask"),
    ("zonotope", "Zonotope.pave"),
    ("zonotope", "Paving.count"),
    ("structure", "classify"),
    ("structure", "two_flat"),
    ("structure", "intersection_property"),
    ("spectral", "support_bound_check"),
    ("spectral", "rou_sum_is_zero"),
    ("spectral", "zero_set_member"),
    ("tiling", "verify_level"),
    ("tiling", "translate_multiplicity"),
    ("weird", "construction_from_indices"),
    ("weird", "choose_coefficients"),
    ("weird", "slab_identity_check"),
    ("weird", "irregularity_certificate"),
    ("weird", "ap_coloring"),
    ("io", "dumps"),
    ("io", "zonotope_from_json"),
    ("cli", "main"),
)
SPANS = tuple(f"{mod}.{attr}" for mod, attr in TARGETS)

# counts taken at a span boundary besides calls and self time:
# metric name -> (unit, better)
COUNTERS = {
    "tiling.verify_level.samples": ("count", "lower"),
    "tiling.verify_level.resamples": ("count", "lower"),
    "zonotope.Zonotope.contains.boundary": ("count", "lower"),
    "zonotope.Zonotope.interior_mask.points": ("count", "lower"),
    "zonotope.Zonotope.interior_mask.interior": ("count", "higher"),
    "lattices.lattice_points_in_box.points": ("count", "lower"),
    "spectral.support_bound_check.candidates": ("count", "lower"),
    "spectral.support_bound_check.cancelled": ("count", "higher"),
}

# bindings the library imports by name; each must end up wrapped
NAME_BINDINGS = {
    "lattice_points_in_box": ("tiling", "weird", "spectral", "cli"),
    "smith_normal_form": ("lattices",),
    "hermite_row_basis": ("lattices",),
    "rank_of": ("zonotope", "structure", "weird", "lattices"),
    "translate_multiplicity": ("weird", "cli"),
}

# spans that must record calls on each workload, or the trace is incomplete
EXPECTED = {
    "verify": (
        "tiling.verify_level", "zonotope.Zonotope.__init__", "linalg.rank_of",
        "linalg.smith_normal_form", "linalg.hermite_row_basis",
        "lattices.lattice_from_vectors", "lattices.CosetEnumeration.index_of_coords",
        "weird.construction_from_indices",
    ),
    "exact_points": (
        "weird.slab_identity_check", "weird.irregularity_certificate", "weird.ap_coloring",
        "weird.construction_from_indices", "weird.choose_coefficients",
        "zonotope.Zonotope.contains", "zonotope.Zonotope.interior_mask",
        "zonotope.Zonotope.pave", "zonotope.Paving.count", "lattices.lattice_points_in_box",
        "lattices.plane_section", "linalg.smith_normal_form", "linalg.hermite_row_basis",
        "tiling.translate_multiplicity",
    ),
    "classify": (
        "structure.classify", "structure.two_flat", "structure.intersection_property",
        "zonotope.Zonotope.__init__", "zonotope.Zonotope.frames", "linalg.rank_of",
    ),
    "enumerate": (
        "spectral.support_bound_check", "spectral.rou_sum_is_zero", "spectral.zero_set_member",
        "lattices.dual_lattice", "lattices.lattice_points_in_box",
        "lattices.CosetEnumeration.index_of_coords", "tiling.translate_multiplicity",
        "cli.main", "io.dumps", "io.zonotope_from_json",
    ),
}


def per_layer_metrics() -> dict[str, tuple[str, str]]:
    """Every per-layer metric name with its unit and better direction."""
    out = {}
    for span in SPANS:
        out[f"{span}.calls"] = ("count", "lower")
        out[f"{span}.self_s"] = ("s", "lower")
    out.update(COUNTERS)
    out["trace.overhead_ratio"] = ("ratio", "lower")
    return out


class Tracer:
    def __init__(self):
        self.ix = {name: i for i, name in enumerate(SPANS)}
        self.calls = [0] * len(SPANS)
        self.self_s = [0.0] * len(SPANS)
        self.active = [0] * len(SPANS)
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self.span_op = array("i")
        self.stack: list[list] = []  # [span id, start, child time]
        self.op_id = -1  # -1 while setting up
        self.t0 = perf_counter()
        self._patched: list[tuple[object, str, object]] = []  # owner, key, original
        self._wrappers: set[int] = set()

    # -- spans ---------------------------------------------------------------

    def _enter(self, i: int) -> None:
        sid = len(self.span_name)
        start = perf_counter()
        self.span_name.append(i)
        self.span_start.append(start - self.t0)
        self.span_end.append(0.0)
        self.span_parent.append(self.stack[-1][0] if self.stack else -1)
        self.span_op.append(self.op_id)
        self.stack.append([sid, start, 0.0])
        self.active[i] += 1

    def _exit(self, i: int) -> None:
        end = perf_counter()
        sid, start, child = self.stack.pop()
        self.span_end[sid] = end - self.t0
        dur = end - start
        self.self_s[i] += dur - child
        self.calls[i] += 1
        self.active[i] -= 1
        if self.stack:
            self.stack[-1][2] += dur

    def _wrap(self, name: str, fn):
        i = self.ix[name]
        count = _COUNT_HOOKS.get(name)
        if name == "tiling.verify_level":
            count = _samples_counter(inspect.signature(fn))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._enter(i)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self._exit(i)
                if count is not None:
                    count(self, args, kwargs, result)

        self._wrappers.add(id(traced))
        return traced

    # -- installation ----------------------------------------------------------

    def install(self, extra_modules=()) -> None:
        """Replace every binding of every target in zonotile and extra_modules."""
        mods = {
            n: m for n, m in sys.modules.items() if n == "zonotile" or n.startswith("zonotile.")
        }
        scan = list(mods.values()) + list(extra_modules)
        for (mod, attr), name in zip(TARGETS, SPANS):
            owner = mods[f"zonotile.{mod}"]
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[leaf]
            wrapper = self._wrap(name, original)
            self._set(owner, leaf, wrapper)
            if not path:  # a module-level function: rebind its imports too
                for m in scan:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            self._set(m, key, wrapper)
        self._check_complete(mods, scan)

    def _set(self, owner, key: str, value) -> None:
        self._patched.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def _check_complete(self, mods, scan) -> None:
        originals = {id(old) for _, _, old in self._patched}
        for m in scan:
            for key, value in vars(m).items():
                if id(value) in originals:
                    raise RuntimeError(f"{m.__name__}.{key} is still unwrapped")
        for fname, modules in NAME_BINDINGS.items():
            for mod in modules:
                if id(getattr(mods[f"zonotile.{mod}"], fname)) not in self._wrappers:
                    raise RuntimeError(f"zonotile.{mod}.{fname} is not traced")

    def uninstall(self) -> None:
        for owner, key, old in reversed(self._patched):
            setattr(owner, key, old)
        self._patched.clear()

    # -- results -------------------------------------------------------------

    def missing(self, workload: str) -> list[str]:
        """Expected spans of the workload that recorded no calls."""
        return [s for s in EXPECTED[workload] if self.calls[self.ix[s]] == 0]

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name, i in self.ix.items():
            out[f"{name}.calls"] = self.calls[i]
            out[f"{name}.self_s"] = self.self_s[i]
        out.update(self.counts)
        return out

    def write(self, path: str) -> int:
        """Write all spans as gzipped tab-separated rows; returns the count."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id\tname\tstart_s\tend_s\tparent\top\n")
            for sid in range(len(self.span_name)):
                fh.write(
                    f"{sid}\t{SPANS[self.span_name[sid]]}\t{self.span_start[sid]:.9f}\t"
                    f"{self.span_end[sid]:.9f}\t{self.span_parent[sid]}\t{self.span_op[sid]}\n"
                )
        return len(self.span_name)


def _samples_counter(sig: inspect.Signature):
    def count(tracer, args, kwargs, result):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        tracer.counts["tiling.verify_level.samples"] += bound.arguments["samples"]

    return count


def _count_contains(tracer, args, kwargs, result):
    if result is Location.BOUNDARY:
        tracer.counts["zonotope.Zonotope.contains.boundary"] += 1
        if tracer.active[tracer.ix["tiling.verify_level"]]:
            tracer.counts["tiling.verify_level.resamples"] += 1


def _count_interior_mask(tracer, args, kwargs, result):
    tracer.counts["zonotope.Zonotope.interior_mask.points"] += len(args[1])
    if result is not None:
        tracer.counts["zonotope.Zonotope.interior_mask.interior"] += sum(result)


def _count_box(tracer, args, kwargs, result):
    if result is not None:
        tracer.counts["lattices.lattice_points_in_box.points"] += len(result)


def _count_support(tracer, args, kwargs, result):
    if result is not None:
        tracer.counts["spectral.support_bound_check.candidates"] += result.candidates
        tracer.counts["spectral.support_bound_check.cancelled"] += len(result.cancelled)


_COUNT_HOOKS = {
    "zonotope.Zonotope.contains": _count_contains,
    "zonotope.Zonotope.interior_mask": _count_interior_mask,
    "lattices.lattice_points_in_box": _count_box,
    "spectral.support_bound_check": _count_support,
}
