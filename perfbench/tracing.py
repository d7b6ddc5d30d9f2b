"""Span tracing of resloc's public functions, installed from outside the package.

``Tracer.install()`` replaces each traced function by a wrapper that records a
span ``(name, start, end, parent, op id)``.  Every module attribute that names
the original function is rebound, because ``kernels``, ``spaces`` and ``cli``
import functions such as ``res_x_plus`` by name; methods are replaced on their
class.  ``Tracer.uninstall()`` puts the originals back.

Spans are kept in memory in flat arrays and turned into per-layer metrics by
``layer_metrics`` when a pass ends.  A span's self time is its duration minus
the time its child spans cover, so each instant of a traced op is charged to
exactly one function: the innermost traced one running at that instant.
"""

from __future__ import annotations

import importlib
import time
from array import array

MODULES = ("cli", "datasets", "symcore", "linalg", "residues", "spaces",
           "kernels", "weylgrp")

# (module, attribute path) of every traced callable: the public functions
# behind the per-layer metrics, plus the calls that cross from one layer into
# another often enough to matter for the layer self times.
TARGETS = (
    ("cli", "main"),
    ("datasets", "load_dataset"),
    ("datasets", "dataset_from_json"),
    ("symcore", "invert_euler"),
    ("symcore", "RationalSection.__init__"),
    ("symcore", "EquivariantPolynomial.div_exact_linear"),
    ("linalg", "row_reduce"),
    ("linalg", "rank"),
    ("linalg", "nullspace"),
    ("linalg", "solve_in_span"),
    ("linalg", "span_equal"),
    ("linalg", "intersect_trivially"),
    ("residues", "res_x_plus"),
    ("residues", "residues_at_poles"),
    ("residues", "iterated_residue_selected"),
    ("spaces", "find_generic_direction"),
    ("spaces", "adapt_space"),
    ("spaces", "localization_sum"),
    ("spaces", "kappa_t_integral_adapted"),
    ("spaces", "HamiltonianSpace.localization_term"),
    ("spaces", "HamiltonianSpace.euler_inverse"),
    ("spaces", "AdaptedSpace.transform_class"),
    ("spaces", "RestrictedClass.__mul__"),
    ("kernels", "build_model"),
    ("kernels", "tw_subspace"),
    ("kernels", "residue_kernel_circle"),
    ("kernels", "torus_kernel"),
    ("kernels", "enumerate_generic_directions"),
    ("kernels", "CirclePairing.value_adapted"),
    ("kernels", "TorusPairing.value_adapted"),
    ("weylgrp", "invariant_subspace"),
    ("weylgrp", "check_nonabelian_kernels"),
    ("weylgrp", "check_antisymmetrized_span"),
    ("weylgrp", "brion_divide"),
    ("weylgrp", "WeylData.act"),
)


def span_name(module: str, path: str) -> str:
    """"kernels.tw_subspace", "kernels.CirclePairing.value_adapted"; a
    constructor is named after its class, "symcore.RationalSection"."""
    return f"{module}.{path.removesuffix('.__init__')}"


def self_times(starts, ends, parents) -> list[int]:
    """Self time of every span: its duration minus the durations of its
    children.  Children never overlap each other, since calls nest."""
    out = [e - s for s, e in zip(starts, ends)]
    for i, p in enumerate(parents):
        if p >= 0:
            out[p] -= ends[i] - starts[i]
    return out


class Tracer:
    """Records spans and counts for the calls into resloc's layers."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._installed: list[tuple[object, str, object]] = []
        self.missing: list[str] = []
        self.op = 0
        self.reset()

    # -- recording ---------------------------------------------------------

    def reset(self) -> None:
        self.name_of = array("i")
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("i")
        self.ops = array("i")
        self._stack: list[int] = []
        self.counts: dict[str, int] = {}
        self._distinct: dict[str, set] = {}
        self.results: list[tuple[str, int, tuple, object]] = []

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def distinct(self, key: str, item) -> None:
        self._distinct.setdefault(key, set()).add((self.op, item))

    def distinct_count(self, key: str) -> int:
        return len(self._distinct.get(key, ()))

    def _wrap(self, name: str, fn, observe, keep):
        name_id = self._name_ids.setdefault(name, len(self._name_ids))
        if name_id == len(self.names):
            self.names.append(name)
        clock = time.perf_counter_ns
        tracer = self

        def wrapper(*args, **kwargs):
            if observe is not None:
                observe(tracer, args, kwargs)
            stack = tracer._stack
            idx = len(tracer.starts)
            tracer.name_of.append(name_id)
            tracer.parents.append(stack[-1] if stack else -1)
            tracer.ops.append(tracer.op)
            tracer.ends.append(0)
            stack.append(idx)
            tracer.starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.count(f"{name}.raised")
                raise
            finally:
                tracer.ends[idx] = clock()
                stack.pop()
            if keep:
                tracer.results.append((name, tracer.op, args, result))
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        if self._installed:
            raise RuntimeError("tracer already installed")
        mods = {m: importlib.import_module(f"resloc.{m}") for m in MODULES}
        self.missing = []
        for module, path in TARGETS:
            name = span_name(module, path)
            observe = OBSERVERS.get(name)
            keep = name in KEEP_RESULTS
            # A target that a later version of resloc renamed or removed is
            # left out: its metrics read 0 and the run lists it as missing.
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(mods[module], cls_name, None)
                original = vars(cls).get(attr) if cls is not None else None
                if original is None:
                    self.missing.append(name)
                    continue
                self._installed.append((cls, attr, original))
                setattr(cls, attr, self._wrap(name, original, observe, keep))
                continue
            original = getattr(mods[module], path, None)
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, original, observe, keep)
            for mod in mods.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._installed.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results -------------------------------------------------------------

    def spans(self):
        """(name, start ns, end ns, parent index, op id) for every span."""
        return [(self.names[n], s, e, p, o) for n, s, e, p, o in
                zip(self.name_of, self.starts, self.ends, self.parents, self.ops)]

    def per_name(self) -> dict[str, dict[str, int]]:
        """Calls, self ns, and ns of the outermost spans, per span name."""
        selfs = self_times(self.starts, self.ends, self.parents)
        out: dict[str, dict[str, int]] = {
            n: {"calls": 0, "self_ns": 0, "outer_ns": 0} for n in self.names}
        for i, n in enumerate(self.name_of):
            row = out[self.names[n]]
            row["calls"] += 1
            row["self_ns"] += selfs[i]
            p = self.parents[i]
            while p >= 0 and self.name_of[p] != n:
                p = self.parents[p]
            if p < 0:
                row["outer_ns"] += self.ends[i] - self.starts[i]
        return out


# -- observers: counts that need a call's arguments ------------------------------


def _observe_row_reduce(tracer: Tracer, args, kwargs) -> None:
    rows = args[0] if args else kwargs["rows"]
    if rows:
        tracer.count("linalg.row_reduce.cells", len(rows) * len(rows[0]))


def _observe_solve_in_span(tracer: Tracer, args, kwargs) -> None:
    # Identity of the basis vectors: a reused basis is what a cache could
    # exploit, and hashing the exact entries would cost more than the solve.
    basis = args[0] if args else kwargs["basis"]
    tracer.distinct("linalg.solve_in_span.basis", tuple(map(id, basis)))


def sign_pattern(space, direction) -> tuple[bool, ...]:
    """Which fixed components pair positively with a direction's vector."""
    return tuple(sum(m * v for m, v in zip(f.moment, direction.vector)) > 0
                 for f in space.components)


def _observe_tw_subspace(tracer: Tracer, args, kwargs) -> None:
    model, xi, side, degree = args[:4]
    tracer.distinct("kernels.tw_subspace.key", (sign_pattern(model.space, xi), side, degree))


def _observe_res_x_plus(tracer: Tracer, args, kwargs) -> None:
    method = args[2] if len(args) > 2 else kwargs.get("method", "poles")
    if method in ("poles", "check"):
        tracer.count("residues.res_x_plus.calls.poles")
    if method in ("series", "check"):
        tracer.count("residues.res_x_plus.calls.series")


OBSERVERS = {
    "linalg.row_reduce": _observe_row_reduce,
    "linalg.solve_in_span": _observe_solve_in_span,
    "kernels.tw_subspace": _observe_tw_subspace,
    "residues.res_x_plus": _observe_res_x_plus,
}

# Spans whose return value is kept until the pass ends, for counts that need it.
KEEP_RESULTS = frozenset({"kernels.enumerate_generic_directions", "spaces.adapt_space"})


# -- per-layer metrics -------------------------------------------------------------

# metric name -> (span name, field): "calls", "self_s" (self time) or
# "outer_s" (time in the outermost spans of that name, children included).
SPAN_METRICS = {
    "linalg.row_reduce.calls": ("linalg.row_reduce", "calls"),
    "linalg.row_reduce.self_s": ("linalg.row_reduce", "self_s"),
    "linalg.solve_in_span.calls": ("linalg.solve_in_span", "calls"),
    "kernels.tw_subspace.calls": ("kernels.tw_subspace", "calls"),
    "kernels.enumerate_generic_directions.self_s":
        ("kernels.enumerate_generic_directions", "self_s"),
    "kernels.build_model.self_s": ("kernels.build_model", "self_s"),
    "kernels.residue_kernel_circle.self_s": ("kernels.residue_kernel_circle", "self_s"),
    "kernels.torus_kernel.self_s": ("kernels.torus_kernel", "self_s"),
    "symcore.RationalSection.builds": ("symcore.RationalSection", "calls"),
    "symcore.RationalSection.build_s": ("symcore.RationalSection", "outer_s"),
    "symcore.div_exact_linear.calls":
        ("symcore.EquivariantPolynomial.div_exact_linear", "calls"),
    "spaces.localization_term.calls":
        ("spaces.HamiltonianSpace.localization_term", "calls"),
    "spaces.localization_term.self_s":
        ("spaces.HamiltonianSpace.localization_term", "self_s"),
    "spaces.localization_sum.calls": ("spaces.localization_sum", "calls"),
    "spaces.localization_sum.self_s": ("spaces.localization_sum", "self_s"),
    "spaces.transform_class.calls": ("spaces.AdaptedSpace.transform_class", "calls"),
    "spaces.find_generic_direction.self_s": ("spaces.find_generic_direction", "self_s"),
    "residues.res_x_plus.self_s": ("residues.res_x_plus", "self_s"),
    "residues.residues_at_poles.calls": ("residues.residues_at_poles", "calls"),
    "residues.iterated_residue_selected.calls":
        ("residues.iterated_residue_selected", "calls"),
    "residues.iterated_residue_selected.self_s":
        ("residues.iterated_residue_selected", "self_s"),
    "weylgrp.invariant_subspace.calls": ("weylgrp.invariant_subspace", "calls"),
    "weylgrp.invariant_subspace.self_s": ("weylgrp.invariant_subspace", "self_s"),
    "weylgrp.check_antisymmetrized_span.self_s":
        ("weylgrp.check_antisymmetrized_span", "self_s"),
    "datasets.load_dataset.self_s": ("datasets.load_dataset", "self_s"),
}

COUNT_METRICS = (
    "linalg.row_reduce.cells",
    "residues.res_x_plus.calls.poles",
    "residues.res_x_plus.calls.series",
)

# derived metrics and their units; everything ending in _s is in seconds
RATIO_METRICS = (
    "linalg.solve_in_span.distinct_basis_ratio",
    "kernels.tw_subspace.distinct_ratio",
    "symcore.div_exact_linear.success_ratio",
    "spaces.euler_inverse.hit_ratio",
    "spaces.adapt_space.hit_ratio",
)
CHAMBER_METRICS = (
    "kernels.chambers.found",
    "kernels.chambers.expected",
    "kernels.chambers.distinct_partitions",
)


def metric_names() -> list[str]:
    """Every per-layer metric, in a fixed order."""
    return ([f"layer.{m}.self_s" for m in MODULES] + list(SPAN_METRICS)
            + list(COUNT_METRICS) + list(RATIO_METRICS) + list(CHAMBER_METRICS)
            + ["kernels.pairing_values"])


def metric_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of the spans recorded since the last reset."""
    rows = tracer.per_name()
    empty = {"calls": 0, "self_ns": 0, "outer_ns": 0}

    def field(span: str, what: str) -> float:
        row = rows.get(span, empty)
        if what == "calls":
            return row["calls"]
        return row["self_ns" if what == "self_s" else "outer_ns"] / 1e9

    out: dict[str, float] = {}
    for module in MODULES:
        out[f"layer.{module}.self_s"] = sum(
            row["self_ns"] for name, row in rows.items()
            if name.split(".", 1)[0] == module) / 1e9
    for metric, (span, what) in SPAN_METRICS.items():
        out[metric] = field(span, what)
    for metric in COUNT_METRICS:
        out[metric] = tracer.counts.get(metric, 0)

    div = "symcore.EquivariantPolynomial.div_exact_linear"
    trials = field(div, "calls")
    out["linalg.solve_in_span.distinct_basis_ratio"] = _ratio(
        tracer.distinct_count("linalg.solve_in_span.basis"),
        field("linalg.solve_in_span", "calls"))
    out["kernels.tw_subspace.distinct_ratio"] = _ratio(
        tracer.distinct_count("kernels.tw_subspace.key"),
        field("kernels.tw_subspace", "calls"))
    out["symcore.div_exact_linear.success_ratio"] = _ratio(
        trials - tracer.counts.get(f"{div}.raised", 0), trials)
    euler = field("spaces.HamiltonianSpace.euler_inverse", "calls")
    out["spaces.euler_inverse.hit_ratio"] = _ratio(
        euler - field("symcore.invert_euler", "calls"), euler)
    # a cache hit hands back an AdaptedSpace already returned in the same op;
    # kept results stay alive until reset, so their ids are unique
    adapted = {(op, id(result)) for name, op, _, result in tracer.results
               if name == "spaces.adapt_space"}
    adapt_calls = field("spaces.adapt_space", "calls")
    out["spaces.adapt_space.hit_ratio"] = _ratio(adapt_calls - len(adapted), adapt_calls)

    found = expected = partitions = 0
    for name, _, args, chamber_set in tracer.results:
        if name != "kernels.enumerate_generic_directions":
            continue
        found += len(chamber_set.chambers)
        expected += chamber_set.expected or 0
        partitions += len({sign_pattern(args[0], c.representative)
                           for c in chamber_set.chambers})
    out["kernels.chambers.found"] = found
    out["kernels.chambers.expected"] = expected
    out["kernels.chambers.distinct_partitions"] = partitions
    out["kernels.pairing_values"] = (field("kernels.CirclePairing.value_adapted", "calls")
                                     + field("kernels.TorusPairing.value_adapted", "calls"))
    return out
