"""Per-layer trace recorded from outside the program.

The tracer rebinds public names of cohomlab: each module-level function in
every `cohomlab.*` namespace that holds it (cohom does `from .zmod import
kernel`, so wrapping zmod alone would miss its calls), and methods on their
classes. Layer calls become spans (name, start, end, parent) kept in memory;
the hot leaves `Mat2.mul` and `Mat2.order` only bump aggregate counters. A
target that no longer exists is skipped and its metrics read 0, because later
changes to the program may delete or rename internals.
"""

from __future__ import annotations

import functools
from collections import Counter
from time import perf_counter

# The cohomlab modules, one per layer.
LAYERS = ("cli", "matgrp", "zmod", "cohom", "galoisdict", "experiments")

# (module, attribute, span name). An attribute "Class.name" is wrapped on the
# class. Several targets may share a span name; their spans add up.
SPAN_TARGETS = (
    ("cli", "main", "cli.main"),
    ("cli", "load_group_spec", "cli.load_group_spec"),
    ("matgrp", "close_group", "matgrp.close_group"),
    ("matgrp", "MatGroup.generating_set", "matgrp.generating_set"),
    ("matgrp", "cyclic_subgroups", "matgrp.cyclic_subgroups"),
    ("zmod", "Submodule.span", "zmod.span"),
    ("zmod", "kernel", "zmod.kernel"),
    ("zmod", "solve_linear", "zmod.solve_linear"),
    ("zmod", "quotient_decomposition", "zmod.quotient"),
    ("cohom", "cocycle_space", "cohom.cocycle_space"),
    ("cohom", "coboundary_space", "cohom.coboundary_space"),
    ("cohom", "h1", "cohom.h1"),
    ("cohom", "h1_loc", "cohom.h1_loc"),
    ("cohom", "h1_loc_via_restrictions", "cohom.restrictions"),
    ("cohom", "is_locally_trivial", "cohom.witness_checks"),
    ("cohom", "is_coboundary", "cohom.witness_checks"),
    ("galoisdict", "evaluate_main_theorem_conditions", "galoisdict.conditions"),
    ("galoisdict", "stable_cyclic_submodules", "galoisdict.stable_cyclic"),
    ("experiments", "sample_level2_groups", "experiments.sample"),
    ("experiments", "falsify_main_theorem", "experiments.falsify"),
)
LEAF_TARGETS = (
    ("matgrp", "Mat2.order", "matgrp.Mat2.order"),
    ("matgrp", "Mat2.mul", "matgrp.Mat2.mul"),
)

# Every per-layer metric, in report order, with its unit and which way is better.
PER_LAYER = (
    ("cli.load_group_spec.self_s", "s", "lower"),
    ("cli.emit.s", "s", "lower"),
    ("cli.out_bytes", "bytes", "lower"),
    ("matgrp.close_group.calls", "count", "lower"),
    ("matgrp.close_group.s", "s", "lower"),
    ("matgrp.close_group.elements", "count", "lower"),
    ("matgrp.generating_set.s", "s", "lower"),
    ("matgrp.cyclic_subgroups.calls", "count", "lower"),
    ("matgrp.cyclic_subgroups.s", "s", "lower"),
    ("matgrp.cyclic_subgroups.count", "count", "lower"),
    ("matgrp.Mat2.order.calls", "count", "lower"),
    ("matgrp.Mat2.order.s", "s", "lower"),
    ("matgrp.Mat2.mul.calls", "count", "lower"),
    ("zmod.span.calls", "count", "lower"),
    ("zmod.span.s", "s", "lower"),
    ("zmod.span.cells", "count", "lower"),
    ("zmod.kernel.calls", "count", "lower"),
    ("zmod.kernel.s", "s", "lower"),
    ("zmod.solve_linear.calls", "count", "lower"),
    ("zmod.solve_linear.s", "s", "lower"),
    ("zmod.quotient.calls", "count", "lower"),
    ("zmod.quotient.s", "s", "lower"),
    ("cohom.cocycle_space.calls", "count", "lower"),
    ("cohom.cocycle_space.s", "s", "lower"),
    ("cohom.cocycle_space.self_s", "s", "lower"),
    ("cohom.z1.columns", "count", "lower"),
    ("cohom.z1.groups", "count", "lower"),
    ("cohom.z1_reuse_ratio", "ratio", "higher"),
    ("cohom.coboundary_space.calls", "count", "lower"),
    ("cohom.coboundary_space.s", "s", "lower"),
    ("cohom.h1.calls", "count", "lower"),
    ("cohom.h1_loc.calls", "count", "lower"),
    ("cohom.h1_loc.self_s", "s", "lower"),
    ("cohom.restrictions.s", "s", "lower"),
    ("cohom.restrictions.self_s", "s", "lower"),
    ("cohom.witness_checks.s", "s", "lower"),
    ("galoisdict.conditions.calls", "count", "lower"),
    ("galoisdict.conditions.s", "s", "lower"),
    ("galoisdict.stable_cyclic.calls", "count", "lower"),
    ("galoisdict.stable_cyclic.s", "s", "lower"),
    ("galoisdict.stable_cyclic.spans", "count", "lower"),
    ("experiments.sample.s", "s", "lower"),
    ("experiments.sample.attempts", "count", "lower"),
    ("experiments.sample.kept", "count", "higher"),
    ("experiments.sample.keep_ratio", "ratio", "higher"),
    ("experiments.sample.order_s", "s", "lower"),
    ("experiments.examine.s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.base_wall_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


def _resolve(module, attr: str):
    """(owner, name, raw attribute) for a target, or None when it is missing."""
    owner = module
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    raw = owner.__dict__.get(name) if isinstance(owner, type) else getattr(owner, name, None)
    return None if raw is None else (owner, name, raw)


class Tracer:
    """Spans and counters for one process; install once, read metrics at the end."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, nested in a span of the same name]
        self.stack = []
        self.open = Counter()
        self.counts = Counter()
        self.missing = []
        self.z1_groups = set()
        # Hooks that count work at a span boundary, by span name.
        self._before = {"zmod.span": self._span_cells, "matgrp.close_group": self._close_attempt}
        self._after = {
            "matgrp.close_group": self._add_len("matgrp.close_group.elements"),
            "matgrp.cyclic_subgroups": self._add_len("matgrp.cyclic_subgroups.count"),
            "cohom.cocycle_space": self._z1_done,
            "experiments.sample": self._add_len("experiments.sample.kept"),
        }

    # -- wrapping ---------------------------------------------------------

    def _span_wrapper(self, name: str, fn):
        spans, stack, opened = self.spans, self.stack, self.open
        before = self._before.get(name)
        after = self._after.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, opened[name] > 0]
            stack.append(len(spans))
            spans.append(rec)
            opened[name] += 1
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                opened[name] -= 1
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _leaf_wrapper(self, name: str, fn):
        counts, opened = self.counts, self.open
        calls = name + ".calls"
        if name == "matgrp.Mat2.mul":

            @functools.wraps(fn)
            def count_only(*args, **kwargs):
                counts[calls] += 1
                return fn(*args, **kwargs)

            return count_only

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                counts[calls] += 1
                counts[name + ".s"] += dt
                if opened["experiments.sample"]:
                    counts["experiments.sample.order_s"] += dt

        return timed

    # Hook bodies; `args` are the positional arguments of the wrapped call
    # (for a classmethod, the class comes first).

    def _span_cells(self, args):
        if len(args) >= 3 and hasattr(args[1], "__len__"):
            self.counts["zmod.span.cells"] += len(args[1]) * args[2]
        if self.open["galoisdict.stable_cyclic"]:
            self.counts["galoisdict.stable_cyclic.spans"] += 1

    def _close_attempt(self, args):
        if self.open["experiments.sample"]:
            self.counts["experiments.sample.attempts"] += 1

    def _z1_done(self, args, result):
        self.counts["cohom.z1.columns"] += result.ambient_rank
        if args:
            self.z1_groups.add(hash(args[0]))

    def _add_len(self, key: str):
        return lambda args, result: self.counts.update({key: len(result)})

    def install(self, modules: dict, namespaces) -> None:
        """Wrap every target found in `modules` (short name -> module object).

        Module-level functions are rebound in each namespace of `namespaces`
        that holds the same object; class attributes are replaced on the class.
        """
        namespaces = list(namespaces)
        for targets, make in ((SPAN_TARGETS, self._span_wrapper), (LEAF_TARGETS, self._leaf_wrapper)):
            for mod_name, attr, name in targets:
                found = _resolve(modules[mod_name], attr) if mod_name in modules else None
                if found is None:
                    self.missing.append(f"{mod_name}.{attr}")
                    continue
                owner, short, raw = found
                if not isinstance(owner, type):
                    new = make(name, raw)
                    for ns in namespaces:
                        if getattr(ns, short, None) is raw:
                            setattr(ns, short, new)
                elif isinstance(raw, classmethod):
                    setattr(owner, short, classmethod(make(name, raw.__func__)))
                elif isinstance(raw, functools.cached_property):
                    new = functools.cached_property(make(name, raw.func))
                    new.__set_name__(owner, short)
                    setattr(owner, short, new)
                else:
                    setattr(owner, short, make(name, raw))

    # -- reading ----------------------------------------------------------

    def metrics(self) -> dict:
        """Every per-layer metric of PER_LAYER except the trace.* ones, 0 where never seen."""
        incl = Counter()
        self_s = Counter()
        calls = Counter()
        child = [0.0] * len(self.spans)
        for name, start, end, parent, nested in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, parent, nested) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += end - start - child[i]
            if not nested:
                incl[name] += end - start
        c = self.counts
        cz_calls = calls["cohom.cocycle_space"]
        attempts = c["experiments.sample.attempts"]
        out = {
            "cli.load_group_spec.self_s": self_s["cli.load_group_spec"],
            "cli.emit.s": self_s["cli.main"],
            "cli.out_bytes": c["cli.out_bytes"],
            "matgrp.close_group.calls": calls["matgrp.close_group"],
            "matgrp.close_group.s": incl["matgrp.close_group"],
            "matgrp.close_group.elements": c["matgrp.close_group.elements"],
            "matgrp.generating_set.s": incl["matgrp.generating_set"],
            "matgrp.cyclic_subgroups.calls": calls["matgrp.cyclic_subgroups"],
            "matgrp.cyclic_subgroups.s": incl["matgrp.cyclic_subgroups"],
            "matgrp.cyclic_subgroups.count": c["matgrp.cyclic_subgroups.count"],
            "matgrp.Mat2.order.calls": c["matgrp.Mat2.order.calls"],
            "matgrp.Mat2.order.s": c["matgrp.Mat2.order.s"],
            "matgrp.Mat2.mul.calls": c["matgrp.Mat2.mul.calls"],
        }
        for name in ("zmod.span", "zmod.kernel", "zmod.solve_linear", "zmod.quotient"):
            out[name + ".calls"] = calls[name]
            out[name + ".s"] = incl[name]
        out["zmod.span.cells"] = c["zmod.span.cells"]
        out.update(
            {
                "cohom.cocycle_space.calls": cz_calls,
                "cohom.cocycle_space.s": incl["cohom.cocycle_space"],
                "cohom.cocycle_space.self_s": self_s["cohom.cocycle_space"],
                "cohom.z1.columns": c["cohom.z1.columns"],
                "cohom.z1.groups": len(self.z1_groups),
                "cohom.z1_reuse_ratio": len(self.z1_groups) / cz_calls if cz_calls else 0,
                "cohom.coboundary_space.calls": calls["cohom.coboundary_space"],
                "cohom.coboundary_space.s": incl["cohom.coboundary_space"],
                "cohom.h1.calls": calls["cohom.h1"],
                "cohom.h1_loc.calls": calls["cohom.h1_loc"],
                "cohom.h1_loc.self_s": self_s["cohom.h1_loc"],
                "cohom.restrictions.s": incl["cohom.restrictions"],
                "cohom.restrictions.self_s": self_s["cohom.restrictions"],
                "cohom.witness_checks.s": incl["cohom.witness_checks"],
                "galoisdict.conditions.calls": calls["galoisdict.conditions"],
                "galoisdict.conditions.s": incl["galoisdict.conditions"],
                "galoisdict.stable_cyclic.calls": calls["galoisdict.stable_cyclic"],
                "galoisdict.stable_cyclic.s": incl["galoisdict.stable_cyclic"],
                "galoisdict.stable_cyclic.spans": c["galoisdict.stable_cyclic.spans"],
                "experiments.sample.s": incl["experiments.sample"],
                "experiments.sample.attempts": attempts,
                "experiments.sample.kept": c["experiments.sample.kept"],
                "experiments.sample.keep_ratio": c["experiments.sample.kept"] / attempts if attempts else 0,
                "experiments.sample.order_s": c["experiments.sample.order_s"],
                "experiments.examine.s": max(0.0, incl["experiments.falsify"] - incl["experiments.sample"]),
            }
        )
        return out
