"""Layer spans recorded around treelap's functions, from outside the package.

Nothing under src/ knows about tracing.  A Tracer replaces a layer's
functions for the length of a `with` block and puts the originals back on
exit.  bounds, verify and the package root import functions such as
`eigenvalues`, `sigma` and `count_eigs` by name, so a function is replaced
in every treelap module that holds it, not only where it is defined.
`leftover_wrappers()` lists anything left behind; the benchmark calls
`assert_unpatched()` before every untraced pass.

A span is [name, start, end, parent, tree, top]: `parent` is the index of
the enclosing span (-1 at top level), `tree` the index of the tree being
worked on, and `top` whether no other span of the same layer encloses it,
so that a layer's busy time counts nested calls once.  Self time is a
span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import os
import sys
import time
import types
from collections import Counter
from fractions import Fraction
from pathlib import Path

MARK = "__perfbench_original__"

SHAPE = ("diameter", "degree_summary", "delete_edge")


def _treelap_modules() -> list[types.ModuleType]:
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "treelap" or name.startswith("treelap."))
    ]


def _marked(obj) -> bool:
    return MARK in getattr(obj, "__dict__", {})


def leftover_wrappers() -> list[str]:
    """Attributes of treelap modules and classes that still hold a wrapper."""
    found = []
    for mod in _treelap_modules():
        for attr, val in list(vars(mod).items()):
            if _marked(val):
                found.append(f"{mod.__name__}.{attr}")
            if isinstance(val, type) and val.__module__ == mod.__name__:
                found += [f"{mod.__name__}.{attr}.{a}" for a, v in vars(val).items() if _marked(v)]
    return found


def assert_unpatched() -> None:
    left = leftover_wrappers()
    if left:
        raise RuntimeError("benchmark wrappers still installed: " + ", ".join(left))


class _Patches:
    """Attribute replacements that can all be undone, newest first."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def everywhere(self, owner, name: str, wrapper) -> None:
        """Replace owner.name in every treelap module that holds the same object."""
        orig = getattr(owner, name)
        wrapper.__dict__[MARK] = orig
        for mod in _treelap_modules():
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    self.set(mod, attr, wrapper)

    def set(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def undo(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)


class CompletionClock:
    """Completion time of each tree in a check-conjecture call.

    run_exhaustive serializes each record right after its verdict, then
    emit_report serializes all of them again, so the first `trees` records
    of a call mark its trees' completions, in order.  After each of those,
    `pace` may time the calibration kernel; `resumed` marks when the next
    tree started.  This is the only replacement made during an untraced pass.
    """

    def __init__(self, trees: int, pace):
        self.trees = trees
        self.pace = pace
        self.done: list[float] = []
        self.resumed: list[float] = []

    def __enter__(self) -> "CompletionClock":
        from treelap import verify

        orig = verify.record_to_json

        @functools.wraps(orig)
        def stamped(rec):
            out = orig(rec)
            if len(self.done) < self.trees:
                self.done.append(time.perf_counter())
                self.pace()
                self.resumed.append(time.perf_counter())
            return out

        self._patches = _Patches()
        self._patches.everywhere(verify, "record_to_json", stamped)
        return self

    def __exit__(self, *exc) -> None:
        self._patches.undo()


class _TimedStream:
    """The free-tree stream, with each next() recorded as a span; the tree
    index advances with every tree the stream yields."""

    def __init__(self, tracer: "Tracer", it):
        self._tracer = tracer
        self._it = it

    def __iter__(self):
        return self

    def __next__(self):
        tr = self._tracer
        idx = len(tr.spans)
        item = tr.call("enumeration.next", next, (self._it,), {})
        tr.tree += 1
        tr.spans[idx][4] = tr.tree
        tr.counts["enumeration.trees"] += 1
        return item


class Tracer:
    """Installs span-recording wrappers on treelap's layers for a `with` block.

    base_tol is the workload's tolerance: an `eigenvalues` call below it is
    a refinement made by a bound check.
    """

    def __init__(self, base_tol: float):
        self.base_tol = base_tol
        self.spans: list[list] = []
        self.tree = -1
        self.counts: Counter = Counter()
        self.max_probe_bits = 0
        self.max_coeff_bits = 0
        self._stack: list[int] = []
        self._open: Counter = Counter()
        self._group: dict[str, str] = {}
        self._patches = _Patches()

    # ---- recording -------------------------------------------------------

    def call(self, name: str, fn, args, kwargs):
        group = self._group.get(name, name)
        idx = len(self.spans)
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.tree,
                self._open[group] == 0]
        self.spans.append(span)
        self._stack.append(idx)
        self._open[group] += 1
        span[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._open[group] -= 1
            self._stack.pop()

    def _wrap(self, name: str, fn, group: str | None = None, before=None, after=None):
        self._group[name] = group or name
        call = self.call
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            idx = len(spans)
            out = call(name, fn, args, kwargs)
            if after is not None:
                after(out, idx, *args, **kwargs)
            return out

        return traced

    # ---- hooks that count what a span alone does not show ------------------

    def _probe(self, tree, x):
        q = Fraction(x)
        bits = max(q.numerator.bit_length(), q.denominator.bit_length())
        if bits > self.max_probe_bits:
            self.max_probe_bits = bits

    def _inertia(self, *args):
        if self._open["spectral.eigenvalues"]:
            self.counts["inertia_in_spectra"] += 1

    def _spectrum_in(self, tree, tol=1e-12):
        if tol < self.base_tol:
            self.counts["bounds.refinements"] += 1

    def _spectrum_out(self, spec, idx, tree, tol=1e-12):
        # a computed spectrum has child spans (estimate, counts); a cache hit has none
        if len(self.spans) > idx + 1:
            self.counts["eigs_certified"] += tree.n

    def _poly(self, poly, idx, tree):
        bits = max((abs(c).bit_length() for c in poly.coeffs), default=0)
        if bits > self.max_coeff_bits:
            self.max_coeff_bits = bits

    def _report(self, out, idx, records, fmt, path):
        self.counts["verify.report.bytes"] += os.path.getsize(path)

    # ---- install / remove -------------------------------------------------

    def __enter__(self) -> "Tracer":
        import numpy as np

        from treelap import bounds, charpoly, enumeration, families, spectral, tree, verify

        p = self._patches
        try:
            p.everywhere(spectral, "count_eigs",
                         self._wrap("spectral.count_eigs", spectral.count_eigs, before=self._probe))
            p.everywhere(spectral, "_inertia",
                         self._wrap("spectral.inertia", spectral._inertia, before=self._inertia))
            p.everywhere(spectral, "eigenvalues",
                         self._wrap("spectral.eigenvalues", spectral.eigenvalues,
                                    before=self._spectrum_in, after=self._spectrum_out))
            p.everywhere(spectral, "sigma", self._wrap("spectral.sigma", spectral.sigma))
            for attr, name in (("laplacian_energy", "spectral.energy"), ("s_k", "spectral.s_k")):
                wrapper = self._wrap(name, vars(spectral.Spectrum)[attr])
                wrapper.__dict__[MARK] = vars(spectral.Spectrum)[attr]
                p.set(spectral.Spectrum, attr, wrapper)
            # eigvalsh as called from spectral only: spectral gets its own numpy view
            linalg = types.ModuleType("numpy.linalg")
            vars(linalg).update(vars(np.linalg))
            linalg.eigvalsh = self._wrap("spectral.estimate", np.linalg.eigvalsh)
            view = types.ModuleType("numpy")
            vars(view).update(vars(np))
            view.linalg = linalg
            view.__dict__[MARK] = np
            p.set(spectral, "np", view)

            report_type = bounds.BoundReport

            def undecided(rep, idx, *args, **kwargs):
                if (isinstance(rep, report_type) and rep.holds is None
                        and not rep.out_of_hypothesis and not rep.note):
                    self.counts["bounds.undecided"] += 1

            for mod, group in ((bounds, "bounds"), (families, "families")):
                for attr, fn in list(vars(mod).items()):
                    if (isinstance(fn, types.FunctionType) and fn.__module__ == mod.__name__
                            and not attr.startswith("_")):
                        after = undecided if mod is bounds else None
                        p.everywhere(mod, attr, self._wrap(f"{group}.{attr}", fn, group, after=after))

            p.everywhere(charpoly, "char_poly",
                         self._wrap("charpoly.char_poly", charpoly.char_poly, "charpoly", after=self._poly))
            for attr in ("free_trees", "count_free_trees"):
                p.everywhere(enumeration, attr,
                             self._wrap(f"enumeration.{attr}", getattr(enumeration, attr), "enumeration"))
            self._group["enumeration.next"] = "enumeration"
            sharded = self._wrap("enumeration.free_trees_sharded", enumeration.free_trees_sharded,
                                 "enumeration")
            p.everywhere(enumeration, "free_trees_sharded",
                         functools.wraps(sharded)(lambda rng: _TimedStream(self, sharded(rng))))

            p.everywhere(tree, "canonical_code", self._wrap("tree.canonical_code", tree.canonical_code))
            for attr in SHAPE:
                p.everywhere(tree, attr, self._wrap(f"tree.{attr}", getattr(tree, attr), "tree.shape"))

            p.everywhere(verify, "record_to_json", self._wrap("verify.record", verify.record_to_json))
            p.everywhere(verify, "emit_report", self._wrap("verify.report", verify.emit_report,
                                                           after=self._report))
        except BaseException:
            p.undo()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._patches.undo()
        assert_unpatched()

    # ---- results ------------------------------------------------------------

    def write_spans(self, path: Path) -> None:
        """Spans as tab-separated rows; times in seconds from the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="ascii") as fh:
            fh.write("index\tname\tstart_s\tend_s\tparent\ttree\n")
            for i, (name, start, end, parent, tree, _) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{start - t0:.9f}\t{end - t0:.9f}\t{parent}\t{tree}\n")

    def summary(self) -> dict[str, tuple[float, str]]:
        """Every per-layer metric as name -> (value, unit)."""
        n = len(self.spans)
        dur = [s[2] - s[1] for s in self.spans]
        child_time = [0.0] * n
        children = [0] * n
        for i, s in enumerate(self.spans):
            if s[3] >= 0:
                child_time[s[3]] += dur[i]
                children[s[3]] += 1

        calls: Counter = Counter()
        busy: Counter = Counter()
        self_s: Counter = Counter()
        leaf_calls: Counter = Counter()  # calls that opened no child span
        for i, s in enumerate(self.spans):
            name = s[0]
            group = self._group.get(name, name)
            for key in {name, group}:
                calls[key] += 1
                self_s[key] += dur[i] - child_time[i]
                if s[5] or key == name:
                    busy[key] += dur[i]
            if not children[i]:
                leaf_calls[name] += 1

        def ratio(a, b):
            return a / b if b else 0.0

        m: dict[str, tuple[float, str]] = {}
        ce, eig = "spectral.count_eigs", "spectral.eigenvalues"
        m[f"{ce}.calls"] = (calls[ce], "count")
        m[f"{ce}.busy_s"] = (busy[ce], "s")
        m[f"{ce}.hit_ratio"] = (ratio(leaf_calls[ce], calls[ce]), "ratio")
        m[f"{ce}.max_probe_bits"] = (self.max_probe_bits, "bits")
        m["spectral.inertia.calls"] = (calls["spectral.inertia"], "count")
        m["spectral.inertia.busy_s"] = (busy["spectral.inertia"], "s")
        m["spectral.counts_per_eigenvalue"] = (
            ratio(self.counts["inertia_in_spectra"], self.counts["eigs_certified"]), "ratio")
        m[f"{eig}.calls"] = (calls[eig], "count")
        m[f"{eig}.self_s"] = (self_s[eig], "s")
        m[f"{eig}.hit_ratio"] = (ratio(leaf_calls[eig], calls[eig]), "ratio")
        for name in ("spectral.estimate", "spectral.energy", "spectral.s_k", "spectral.sigma"):
            m[f"{name}.calls"] = (calls[name], "count")
            m[f"{name}.busy_s"] = (busy[name], "s")

        for name in sorted(k for k, g in self._group.items() if g == "bounds"):
            m[f"{name}.calls"] = (calls[name], "count")
            m[f"{name}.self_s"] = (self_s[name], "s")
        m["bounds.calls"] = (calls["bounds"], "count")
        m["bounds.self_s"] = (self_s["bounds"], "s")
        m["bounds.refinements"] = (self.counts["bounds.refinements"], "count")
        m["bounds.undecided"] = (self.counts["bounds.undecided"], "count")

        m["charpoly.calls"] = (calls["charpoly"], "count")
        m["charpoly.busy_s"] = (busy["charpoly"], "s")
        m["charpoly.max_coeff_bits"] = (self.max_coeff_bits, "bits")
        m["families.calls"] = (calls["families"], "count")
        m["families.busy_s"] = (busy["families"], "s")
        m["enumeration.trees"] = (self.counts["enumeration.trees"], "count")
        m["enumeration.busy_s"] = (busy["enumeration"], "s")
        for name in ("tree.canonical_code", "tree.shape", "verify.record", "verify.report"):
            m[f"{name}.calls"] = (calls[name], "count")
            m[f"{name}.busy_s"] = (busy[name], "s")
        m["verify.report.bytes"] = (self.counts["verify.report.bytes"], "bytes")
        m["trace.spans"] = (n, "count")
        return m
