"""Spans around the calls into icnlab's modules, recorded from outside the
program by swapping each traced function for a wrapper while a Tracer is
installed.

A span is (name, start, end, parent).  Spans are kept in flat arrays in
memory and written out once, when the run ends.  A span's self time is
its duration minus the time its child spans cover.  Two hot per-item
paths are counted instead of spanned, to keep the overhead down: Field
constructions, and the (theta, beta) points of a stability scan, which
are counted from the map that scan_region returns.
"""
from __future__ import annotations

import os
import time
from array import array
from pathlib import Path

import numpy as np

# (module, attribute, span name); attributes missing from the module are
# skipped, and their metrics read 0.
TRACED = (
    ("problems", "Problem.rhs", "problems.rhs"),
    ("schemes", "step_icn", "schemes.step"),
    ("schemes", "step_theta_icn", "schemes.step"),
    ("schemes", "step_ga", "schemes.step"),
    ("schemes", "step_aa", "schemes.step"),
    ("analysis", "run_sweep", "analysis.sweep"),
    ("analysis", "error_norms", "analysis.norms"),
    ("analysis", "_norms", "analysis.norms"),
    ("analysis", "burgers_reference", "analysis.reference"),
    ("analysis", "_reference_trajectory", "analysis.reference"),
    ("output", "sweep_csv", "output.render"),
    ("output", "sweep_markdown", "output.render"),
    ("output", "solution_csv", "output.render"),
    ("output", "stability_csv", "output.render"),
    ("output", "stability_pgm", "output.render"),
    ("cli", "main", "cli.main"),
)
MODULES = ("core", "problems", "schemes", "analysis", "stability", "output",
           "cli")


class Tracer:
    def __init__(self, package):
        self.modules = [getattr(package, m) for m in MODULES]
        self.names: list[str] = []
        self.span_name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts = {"core.field_constructions": 0, "stability.points": 0,
                       "output.bytes": 0}
        self._undo: list[tuple[object, str, object]] = []

    # ---------------------------------------------------------- recording

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def spanned(self, name: str, fn):
        """fn wrapped so that each call records one span."""
        nid = self._name_id(name)
        span_name, parent, start, end = (self.span_name, self.parent,
                                         self.start, self.end)
        stack = self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(start)
            span_name.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return wrapper

    # ------------------------------------------------------------ patching

    def _replace(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def _replace_everywhere(self, original, new) -> None:
        """Rebind ``original`` in every icnlab module that imported it."""
        for module in self.modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._replace(module, attr, new)

    def __enter__(self):
        by_name = {m.__name__.rsplit(".", 1)[1]: m for m in self.modules}
        for module_name, attr, span in TRACED:
            owner = by_name[module_name]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name, None)
            original = vars(owner).get(attr) if owner is not None else None
            if original is None:
                continue
            wrapped = self.spanned(span, original)
            if owner in self.modules:
                self._replace_everywhere(original, wrapped)
            else:
                self._replace(owner, attr, wrapped)
        self._install_integrate(by_name["schemes"])
        self._install_counters(by_name)
        return self

    def __exit__(self, *exc):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
        return False

    def _install_integrate(self, schemes) -> None:
        """integrate gets a span, and so does the observer handed to it."""
        original = getattr(schemes, "integrate", None)
        if original is None:
            return
        observe = self.spanned

        def integrate(*args, **kwargs):
            if kwargs.get("observer") is not None:
                kwargs["observer"] = observe("analysis.observer", kwargs["observer"])
            elif len(args) > 5 and args[5] is not None:
                args = (*args[:5], observe("analysis.observer", args[5]), *args[6:])
            return original(*args, **kwargs)

        self._replace_everywhere(original, self.spanned("schemes.integrate", integrate))

    def _install_counters(self, by_name) -> None:
        counts = self.counts
        field = getattr(by_name["core"], "Field", None)
        post_init = vars(field).get("__post_init__") if field else None
        if post_init is not None:
            def counted_post_init(obj):
                counts["core.field_constructions"] += 1
                post_init(obj)
            self._replace(field, "__post_init__", counted_post_init)

        scan = getattr(by_name["stability"], "scan_region", None)
        if scan is not None:
            def scan_region(*args, **kwargs):
                result = scan(*args, **kwargs)
                counts["stability.points"] += int(np.size(getattr(result, "modulus", ())))
                return result
            self._replace_everywhere(scan, self.spanned("stability.scan", scan_region))

        write = getattr(by_name["output"], "write_text", None)
        if write is not None:
            def write_text(path, content):
                write(path, content)
                counts["output.bytes"] += os.path.getsize(path)
            self._replace_everywhere(write, self.spanned("output.render", write_text))

    # ------------------------------------------------------------- results

    def arrays(self):
        return (np.frombuffer(self.span_name, dtype=np.int32),
                np.frombuffer(self.parent, dtype=np.int32),
                np.frombuffer(self.start, dtype=float),
                np.frombuffer(self.end, dtype=float))

    def summary(self) -> dict[str, float]:
        """Per-layer totals over every span recorded so far."""
        ids, parent, start, end = self.arrays()
        n_names = max(len(self.names), 1)
        duration = end - start
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=duration[nested],
                            minlength=ids.size)
        self_time = np.bincount(ids, weights=duration - child, minlength=n_names)
        total = np.bincount(ids, weights=duration, minlength=n_names)
        calls = np.bincount(ids, minlength=n_names)
        safe_parent = np.maximum(parent, 0)
        parent_id = np.where(nested, ids[safe_parent], -1)

        def nid(name):
            return self.names.index(name) if name in self.names else -1

        step, integrate, reference = (nid("schemes.step"), nid("schemes.integrate"),
                                      nid("analysis.reference"))
        # a reference integration is an integrate call made by a reference
        # function; its steps are the reference steps
        ref_integrate = (ids == integrate) & (parent_id == reference) & (reference >= 0)
        under_ref = nested & ref_integrate[safe_parent]

        def get(array_, name):
            i = nid(name)
            return float(array_[i]) if i >= 0 else 0.0

        return {
            **{k: float(v) for k, v in self.counts.items()},
            "problems.rhs_calls": get(calls, "problems.rhs"),
            "problems.rhs_s": get(self_time, "problems.rhs"),
            "schemes.steps": float(np.sum((ids == step) & (parent_id != step))),
            "schemes.step_self_s": get(self_time, "schemes.step"),
            "schemes.integrate_self_s": get(self_time, "schemes.integrate"),
            "analysis.observer_calls": get(calls, "analysis.observer"),
            "analysis.observer_s": get(total, "analysis.observer"),
            "analysis.norms_s": get(self_time, "analysis.norms"),
            "analysis.reference_integrations": float(np.sum(ref_integrate)),
            "analysis.reference_steps": float(np.sum((ids == step) & under_ref)),
            "analysis.reference_s": get(total, "analysis.reference"),
            "analysis.sweep_self_s": get(self_time, "analysis.sweep"),
            "stability.scan_s": get(total, "stability.scan"),
            "output.render_s": get(self_time, "output.render"),
            "cli.self_s": get(self_time, "cli.main"),
        }

    def write(self, path: Path) -> None:
        ids, parent, start, end = self.arrays()
        np.savez(path, names=np.array(self.names), name=ids, parent=parent,
                 start=start, end=end)
