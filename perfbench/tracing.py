"""Spans around the public calls of each circfourier module.

The tracer wraps functions from the benchmark's side only: it replaces the
attribute in every circfourier module that holds the original (so that
`kernels.build_alias`, looked up inside `grid_ancestral_sample`, is wrapped
as well as `ancestor.build_alias`), and the method on its class.  Nothing in
the package itself is changed on disk.

A span is [name, start, end, parent index, run id, count]; spans stay in
memory and are written out once, when the run ends.
"""
from __future__ import annotations

import functools
import json
import os
import sys
from time import perf_counter

import numpy as np


def _size(args, kwargs, result):
    return int(np.size(result))


def _first_size(args, kwargs, result):
    return int(np.size(result[0]))


def _table_size(args, kwargs, result):
    return int(result.size)


def _steps(args, kwargs, result):
    return int(result.size * args[2].steps)


def _mala_steps(args, kwargs, result):
    steps = _steps(args, kwargs, result)
    return (result.meta["acceptance_rate"] * steps, steps)


def _one(args, kwargs, result):
    return 1


def _proposals(args, kwargs, result):
    return (int(result.meta["proposals"]), int(result.size))


def _output_bytes(args, kwargs, result):
    return os.path.getsize(args[2]) if args[2] else 0


def _none(args, kwargs, result):
    return 0


# (module, owner, attribute, span name, count)
TARGETS = (
    ("model", "FourierDensity", "__init__", "model.FourierDensity", _one),
    ("model", None, "load_density", "model.load_density", _none),
    ("model", "FourierDensity", "pdf_grid", "model.pdf_grid", _size),
    ("model", "FourierDensity", "pdf", "model.pdf", _size),
    ("model", "FourierDensity", "pdf_and_score", "model.pdf_and_score", _first_size),
    ("ancestor", None, "build_ancestor", "ancestor.build_ancestor", _none),
    ("ancestor", None, "build_alias", "ancestor.build_alias", _table_size),
    ("ancestor", None, "sample_ancestors", "ancestor.sample_ancestors", _size),
    ("kernels", "BSplineKernel", "sample", "kernels.BSplineKernel.sample", _size),
    ("kernels", None, "compound_pdf", "kernels.compound_pdf", _size),
    ("kernels", None, "grid_ancestral_sample", "kernels.grid_ancestral_sample", _none),
    ("refine", None, "ula_refine", "refine.ula_refine", _steps),
    ("refine", None, "mala_refine", "refine.mala_refine", _mala_steps),
    ("metrics", None, "rejection_sample", "metrics.rejection_sample", _proposals),
    ("metrics", None, "empirical_w1", "metrics.empirical_w1", _none),
    ("metrics", None, "kl_monte_carlo", "metrics.kl_monte_carlo", _none),
    ("cli", None, "run_sample", "cli.run_sample", _none),
    ("cli", None, "run_command", "cli.run_command", _output_bytes),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.run_id = 0
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _wrap(self, name, fn, count):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.run_id, 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            span[5] = count(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target in every loaded circfourier module."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "circfourier" or n.startswith("circfourier.")]
        for mod_name, owner, attr, name, count in TARGETS:
            home = sys.modules[f"circfourier.{mod_name}"]
            if owner is not None:
                cls = getattr(home, owner)
                self._set(cls, attr, self._wrap(name, cls.__dict__[attr], count))
                continue
            original = getattr(home, attr)
            wrapper = self._wrap(name, original, count)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        self._set(mod, key, wrapper)

    def _set(self, obj, attr, value) -> None:
        self._undo.append((obj, attr, obj.__dict__[attr]))
        setattr(obj, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            obj, attr, value = self._undo.pop()
            setattr(obj, attr, value)

    def write(self, path) -> None:
        keys = ("name", "start", "end", "parent", "run", "count")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def layer_metrics(spans: list[list], run_id: int) -> dict:
    """Per-layer numbers of one traced operation."""
    own = [(i, s) for i, s in enumerate(spans) if s[4] == run_id]
    child_time: dict[int, float] = {}
    for _, s in own:
        if s[3] >= 0:
            child_time[s[3]] = child_time.get(s[3], 0.0) + s[2] - s[1]

    def ancestors(i):
        p = spans[i][3]
        while p >= 0:
            yield spans[p][0]
            p = spans[p][3]

    def total(*names):
        """Time in spans of these names, not counting one nested in another."""
        return sum((s[2] - s[1] for i, s in own
                    if s[0] in names and not set(ancestors(i)) & set(names)), 0.0)

    def self_time(name):
        return sum((s[2] - s[1] - child_time.get(i, 0.0)
                    for i, s in own if s[0] == name), 0.0)

    def count(name):
        return sum(s[5] for _, s in own if s[0] == name)

    def pair(name):
        pairs = [s[5] for _, s in own if s[0] == name]
        return sum(a for a, _ in pairs), sum(b for _, b in pairs)

    proposals, accepted = pair("metrics.rejection_sample")
    mala_accepted, mala_steps = pair("refine.mala_refine")
    return {
        "model.construct_s": (total("model.FourierDensity", "model.load_density"), "s"),
        "model.constructs": (count("model.FourierDensity"), "count"),
        "model.grid_s": (total("model.pdf_grid"), "s"),
        "model.grid_points": (count("model.pdf_grid"), "count"),
        "model.pdf_s": (total("model.pdf"), "s"),
        "model.pdf_points": (count("model.pdf"), "count"),
        "model.score_s": (total("model.pdf_and_score"), "s"),
        "model.score_points": (count("model.pdf_and_score"), "count"),
        "ancestor.alias_s": (total("ancestor.build_alias"), "s"),
        "ancestor.alias_cells": (count("ancestor.build_alias"), "count"),
        "ancestor.draw_s": (total("ancestor.sample_ancestors"), "s"),
        "ancestor.draws": (count("ancestor.sample_ancestors"), "count"),
        "kernels.noise_s": (total("kernels.BSplineKernel.sample"), "s"),
        "kernels.compound_pdf_s": (total("kernels.compound_pdf"), "s"),
        "kernels.compound_pdf_points": (count("kernels.compound_pdf"), "count"),
        "refine.ula_self_s": (self_time("refine.ula_refine"), "s"),
        "refine.mala_self_s": (self_time("refine.mala_refine"), "s"),
        "refine.sample_steps": (count("refine.ula_refine") + mala_steps, "count"),
        "refine.mala_accept_ratio": (
            mala_accepted / mala_steps if mala_steps else 0.0, "ratio"),
        "metrics.rejection_self_s": (self_time("metrics.rejection_sample"), "s"),
        "metrics.rejection_proposals": (proposals, "count"),
        "metrics.rejection_accept_ratio": (
            accepted / proposals if proposals else 0.0, "ratio"),
        "metrics.w1_s": (total("metrics.empirical_w1"), "s"),
        "metrics.kl_self_s": (self_time("metrics.kl_monte_carlo"), "s"),
        "cli.output_s": (self_time("cli.run_command"), "s"),
        "cli.output_bytes": (count("cli.run_command"), "bytes"),
    }
