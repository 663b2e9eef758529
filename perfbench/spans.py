"""Span recorder for the traced benchmark run.

The benchmark records spans from its own files: ``Tracer.installed`` swaps
the public haloscan functions listed in ``LAYER_CALLS`` for wrappers in
every haloscan module namespace that binds them, so calls made between
modules (``cli`` -> ``pipeline`` -> ``axion`` ...) are seen without any
change to the package.  Spans are kept in memory; the run turns them into
per-layer metrics when it ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import threading
import time
from collections import Counter
from dataclasses import dataclass

import numpy as np

MODULES = ("cli", "config", "campaign", "spectra", "calibration", "pipeline",
           "axion", "receiver", "inference")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span


class Tracer:
    """Spans (name, start, end, parent) and counters of one traced run.

    Worker threads started by haloscan's thread pools have no open span
    of their own; their spans take as parent the span open on the thread
    that installed the tracer, which is the call that started the pool.
    """

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack = []
        self._saved = []

    @property
    def active(self):
        return bool(self._saved)

    def _stack(self):
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif self._main_stack:
            parent = self._main_stack[-1]
        else:
            parent = -1
        with self._lock:
            index = len(self.spans)
            self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
        stack.append(index)
        return index

    def close(self, index):
        self.spans[index].end = time.perf_counter()
        self._stack().pop()

    @contextlib.contextmanager
    def span(self, name):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def count(self, name, amount=1):
        with self._lock:
            self.counts[name] += amount

    def wrap(self, name, fn, observe=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if observe is not None:
                observe(self, args, result)
            return result

        return traced

    def counting(self, name, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.count(name)
            return fn(*args, **kwargs)

        return counted

    # -- installing the wrappers -------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Wrap every call in LAYER_CALLS wherever haloscan binds it."""
        modules = [importlib.import_module(f"haloscan.{m}") for m in MODULES]
        for home, attr, span_name, observe in LAYER_CALLS:
            original = getattr(importlib.import_module(f"haloscan.{home}"), attr)
            if span_name.endswith("_calls"):
                wrapper = self.counting(span_name, original)
            else:
                wrapper = self.wrap(span_name, original, observe)
            for module in modules:
                if getattr(module, attr, None) is original:
                    self._saved.append((module, attr, original))
                    setattr(module, attr, wrapper)
        try:
            yield self
        finally:
            for module, attr, original in reversed(self._saved):
                setattr(module, attr, original)
            self._saved.clear()

    # -- reading the spans -------------------------------------------

    def children(self):
        out = {}
        for index, span in enumerate(self.spans):
            out.setdefault(span.parent, []).append(index)
        return out

    def covered(self, index, children):
        """Seconds of span ``index`` covered by the union of its children."""
        intervals = sorted(
            (self.spans[c].start, self.spans[c].end) for c in children.get(index, ())
        )
        total, cur_start, cur_end = 0.0, None, None
        for start, end in intervals:
            if cur_end is None or start > cur_end:
                if cur_end is not None:
                    total += cur_end - cur_start
                cur_start, cur_end = start, end
            else:
                cur_end = max(cur_end, end)
        if cur_end is not None:
            total += cur_end - cur_start
        return total

    def durations(self):
        """Total and self seconds per span name."""
        children = self.children()
        total, self_time = Counter(), Counter()
        for index, span in enumerate(self.spans):
            duration = span.end - span.start
            total[span.name] += duration
            self_time[span.name] += duration - self.covered(index, children)
        return total, self_time


# -- observers: counts taken from a wrapped call's arguments and result ----


def _observe_write(tracer, args, result):
    tracer.count("spectra.written")
    tracer.count("spectra.write_bytes", os.path.getsize(args[1]))


def _observe_read(tracer, args, result):
    tracer.count("spectra.read")


def _observe_simulate(tracer, args, result):
    tracer.count("campaign.steps", len(result[0]))


def _observe_rescan(tracer, args, result):
    tracer.count("campaign.rescan_steps", len(result))


def _observe_fit(tracer, args, result):
    tracer.count("calibration.fits")
    tracer.count("calibration.flagged", int(bool(result.flags)))


def _observe_filter(tracer, args, result):
    tracer.count("pipeline.spectra_filtered", len(args[0]))
    tracer.count("pipeline.groups")


def _observe_process(tracer, args, result):
    grand = result.grand
    x = grand.x[grand.valid]
    tracer.count("pipeline.kept_frac", len(result.processed) / len(args[0]))
    tracer.count("pipeline.valid_frac", float(np.mean(grand.valid)))
    tracer.count("pipeline.x_mean", float(np.mean(x)))
    tracer.count("pipeline.x_var", float(np.var(x)))
    tracer.count("pipeline.candidates", len(result.rescans.candidates))


def _observe_persistence(tracer, args, result):
    tracer.count("pipeline.persisted", sum(1 for r in result if r["persisted"]))


def _observe_exclusion(tracer, args, result):
    tracer.count("inference.included_bins", result.n_bins)
    tracer.count("inference.grid_points", len(result.g_grid))
    tracer.count("inference.windows", int(result.window_lo.size))


# (defining module, function, span or counter name, observer).  A name
# ending in "_calls" only counts calls: quad runs 188 times per
# enhancement, too often for a span each.
LAYER_CALLS = (
    ("cli", "stage_simulate", "cli.simulate", None),
    ("cli", "stage_calibrate", "cli.calibrate", None),
    ("cli", "stage_process", "cli.process", None),
    ("cli", "stage_exclude", "cli.exclude", None),
    ("cli", "stage_budget", "cli.budget", None),
    ("cli", "stage_enhancement", "cli.enhancement", None),
    ("config", "load_config", "config.load", None),
    ("spectra", "write_spectrum", "spectra.write", _observe_write),
    ("spectra", "read_spectrum", "spectra.read", _observe_read),
    ("campaign", "simulate_campaign", "campaign.simulate", _observe_simulate),
    ("campaign", "simulate_rescans", "campaign.rescan", _observe_rescan),
    ("calibration", "run_calibration", "calibration.fit", _observe_fit),
    ("pipeline", "process_campaign", "pipeline.process", _observe_process),
    ("pipeline", "remove_structure", "pipeline.remove_structure", _observe_filter),
    ("pipeline", "measure_filter_transfer", "pipeline.filter_transfer", None),
    ("pipeline", "combine_spectra", "pipeline.combine", None),
    ("pipeline", "coadd_grand", "pipeline.coadd", None),
    ("pipeline", "check_persistence", "pipeline.persistence", _observe_persistence),
    ("pipeline", "write_grand_spectrum", "pipeline.grand_write", None),
    ("pipeline", "read_grand_spectrum", "pipeline.grand_read", None),
    ("axion", "reference_amplitude", "axion.reference_amplitude", None),
    ("receiver", "noise_budget", "receiver.noise_budget", None),
    ("receiver", "optimize_coupling", "receiver.optimize_coupling", None),
    ("receiver", "scan_rate", "receiver.scan_rate", None),
    ("receiver", "quad", "receiver.quad_calls", None),
    ("inference", "run_exclusion", "inference.exclusion", _observe_exclusion),
    ("inference", "exclusion_curve", "inference.curve", None),
    ("inference", "exclusion_coupling", "inference.root", None),
    ("inference", "subaggregate_windows", "inference.windows", None),
    ("inference", "write_exclusion_result", "inference.write", None),
)
