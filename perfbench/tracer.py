"""Span tracer that wraps ym4's public functions from outside the package.

ym4 modules import kernels by name (``from .gaugefield import curvature``),
so one function object is bound in several namespaces.  ``Tracer.install``
replaces the object in every loaded ``ym4`` namespace that binds it, and
wraps the ``Grid4`` methods on the class, so every call is seen whichever
module makes it.  ``uninstall`` puts the originals back.

A span is ``[name, start, end, parent, run_id, value]``: times from
``time.perf_counter``, ``parent`` the index of the enclosing span (-1 at the
top), ``run_id`` shared by all spans of one workload pass, and ``value`` a
per-call quantity (computed bytes, accepted steps, snapshots returned).
Spans stay in memory until ``write`` is called.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import time
from collections import defaultdict


def _partial_bytes(args, kwargs, out):
    # computed from array sizes: one read of f plus one write of the result
    return args[1].nbytes + out.nbytes


def _written_bytes(args, kwargs, out):
    return args[1].nbytes


def _read_bytes(args, kwargs, out):
    return out[1].nbytes


def _heat_steps(args, kwargs, out):
    # accepted steps: the last sample sits at s = k * ds whatever the stride
    p = args[1] if len(args) > 1 else kwargs["p"]
    return int(round(out.s_samples[-1] / p.ds))


def _snapshot_count(args, kwargs, out):
    return len(out)


# (module, function, span name, per-call value)
FUNCTIONS = [
    ("ym4.algebra", "bracket_arr", "algebra.bracket_arr", None),
    ("ym4.gaugefield", "curvature", "gaugefield.curvature", None),
    ("ym4.gaugefield", "curvature_tension", "gaugefield.curvature_tension", None),
    ("ym4.gaugefield", "covariant_divergence", "gaugefield.covariant_divergence", None),
    ("ym4.gaugefield", "covariant_poisson", "gaugefield.covariant_poisson", None),
    ("ym4.gaugefield", "gauss_project", "gaugefield.gauss_project", None),
    ("ym4.gaugefield", "concentration_scale", "gaugefield.concentration_scale", None),
    ("ym4.data", "random_data", "data.random_data", None),
    ("ym4.data", "random_connection", "data.random_connection", None),
    ("ym4.data", "bpst", "data.bpst", None),
    ("ym4.heatflow", "run_heat", "heatflow.run_heat", _heat_steps),
    ("ym4.heatflow", "caloric_project", "heatflow.caloric_project", None),
    ("ym4.heatflow", "flat_trivialize", "heatflow.flat_trivialize", None),
    ("ym4.tangent", "div_curl_decompose", "tangent.div_curl_decompose", None),
    ("ym4.tangent", "tangent_residual", "tangent.tangent_residual", None),
    ("ym4.wave", "run_wave", "wave.run_wave", _snapshot_count),
    ("ym4.wave", "wave_step", "wave.wave_step", None),
    ("ym4.spectral", "ed_norm", "spectral.ed_norm", None),
    ("ym4.spectral", "lp_project", "spectral.lp_project", None),
    ("ym4.morawetz", "morawetz_identity_residual", "morawetz.morawetz_identity_residual", None),
    ("ym4.morawetz", "interior_dissipation", "morawetz.interior_dissipation", None),
    ("ym4.morawetz", "weighted_energy", "morawetz.weighted_energy", None),
    ("ym4.morawetz", "energy_momentum", "morawetz.energy_momentum", None),
    ("ym4.morawetz", "null_decompose", "morawetz.null_decompose", None),
    ("ym4.morawetz", "iota_xf", "morawetz.iota_xf", None),
    ("ym4.workbench.snapshot", "write_snapshot", "workbench.snapshot.write_snapshot", _written_bytes),
    ("ym4.workbench.snapshot", "read_snapshot", "workbench.snapshot.read_snapshot", _read_bytes),
    ("ym4.workbench.config", "load_config", "workbench.config.load_config", None),
]

# Grid4 methods, wrapped on the class
METHODS = [
    ("partial", "grid.partial", _partial_bytes),
    ("fft", "grid.fft", None),
    ("ifft", "grid.ifft", None),
    ("laplace_inverse", "grid.laplace_inverse", None),
]

NAME, START, END, PARENT, RUN, VALUE = range(6)


class Tracer:
    """Records a span per call of the wrapped functions while installed."""

    def __init__(self):
        self.spans = []
        self.run_id = "setup"
        self._stack = []
        self._patches = []

    def _wrap(self, name, fn, value):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.run_id, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if value is not None:
                rec[VALUE] = value(args, kwargs, out)
            return out

        return traced

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        # importing the CLI loads every ym4 module, so no namespace is missed
        importlib.import_module("ym4.workbench.cli")
        from ym4.grid import Grid4

        namespaces = [m for k, m in sys.modules.items() if k == "ym4" or k.startswith("ym4.")]
        for modname, attr, name, value in FUNCTIONS:
            # a function a later version removes is skipped; its metrics read 0
            orig = getattr(sys.modules[modname], attr, None)
            if orig is None:
                continue
            wrapped = self._wrap(name, orig, value)
            for ns in namespaces:
                for key, val in list(vars(ns).items()):
                    if val is orig:
                        self._patches.append((ns, key, orig))
                        setattr(ns, key, wrapped)
        for attr, name, value in METHODS:
            orig = Grid4.__dict__[attr]
            self._patches.append((Grid4, attr, orig))
            setattr(Grid4, attr, self._wrap(name, orig, value))

    def uninstall(self):
        while self._patches:
            owner, key, orig = self._patches.pop()
            setattr(owner, key, orig)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def write(self, path, workload, seed):
        """Write every span as one JSON line, gzip-compressed."""
        with gzip.open(path, "wt") as fh:
            for i, s in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": s[NAME],
                            "start": s[START],
                            "end": s[END],
                            "parent": s[PARENT],
                            "run": f"{workload}/{seed}/{s[RUN]}",
                            "value": s[VALUE],
                        }
                    )
                    + "\n"
                )


def select(spans, run_id):
    """Indices of the spans of one pass."""
    return [i for i, s in enumerate(spans) if s[RUN] == run_id]


def aggregate(spans, indices):
    """Per span name: calls, total and self seconds, summed value.

    Self time is a span's duration minus the durations of its direct
    children; calls are strictly nested, so children never overlap.
    """
    child = defaultdict(float)
    for i in indices:
        p = spans[i][PARENT]
        if p >= 0:
            child[p] += spans[i][END] - spans[i][START]
    out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "value": 0})
    for i in indices:
        s = spans[i]
        dur = s[END] - s[START]
        row = out[s[NAME]]
        row["calls"] += 1
        row["total_s"] += dur
        row["self_s"] += dur - child[i]
        row["value"] += s[VALUE]
    return dict(out)


def has_ancestor(spans, i, name):
    p = spans[i][PARENT]
    while p >= 0:
        if spans[p][NAME] == name:
            return True
        p = spans[p][PARENT]
    return False


def count_under(spans, indices, name, ancestor):
    """Calls of ``name`` made (at any depth) inside an ``ancestor`` span."""
    return sum(1 for i in indices if spans[i][NAME] == name and has_ancestor(spans, i, ancestor))
