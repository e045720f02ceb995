"""Spans around axicav's layers, recorded from outside the package.

Each public layer function is replaced, at the module attribute its caller
looks up, by a wrapper that records a span (name, start, end, parent span,
op id) and the counts that belong to that boundary.  ``axicav.cli`` imports
``run`` by name, so the engine is wrapped at ``axicav.cli.run``; the rest
are looked up through their module (``density.bin_ensemble``,
``axion.suppression_factor`` ...), so they are wrapped there, which also
catches calls between functions of one module.

Spans live in flat arrays while the run lasts and are written out once at
the end.
"""

from __future__ import annotations

import functools
import time
from array import array
from collections import defaultdict

import numpy as np


class Tracer:
    """Span store plus the patches that route axicav's layers through it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("i")
        self.op_id = -1
        self.counts: dict[tuple[int, str], float] = defaultdict(float)
        self.final_weights = None  # weights of the last field-on run's final ensemble
        self._stack = [-1]
        self._patches: list[tuple[object, str, object, object]] = []

    # -- spans ---------------------------------------------------------------

    def open(self, label: str) -> int:
        name_id = self._ids.get(label)
        if name_id is None:
            name_id = self._ids[label] = len(self.names)
            self.names.append(label)
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def count(self, key: str, value: float) -> None:
        self.counts[(self.op_id, key)] += value

    def current(self) -> str | None:
        top = self._stack[-1]
        return None if top < 0 else self.names[self.name[top]]

    # -- patches -------------------------------------------------------------

    def wrap(self, module, attr: str, label, counter=None) -> None:
        """Route ``module.attr`` through a span named ``label`` (a string,
        or a function of the call's arguments that returns one)."""
        fn = getattr(module, attr)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = label if isinstance(label, str) else label(*args, **kwargs)
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if counter is not None:
                counter(tracer, name, args, kwargs, result)
            return result

        self._patches.append((module, attr, fn, traced))

    def install(self) -> None:
        for module, attr, _, traced in self._patches:
            setattr(module, attr, traced)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)

    # -- results -------------------------------------------------------------

    def per_op(self) -> dict[int, dict]:
        """For each op: per span name, the inclusive time of its outermost
        spans (a span inside one of the same name is not counted twice),
        the self time (duration minus direct children) and the number of
        spans; plus the counts recorded at the boundaries."""
        names = len(self.names)
        name = np.frombuffer(self.name, dtype=np.int32).astype(np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        op = np.frombuffer(self.op, dtype=np.int32).astype(np.int64)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        outer = ~has_parent
        outer[has_parent] = name[parent[has_parent]] != name[has_parent]
        ops = np.unique(op)
        slot = np.searchsorted(ops, op) * names + name
        incl = np.bincount(slot, weights=np.where(outer, dur, 0.0), minlength=ops.size * names)
        self_t = np.bincount(slot, weights=dur - child, minlength=ops.size * names)
        calls = np.bincount(slot, minlength=ops.size * names)
        out = {}
        for i, op_id in enumerate(ops.tolist()):
            spans = {}
            for j, label in enumerate(self.names):
                k = i * names + j
                if calls[k]:
                    spans[label] = {"incl_s": float(incl[k]), "self_s": float(self_t[k]),
                                    "calls": int(calls[k])}
            out[op_id] = {"spans": spans, "counts": {}}
        for (op_id, key), value in self.counts.items():
            out.setdefault(op_id, {"spans": {}, "counts": {}})["counts"][key] = value
        return out

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            op=np.frombuffer(self.op, dtype=np.int32),
        )


# ---------------------------------------------------------------------------
# the layers of axicav


def _run_label(config, *args, **kwargs) -> str:
    return "cavity.ref_run" if config.theta_split_rad == 0 else "cavity.run"


def _count_run(tracer, name, args, kwargs, result) -> None:
    if name == "cavity.run":
        tracer.count("beams_final", len(result.final))
        tracer.count("snapshot_beams", sum(len(s.ensemble) for s in result.snapshots))
        tracer.final_weights = result.final.weights


def _count_coalesce(tracer, name, args, kwargs, result) -> None:
    if tracer.current() == "cavity.run":
        tracer.count("coalesce_beams_in", len(args[0]))
        tracer.count("coalesce_beams_out", len(result))


# The CLI passes these arguments positionally: bin_ensemble(ensemble,
# profile, edges) and compare_growth(n_passes, ...).
def _count_bins(tracer, name, args, kwargs, result) -> None:
    tracer.count("beam_bins", len(args[0]) * (len(args[2]) - 1))


def _count_passes(tracer, name, args, kwargs, result) -> None:
    tracer.count("lattice_passes", args[0])


def axicav_tracer() -> Tracer:
    """A tracer wrapping every layer the benchmark reports on."""
    from axicav import axion, cavity, cli, density, lattice, rays, scenario, sensitivity

    t = Tracer()
    t.wrap(cli, "run", _run_label, _count_run)
    t.wrap(cavity, "coalesce", "cavity.coalesce", _count_coalesce)
    t.wrap(density, "bin_ensemble", "density.bin_ensemble", _count_bins)
    t.wrap(density, "integrate_window", "density.integrate_window")
    t.wrap(density, "profile_difference", "density.profile_difference")
    for attr in ("central_loss_series", "sideband_gain_series", "center_sideband_series"):
        t.wrap(sensitivity, attr, "sensitivity.series")
    for attr in ("fit_linear", "fit_power", "scenario_report"):
        t.wrap(sensitivity, attr, "sensitivity.fit")
    for attr in ("mixing_angle", "suppression_factor", "max_measurable_mass"):
        t.wrap(axion, attr, "axion.scan")
    t.wrap(lattice, "compare_growth", "lattice.compare_growth", _count_passes)
    for attr in ("load_preset", "load_scenario"):
        t.wrap(scenario, attr, "scenario.load")
    # No current path calls these; the spans show it stays that way.
    for attr in ("split", "angular_enhance", "compose", "propagation_matrix", "focusing_matrix"):
        t.wrap(rays, attr, "rays")
    return t
