"""Span tracer for the benchmark's traced run.

``Tracer.install`` wraps every public function defined in each layer module
of ``containment`` and rebinds every module attribute that names one, so the
names other modules imported (``containment.dynamics.project_points``,
``containment.analysis.sym_eigenvalues``, ...) are traced too. Nothing under
``src/`` changes; ``uninstall`` puts the originals back.

Spans are recorded only inside ``Tracer.op``, kept in memory with parent
links, and written out by ``write``. A span's self time is its duration
minus the time its child spans cover, so a layer's self time excludes the
layers it calls: ``dynamics.self_ms`` excludes the projection that
``simulate`` hands to ``geometry``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns

from containment.analysis import VerificationReport

LAYERS = ("graph", "linalg", "geometry", "dynamics", "analysis", "sampling",
          "scenario_io", "cli")


def _simulate(counts, scenario, _):
    counts["dynamics.steps"] += scenario.step_count
    counts["dynamics.segments"] += len(scenario.schedule.entries)


def _step(counts, *_):
    counts["dynamics.steps"] += 1


def _project_points(counts, points, _):
    counts["geometry.points"] += len(points)


def _eigenvalues(counts, matrix, _):
    counts["linalg.eig_calls"] += 1
    counts["linalg.eig_n3"] += len(matrix) ** 3


def _solve(counts, *_):
    counts["linalg.solve_calls"] += 1


def _written(counts, _, path):
    counts["scenario_io.bytes_written"] += Path(path).stat().st_size


def _read(counts, path, _):
    counts["scenario_io.bytes_read"] += Path(path).stat().st_size


# (layer, function) -> hook(counts, first argument, result), run after the call
HOOKS = {
    ("dynamics", "simulate"): _simulate,
    ("dynamics", "step"): _step,
    ("geometry", "project_points"): _project_points,
    ("linalg", "sym_eigenvalues"): _eigenvalues,
    ("linalg", "solve_spd"): _solve,
    ("scenario_io", "write_scenario"): _written,
    ("scenario_io", "write_trajectory"): _written,
    ("scenario_io", "write_plot_data"): _written,
    ("scenario_io", "read_trajectory"): _read,
    ("scenario_io", "load_scenario"): _read,
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, op, layer, name, start_ns, end_ns, self_ns)
        self.counts: Counter = Counter()
        self._stack: list[list] = []  # open spans: [id, layer, child_ns]
        self._op = None
        self._next_id = 0
        self._wrappers: dict = {}
        self._patched: list[tuple] = []
        for layer in LAYERS:
            mod = importlib.import_module(f"containment.{layer}")
            for name, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not name.startswith("_")):
                    self._wrappers[fn] = self._wrap(layer, name, fn)

    def _wrap(self, layer: str, name: str, fn):
        hook = HOOKS.get((layer, name))
        first = next(iter(inspect.signature(fn).parameters), None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            parent = self._stack[-1]
            frame = [self._new_id(), layer, 0]
            self._stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                self._stack.pop()
                parent[2] += end - start
                self.spans.append((frame[0], parent[0], self._op, layer, name,
                                   start, end, end - start - frame[2]))
            if parent[1] != layer:
                self.counts[f"{layer}.calls"] += 1
            if hook is not None:
                hook(self.counts, args[0] if args else kwargs[first], result)
            if isinstance(result, VerificationReport):
                self.counts["analysis.reports"] += 1
            return result

        return traced

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def install(self) -> None:
        for modname, mod in list(sys.modules.items()):
            if modname != "containment" and not modname.startswith("containment."):
                continue
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in self._wrappers:
                    self._patched.append((mod, name, obj))
                    setattr(mod, name, self._wrappers[obj])

    def uninstall(self) -> None:
        while self._patched:
            mod, name, obj = self._patched.pop()
            setattr(mod, name, obj)

    @contextmanager
    def op(self, op_id: int):
        """Root span of one op; spans of the op share ``op_id``."""
        frame = [self._new_id(), "op", 0]
        self._op = op_id
        self._stack.append(frame)
        start = perf_counter_ns()
        try:
            yield
        finally:
            end = perf_counter_ns()
            self._stack.pop()
            self.spans.append((frame[0], None, op_id, "op", "op", start, end,
                               end - start - frame[2]))

    def self_ms(self) -> dict[str, float]:
        """Self time per layer, summed over all spans, in milliseconds."""
        totals = dict.fromkeys(LAYERS, 0)
        for span in self.spans:
            if span[3] in totals:
                totals[span[3]] += span[7]
        return {layer: ns / 1e6 for layer, ns in totals.items()}

    def write(self, path: Path) -> None:
        keys = ("id", "parent", "op", "layer", "name", "start_ns", "end_ns", "self_ns")
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as f:
            for span in sorted(self.spans):
                f.write(json.dumps(dict(zip(keys, span))) + "\n")
