"""Span tracing around the package's public functions, installed from outside.

Each hook replaces a function at the name its caller looks it up under (for
example ``phononbus.protocols.evolve``, the name the protocol runners call),
so the package itself carries no tracing code. A span records its layer
name, start and end, the span that caused it, the operation it belongs to
and the benchmark phase. Spans stay in memory until the run ends.

A hook whose target no longer exists raises :class:`MissingHook`: a layer
that silently read zero would look like a perfect improvement.
"""

from __future__ import annotations

import functools
import importlib
import os
from time import perf_counter

# (module, attribute path, layer name). Several lookup names may feed one layer.
HOOKS = (
    ("phononbus.cli", "main", "cli.main"),
    ("phononbus.cli", "parse_run_config", "config.parse_run_config"),
    ("phononbus.config", "RunManifest.write", "config.manifest_write"),
    ("phononbus.cli", "run_resonant", "protocols.run"),
    ("phononbus.cli", "run_virtual", "protocols.run"),
    ("phononbus.cli", "run_double_rabi", "protocols.run"),
    ("phononbus.protocols", "run_resonant", "protocols.run"),
    ("phononbus.protocols", "run_virtual", "protocols.run"),
    ("phononbus.protocols", "run_double_rabi", "protocols.run"),
    ("phononbus.cli", "sweep", "protocols.sweep"),
    ("phononbus.cli", "protocol_hierarchy", "protocols.hierarchy"),
    ("phononbus.protocols", "evolve", "dynamics.evolve"),
    ("phononbus.dynamics", "segment_liouvillian", "dynamics.segment_liouvillian"),
    ("phononbus.protocols", "segment_liouvillian", "dynamics.segment_liouvillian"),
    ("phononbus.dynamics", "expm", "dynamics.expm"),
    ("phononbus.dynamics", "Trajectory.to_csv", "dynamics.to_csv"),
    ("phononbus.dynamics", "embed", "qops.embed"),
    ("phononbus.cli", "read_field_profile", "device.read_field_profile"),
    ("phononbus.cli", "normalize_photon_field", "device.normalize"),
    ("phononbus.cli", "normalize_phonon_strain", "device.normalize"),
    ("phononbus.cli", "electromechanical_coupling", "device.electromechanical_coupling"),
    ("phononbus.cli", "spin_coupling_map", "device.spin_coupling_map"),
    ("phononbus.device", "write_field_profile", "device.write_field_profile"),
    ("phononbus.cli", "field_for_splitting", "spin.field_for_splitting"),
    ("phononbus.cli", "analytic_eigensystem", "spin.analytic_eigensystem"),
    ("phononbus.spin", "analytic_eigensystem", "spin.analytic_eigensystem"),
)

NAME, START, END, PARENT, OP, PHASE = range(6)


class MissingHook(RuntimeError):
    """A function named in ``HOOKS`` is not where the hook looks it up."""


class Tracer:
    """Records spans in this process only; forked children call straight through."""

    def __init__(self):
        self.spans: list[list] = []
        self.phase = "setup"
        self.op = -1
        self._stack: list[int] = []
        self._pid = os.getpid()
        self._restore: list[tuple] = []

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != tracer._pid:
                return fn(*args, **kwargs)
            stack = tracer._stack
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.op, tracer.phase]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[START] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()

        return traced

    def install(self) -> "Tracer":
        """Wrap every hook target; raise :class:`MissingHook`, with nothing installed, if one is missing."""
        targets = []
        for module_name, path, name in HOOKS:
            try:
                owner = importlib.import_module(module_name)
            except ImportError as exc:
                raise MissingHook(f"{module_name} (layer {name}) cannot be imported: {exc}") from exc
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
            if not callable(original):
                raise MissingHook(f"{module_name}.{path} (layer {name}) not found")
            targets.append((owner, attr, original, name))
        for owner, attr, original, name in targets:
            self._restore.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))
        return self

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)


def _child_time(spans: list[list]) -> list[float]:
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child_time[span[PARENT]] += span[END] - span[START]
    return child_time


def layer_totals(spans: list[list], phases: set[str]) -> dict[str, dict[str, float]]:
    """Per layer: calls, busy time and self time (busy minus child spans)."""
    child_time = _child_time(spans)
    totals: dict[str, dict[str, float]] = {}
    for k, span in enumerate(spans):
        if span[PHASE] not in phases:
            continue
        t = totals.setdefault(span[NAME], {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        busy = span[END] - span[START]
        t["calls"] += 1
        t["busy_s"] += busy
        t["self_s"] += busy - child_time[k]
    return totals


def self_time_by_op(spans: list[list], phase: str) -> dict[int, float]:
    """Sum of self times of all spans of each operation."""
    out: dict[int, float] = {}
    child_time = _child_time(spans)
    for k, span in enumerate(spans):
        if span[PHASE] == phase:
            out[span[OP]] = out.get(span[OP], 0.0) + span[END] - span[START] - child_time[k]
    return out
