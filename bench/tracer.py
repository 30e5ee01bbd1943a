"""Span tracer that wraps the public functions of every coopzf layer.

The tracer never edits the package source.  While installed, it rebinds
each public function of a layer module, in every coopzf namespace that
holds it, to a wrapper that records one span per call.  Calls the library
makes internally through module globals (``certify_lower_bound`` calling
``max_avoidance_m1``, ``cli.main`` calling ``verify``) therefore show up
as nested spans, and each span's self time excludes its children.

Each span is ``(function, start_ns, end_ns, op_id, parent_index)``; spans
stay in memory and :meth:`Tracer.write` saves them at the end of a run.
Per-pass aggregates (self time and calls per layer group, plus counts read
from return values) feed the per-layer metrics.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from pathlib import Path

LAYERS = ("topology", "assignment", "schemes", "zf_engine", "oracle", "converse", "cli")

# Public function -> group inside its layer; unlisted functions fall into "other".
GROUPS = {
    "topology": {
        "build_wyner": "build",
        "build_locally_connected": "build",
        "build_two_dim": "build",
        "build_hexagonal": "build",
        "hexagonal_from_coords": "build",
        "topology_from_json": "doc",
    },
    "assignment": {"metrics": "metrics"},
    "schemes": {
        "validate_scheme": "validate",
        "wyner_backhaul_scheme": "generate",
        "locally_connected_scheme": "generate",
        "convex_combination": "generate",
        "table1_row": "generate",
        "table1_scheme": "generate",
        "two_dim_row_scheme": "generate",
        "two_dim_scheme": "generate",
        "hexagonal_coset_scheme": "generate",
        "scheme_to_json": "doc",
        "scheme_from_json": "doc",
        "hexagonal_cooperative_scheme": "hex_coop",
        "decompose_hexagonal_to_linear": "hex_coop",
        "validate_linear_decomposition": "hex_coop",
    },
    "zf_engine": {
        "sample_channels": "sample",
        "design_beams": "design",
        "verify": "verify",
        "dof_report": "report",
    },
    "oracle": {
        "max_avoidance_m1": "m1",
        "max_avoidance_cooperative": "coop",
        "max_activation_for_assignment": "activation",
        "certify_lower_bound": "lower_bound",
        "validate_schedule": "schedule",
    },
    "converse": {
        "algorithm1_certify": "certify",
        "validate_certificate": "audit",
        "triangle_state_bound": "states",
        "backhaul_converse": "backhaul",
        "appendix_receiver_set": "reconstruct",
        "reconstructibility_check": "reconstruct",
    },
    "cli": {},
}
CLI_GROUP = "main"  # every public cli function is the front end


def _count_doc(tracer, result):
    tracer.count("schemes.doc_bytes", len(result.encode()))


def _count_verify(tracer, result):
    tracer.count("zf_engine.users_verified", result.dof)
    if result.passed:
        tracer.maximum("zf_engine.max_residual", result.max_residual)


def _nodes(name):
    def record(tracer, result):
        tracer.count(name, result[1].nodes_explored)

    return record


def _count_certified(tracer, result):
    tracer.count("oracle.lower_bound_certified", int(bool(result)))


def _count_groups(tracer, result):
    tracer.count("converse.groups", len(result.groups))
    tracer.maximum("converse.group_size_max", max((len(g.nodes) for g in result.groups), default=0))


def _count_tight(tracer, result):
    tracer.count("converse.backhaul_tight", int(result.slack == 0))


# Counts read from return values at the layer boundary.
RESULT_COUNTERS = {
    "scheme_to_json": _count_doc,
    "verify": _count_verify,
    "max_avoidance_m1": _nodes("oracle.m1_nodes"),
    "max_avoidance_cooperative": _nodes("oracle.coop_nodes"),
    "max_activation_for_assignment": _nodes("oracle.activation_nodes"),
    "certify_lower_bound": _count_certified,
    "algorithm1_certify": _count_groups,
    "triangle_state_bound": _count_groups,
    "backhaul_converse": _count_tight,
}


class Tracer:
    """Records spans and per-pass aggregates for calls into coopzf layers.

    Counters (:meth:`count`, :meth:`maximum`) work whether or not the
    wrappers are installed, so operations can report their own counts.
    """

    def __init__(self, package):
        self.package = package
        self.spans: list = []
        self.op_id = -1
        self._open: list[int] = []
        self._child_ns: list[int] = []
        self._bindings: list[tuple[object, str, object]] = []
        self.reset_pass()

    # -- counters and per-pass aggregates ---------------------------------

    def reset_pass(self) -> None:
        self.busy: dict[tuple[str, str], list[int]] = {}
        self.counters: dict[str, float] = {}
        self.top_ns = 0
        self.top_outside_cli = 0

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def maximum(self, name: str, value: float) -> None:
        self.counters[name] = max(self.counters.get(name, value), value)

    def snapshot(self) -> dict:
        """This pass's aggregates as plain data."""
        return {
            "busy": {f"{layer}.{group}": list(v) for (layer, group), v in self.busy.items()},
            "counters": dict(self.counters),
            "top_ns": self.top_ns,
            "top_outside_cli": self.top_outside_cli,
        }

    # -- wrapping ---------------------------------------------------------

    def _modules(self) -> list:
        return [self.package] + [getattr(self.package, layer) for layer in LAYERS]

    def install(self) -> None:
        """Rebind every public layer function to its tracing wrapper."""
        if self._bindings:
            return
        wrappers = {}
        for layer in LAYERS:
            module = getattr(self.package, layer)
            for name, fn in vars(module).items():
                if name.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                group = CLI_GROUP if layer == "cli" else GROUPS[layer].get(name, "other")
                wrappers[id(fn)] = self._wrap(fn, layer, group)
        for module in self._modules():
            for name, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._bindings.append((module, name, value))
                    setattr(module, name, wrapper)

    def uninstall(self) -> None:
        for module, name, original in reversed(self._bindings):
            setattr(module, name, original)
        self._bindings.clear()

    def _wrap(self, fn, layer: str, group: str):
        tracer = self
        key = (layer, group)
        label = f"{layer}.{fn.__name__}"
        on_result = RESULT_COUNTERS.get(fn.__name__)
        spans, open_, child_ns = self.spans, self._open, self._child_ns
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = open_[-1] if open_ else -1
            index = len(spans)
            spans.append(None)
            open_.append(index)
            child_ns.append(0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                open_.pop()
                inner = child_ns.pop()
                duration = end - start
                if child_ns:
                    child_ns[-1] += duration
                else:
                    tracer.top_ns += duration
                    if layer != "cli":
                        tracer.top_outside_cli += 1
                spans[index] = (label, start, end, tracer.op_id, parent)
                totals = tracer.busy.get(key)
                if totals is None:
                    totals = tracer.busy[key] = [0, 0]
                totals[0] += duration - inner
                totals[1] += 1
            if on_result is not None:
                on_result(tracer, result)
            return result

        return traced

    # -- output -----------------------------------------------------------

    def write(self, path: Path, header: dict) -> None:
        """Write the header, then one ``[name, start_ns, end_ns, op, parent]`` span per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            out.write(json.dumps({**header, "span_fields": ["name", "start_ns", "end_ns", "op", "parent"]}) + "\n")
            for span in self.spans:
                out.write(json.dumps(span) + "\n")
