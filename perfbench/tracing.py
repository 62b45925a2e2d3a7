"""In-memory spans around rankforge's public functions, and the per-layer metrics built from them.

`install` replaces every public function of every rankforge module with a
recording wrapper, in each module namespace that bound it (`from .forms
import value_table` makes a separate name in analytic, varieties,
convolutions and cli), plus the method `PolyDense.evaluate_many`.  A span is
`[name, start, end, parent, op, attrs]`; spans stay in a list until the run
writes them out.  A span's self time is its duration minus the durations of
its direct children.  Worker threads keep their own span stack.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import threading
import time

MODULES = ["linalg", "forms", "analytic", "partition", "varieties", "convolutions", "polarization", "cli"]
CLI_COMMANDS = ["arank", "prank", "variety_density", "variety_connect", "conv", "boxnorm", "polarize"]


def _attrs_solve(args, kwargs, result):
    A = args[0]
    return {"unknowns": len(A[0]) if len(A) else 0}


def _attrs_value_table(args, kwargs, result):
    return {"points": args[0].shape.domain_size, "bytes": int(result.nbytes)}


def _attrs_histogram(args, kwargs, result):
    return {"points": args[0].shape.domain_size}


def _attrs_prank(args, kwargs, result):
    return {"nodes": result.nodes, "exact": bool(result.exact)}


def _attrs_connectivity(args, kwargs, result):
    return {"set_points": result.set_size, "connected": bool(result.is_connected),
            "exact": bool(result.is_connected and result.diameter_exact)}


def _attrs_conv(args, kwargs, result):
    t, i = args[0], args[1]
    return {"mults": t.shape.domain_size * t.shape.sizes[int(i) - 1]}


def _attrs_difference(args, kwargs, result):
    return {"points": int(result.size)}


def _attrs_evaluate_many(args, kwargs, result):
    return {"rows": int(args[1].shape[0])}


ATTRS = {
    "linalg.solve": _attrs_solve,
    "forms.value_table": _attrs_value_table,
    "analytic.value_histogram": _attrs_histogram,
    "partition.prank_exact": _attrs_prank,
    "varieties.connectivity": _attrs_connectivity,
    "convolutions.conv_dir": _attrs_conv,
    "polarization.difference_table": _attrs_difference,
    "polarization.PolyDense.evaluate_many": _attrs_evaluate_many,
}


def _cli_name(fn_name: str, args) -> str:
    cmd = fn_name[len("cmd_"):]
    if cmd == "variety":
        return f"cli.variety_{args[0].action}"
    return f"cli.{cmd}"


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.op = -1
        self.histogram_inputs: dict = {}  # shape -> map, for the one-thread replay
        self._local = threading.local()
        self._undo: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        attrs = ATTRS.get(name)
        cli_cmd = name.startswith("cli.cmd_")
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            span = [_cli_name(fn.__name__, args) if cli_cmd else name, 0.0, 0.0,
                    stack[-1] if stack else -1, tracer.op, None]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if attrs is not None:
                span[5] = attrs(args, kwargs, result)
            if name == "analytic.value_histogram" and len(args) == 1 and kwargs.get("restriction") is None:
                tracer.histogram_inputs.setdefault(args[0].shape, args[0])
            return result

        return traced

    def install(self):
        mods = [importlib.import_module(f"rankforge.{m}") for m in MODULES]
        mods.append(importlib.import_module("rankforge"))
        wrapped = {}
        for mod in mods[:-1]:
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__.startswith("rankforge.")):
                    wrapped[obj] = self.wrap(f"{obj.__module__.rsplit('.', 1)[-1]}.{obj.__name__}", obj)
        for mod in mods:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._undo.append((mod, attr, obj))
                    setattr(mod, attr, wrapped[obj])
        poly = importlib.import_module("rankforge.polarization").PolyDense
        self._undo.append((poly, "evaluate_many", poly.evaluate_many))
        poly.evaluate_many = self.wrap("polarization.PolyDense.evaluate_many", poly.evaluate_many)

    def uninstall(self):
        while self._undo:
            owner, attr, obj = self._undo.pop()
            setattr(owner, attr, obj)

    def write(self, path):
        path.unlink(missing_ok=True)  # a new file: truncating a fresh one can wait for a flush
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s, separators=(",", ":")) + "\n")


def _share(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list) -> dict:
    """Per-layer metrics (name -> (value, unit)) from the spans of one traced pass."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child_time[s[3]] += s[2] - s[1]
    agg: dict = {}
    for i, s in enumerate(spans):
        a = agg.setdefault(s[0], {"calls": 0, "self": 0.0, "durs": [], "attrs": []})
        a["calls"] += 1
        a["self"] += (s[2] - s[1]) - child_time[i]
        a["durs"].append(s[2] - s[1])
        if s[5] is not None:
            a["attrs"].append(s[5])

    # leaves and linalg time inside each partition search
    leaves = 0
    linalg_in_search = 0.0
    for i, s in enumerate(spans):
        if not s[0].startswith("linalg."):
            continue
        j = s[3]
        while j >= 0 and spans[j][0] != "partition.prank_exact":
            j = spans[j][3]
        if j >= 0:
            leaves += s[0] == "linalg.solve"
            linalg_in_search += (s[2] - s[1]) - child_time[i]

    def get(name):
        return agg.get(name, {"calls": 0, "self": 0.0, "durs": [], "attrs": []})

    def total(name, key):
        return sum(a[key] for a in get(name)["attrs"])

    out = {}

    def put(name, value, unit):
        out[name] = (value, unit)

    put("linalg.solve.calls", get("linalg.solve")["calls"], "count")
    put("linalg.solve.self_s", get("linalg.solve")["self"], "s")
    put("linalg.solve.unknowns", total("linalg.solve", "unknowns"), "count")
    put("linalg.row_echelon.self_s", get("linalg.row_echelon")["self"], "s")
    put("linalg.rank.calls", get("linalg.rank")["calls"], "count")

    pr = get("partition.prank_exact")
    put("partition.prank_exact.calls", pr["calls"], "count")
    put("partition.prank_exact.self_s", pr["self"], "s")
    put("partition.prank_exact.budget_units", total("partition.prank_exact", "nodes"), "count")
    put("partition.prank_exact.leaves", leaves, "count")
    put("partition.prank_exact.exact_share", _share(total("partition.prank_exact", "exact"), pr["calls"]), "share")
    put("partition.prank_exact.linalg_share", _share(linalg_in_search, sum(pr["durs"])), "share")
    put("partition.lovett_lower_bound.self_s", get("partition.lovett_lower_bound")["self"], "s")

    put("forms.value_table.calls", get("forms.value_table")["calls"], "count")
    put("forms.value_table.self_s", get("forms.value_table")["self"], "s")
    put("forms.value_table.points", total("forms.value_table", "points"), "points.computed")
    put("forms.value_table.bytes", total("forms.value_table", "bytes"), "B.computed")
    put("forms.map_from_json.self_s", get("forms.map_from_json")["self"], "s")

    put("analytic.value_histogram.calls", get("analytic.value_histogram")["calls"], "count")
    put("analytic.value_histogram.self_s", get("analytic.value_histogram")["self"], "s")
    put("analytic.value_histogram.points", total("analytic.value_histogram", "points"), "points.computed")
    put("analytic.bias_report.self_s", get("analytic.bias_report")["self"], "s")
    put("analytic.box_norm.self_s", get("analytic.box_norm")["self"], "s")

    cn = get("varieties.connectivity")
    put("varieties.connectivity.calls", cn["calls"], "count")
    put("varieties.connectivity.self_s", cn["self"], "s")
    put("varieties.connectivity.set_points", total("varieties.connectivity", "set_points"), "count")
    put("varieties.connectivity.exact_diameter_share",
        _share(total("varieties.connectivity", "exact"), total("varieties.connectivity", "connected")), "share")
    put("varieties.density_bound_check.self_s", get("varieties.density_bound_check")["self"], "s")

    put("convolutions.conv_dir.calls", get("convolutions.conv_dir")["calls"], "count")
    put("convolutions.conv_dir.self_s", get("convolutions.conv_dir")["self"], "s")
    put("convolutions.conv_dir.mults", total("convolutions.conv_dir", "mults"), "count")
    put("convolutions.zero_set_indicator.self_s", get("convolutions.zero_set_indicator")["self"], "s")

    put("polarization.difference_table.calls", get("polarization.difference_table")["calls"], "count")
    put("polarization.difference_table.self_s", get("polarization.difference_table")["self"], "s")
    put("polarization.difference_table.points", total("polarization.difference_table", "points"), "points.computed")
    ev = "polarization.PolyDense.evaluate_many"
    put(f"{ev}.calls", get(ev)["calls"], "count")
    put(f"{ev}.self_s", get(ev)["self"], "s")
    put(f"{ev}.rows", total(ev, "rows"), "count")
    put("polarization.polarize.self_s", get("polarization.polarize")["self"], "s")

    for cmd in CLI_COMMANDS:
        c = get(f"cli.{cmd}")
        put(f"cli.{cmd}.calls", c["calls"], "count")
        put(f"cli.{cmd}.self_s", c["self"], "s")
        put(f"cli.{cmd}.p50_ms", statistics.median(c["durs"]) * 1e3 if c["durs"] else 0.0, "ms")
    return out
