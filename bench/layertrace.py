"""Per-layer tracing of a mayacrystal process, installed from outside ``src/``.

Every traced function is replaced by a wrapper that pushes a frame, times
the call with the monotonic clock and, on return, charges the call's
duration minus its nested traced calls to the function's layer.  So the
layers' self times add up to the outermost call.  Boundaries between
layers (``graph``, ``oracle``, ``fock.x_act``, the public ``CrystalDatum``
methods) also record one span per call; the hot ``maya``, ``laurent`` and
``fock`` helpers only count.

``CrystalDatum.value_at`` and ``c_coeff`` are the recursion step itself,
reached only from inside ``datum`` and called millions of times per job; a
wrapper there would multiply the traced time, so their cost stays in the
self time of the ``datum`` call that drives them.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

LAYERS = ("cli", "graph", "datum", "maya", "fock", "laurent", "oracle")

#: Traced names per layer: every function or method another layer calls,
#: plus those a per-layer metric names.  ``Class.method`` names a method.
TRACED = {
    "cli": ("main",),
    "graph": ("explore", "check_axioms", "weight_census", "kostant", "lattice_points",
              "export", "load_json"),
    "datum": ("datum_from_word", "canonical_diagrams") + tuple(
        "CrystalDatum." + method for method in (
            "apply", "eval", "theta", "weight", "eps_hat", "phi_hat", "fingerprint",
            "value_table", "to_json")),
    "maya": ("to_partition", "from_partition", "removable_boxes", "remove_box",
             "addable_boxes", "add_box", "invert_outside", "lambda_diagram",
             "s_lambda_diagram", "partitions_of", "ChargedPartition.__post_init__",
             "MayaDiagram.__init__", "MayaDiagram.shift", "MayaDiagram.invert",
             "MayaDiagram.to_json"),
    "fock": ("x_act", "vec_val"),
    "laurent": ("LaurentPoly.__mul__", "LaurentPoly.__add__", "LaurentPoly.scale",
                "LaurentPoly.val", "MultiPoly.__mul__"),
    "oracle": ("generic_element", "d_gamma", "compare", "report_to_json"),
}
#: Layers whose calls are also recorded as spans (plus ``fock.x_act``).
SPAN_LAYERS = ("cli", "graph", "datum", "oracle")


def metric_name(layer, name):
    """A constructor is named by its class (``maya.ChargedPartition``), an
    operator by class and operation (``laurent.MultiPoly.mul``), anything
    else by its own name (``datum.theta``)."""
    owner, _, method = name.rpartition(".")
    if method in ("__init__", "__post_init__"):
        return "%s.%s" % (layer, owner)
    if method.startswith("__"):
        return "%s.%s.%s" % (layer, owner, method.strip("_"))
    return "%s.%s" % (layer, method)


def _explore_hook(tracer, args, graph):
    tracer.add("graph.nodes", len(graph.nodes))
    tracer.add("graph.children", len(graph.edges))


def _fingerprint_hook(tracer, args, fingerprint):
    tracer.add("datum.fingerprint.entries", len(fingerprint) - 2 * args[0].cartan.n)


def _remove_box_hook(tracer, args, partition):
    tracer.peak("maya.remove_box.max_rows", len(args[0].parts))


def _x_act_hook(tracer, args, vector):
    tracer.add("fock.x_act.terms_out", len(vector.terms))


def _multipoly_mul_hook(tracer, args, product):
    if product is not NotImplemented:
        tracer.peak("laurent.MultiPoly.mul.terms_max", len(product.terms))


def _compare_hook(tracer, args, report):
    tracer.add("oracle.compare.rows", len(report["results"]))


HOOKS = {
    "graph.explore": _explore_hook,
    "datum.fingerprint": _fingerprint_hook,
    "maya.remove_box": _remove_box_hook,
    "fock.x_act": _x_act_hook,
    "laurent.MultiPoly.mul": _multipoly_mul_hook,
    "oracle.compare": _compare_hook,
}


class Tracer:
    """Frames, per-layer self time, per-name counts and spans of one process."""

    def __init__(self):
        self.stack = [[0, None]]  # [nested ns, enclosing span id]
        self.self_ns = dict.fromkeys(LAYERS, 0)
        self.calls = {}
        self.incl_ns = {}
        self.active = {}
        self.counts = {}
        self.peaks = {}
        self.spans = []

    def add(self, name, value):
        self.counts[name] = self.counts.get(name, 0) + value

    def peak(self, name, value):
        self.peaks[name] = max(self.peaks.get(name, 0), value)

    def wrap(self, layer, name, fn, span, hook):
        stack = self.stack
        clock = time.perf_counter_ns
        self_ns = self.self_ns
        calls = self.calls
        incl_ns = self.incl_ns
        active = self.active
        spans = self.spans
        calls[name] = incl_ns[name] = active[name] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            active[name] += 1
            parent = stack[-1]
            if span:
                span_id = len(spans)
                spans.append(None)
            else:
                span_id = parent[1]
            frame = [0, span_id]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                self_ns[layer] += elapsed - frame[0]
                parent[0] += elapsed
                active[name] -= 1
                if not active[name]:
                    incl_ns[name] += elapsed  # outermost call of a recursion only
                if span:
                    spans[span_id] = (span_id, parent[1], name, start, end)
            if hook is not None:
                hook(self, args, result)
            return result

        return wrapper

    def install(self):
        """Wrap every target and rebind it wherever the package refers to it.

        Functions imported by name (``to_partition`` into ``datum``, ``fock``
        and ``oracle``, for example) are module attributes of the importer,
        so each loaded ``mayacrystal`` module and class is searched for the
        original object.  Raises if a reference is left unwrapped, which
        would make that counter read zero.
        """
        for layer in LAYERS:
            importlib.import_module("mayacrystal." + layer)
        modules = [
            module for key, module in sorted(sys.modules.items())
            if key == "mayacrystal" or key.startswith("mayacrystal.")
        ]
        owners = list(modules) + [
            value for module in modules for value in vars(module).values()
            if isinstance(value, type) and value.__module__.startswith("mayacrystal")
        ]
        originals = []
        for layer, names in TRACED.items():
            for name in names:
                owner = sys.modules["mayacrystal." + layer]
                cls, _, attr = name.rpartition(".")
                if cls:
                    owner = getattr(owner, cls)
                original = vars(owner)[attr]
                metric = metric_name(layer, name)
                span = layer in SPAN_LAYERS or metric == "fock.x_act"
                wrapper = self.wrap(layer, metric, original, span, HOOKS.get(metric))
                for target in owners:
                    for key, value in list(vars(target).items()):
                        if value is original:
                            setattr(target, key, wrapper)
                originals.append(original)
        left = [
            "%s.%s" % (target.__name__, key)
            for target in owners
            for key, value in vars(target).items()
            if any(value is original for original in originals)
        ]
        if left:
            raise RuntimeError("unwrapped references: %s" % ", ".join(left))

    def write(self, path, main_ns):
        """Write the record of one job; ``main_ns`` is the job's traced time
        measured outside every wrapper."""
        record = {
            "main_ns": main_ns,
            "self_ns": self.self_ns,
            "calls": self.calls,
            "incl_ns": self.incl_ns,
            "counts": self.counts,
            "peaks": self.peaks,
            "spans": self.spans,
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(record, handle, separators=(",", ":"))
