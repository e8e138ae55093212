"""Spans around the calls into each layer of ``mminfenv``, for the traced run.

While a ``Tracer`` is active, the public functions each verb calls are
replaced, in the module namespaces they are looked up from, by wrappers
that record a span (id, name, parent, start, end) before delegating to
the original.  The entry call of an operation (a CLI verb, or
``compute_moment_table`` on the large-K workloads) is the root span.
Spans are kept in memory; ``layer_metrics`` derives each layer's self
time (its spans' durations minus the part covered by child spans).
Nothing under ``src/`` changes, and the originals are restored on exit.
"""

import time
from collections import defaultdict

import mminfenv.cli
import mminfenv.closedform
import mminfenv.moments
import mminfenv.sim

# (layer, module whose namespace holds the reference, attribute)
PATCHES = [
    ("modelfile.load", mminfenv.cli, "load_model"),
    ("environment.statics", mminfenv.cli, "chain_statics"),
    ("environment.statics", mminfenv.moments, "chain_statics"),
    ("environment.statics", mminfenv.sim, "chain_statics"),
    ("moments.palm", mminfenv.cli, "palm_moment_vectors"),
    ("moments.palm", mminfenv.moments, "palm_moment_vectors"),
    ("moments.stationary", mminfenv.cli, "stationary_moment_vectors"),
    ("moments.stationary", mminfenv.moments, "stationary_moment_vectors"),
    ("moments.assemble", mminfenv.moments, "assemble_moment_table"),
    ("moments.checks", mminfenv.cli, "forward_relation_residuals"),
    ("moments.checks", mminfenv.cli, "markovian_identity_residuals"),
    ("moments.checks", mminfenv.moments, "forward_relation_residuals"),
    ("moments.checks", mminfenv.moments, "markovian_identity_residuals"),
    ("closedform", mminfenv.closedform, "from_environment"),
    ("closedform", mminfenv.closedform, "palm_moments"),
    ("closedform", mminfenv.closedform, "shifted_palm_moments"),
    ("closedform", mminfenv.closedform, "kummer_reference"),
    ("closedform", mminfenv.closedform, "gamma_sojourn_reference"),
    ("sim.estimate", mminfenv.cli, "estimate_factorial_moments"),
    ("sim.env_path", mminfenv.sim, "simulate_environment"),
    ("sim.queue", mminfenv.sim, "simulate_queue"),
]


class Tracer:
    """Collects spans; use ``with tracer.active():`` around traced calls."""

    def __init__(self):
        self.spans = []  # [id, name, parent, start, end]
        self._stack = []
        self.segments = 0
        self.palm_flops = 0.0

    def span(self, name, fn, *args, **kwargs):
        record = [len(self.spans), name, self._stack[-1] if self._stack else None, 0.0, 0.0]
        self.spans.append(record)
        self._stack.append(record[0])
        record[3] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            record[4] = time.perf_counter()
            self._stack.pop()
        if name == "sim.env_path":
            self.segments += len(result.states)
        elif name == "moments.palm":
            # nominal LU flops of one dense solve per order
            self.palm_flops += result.n_max * 2.0 * len(result.vectors[0]) ** 3 / 3.0
        return result

    def active(self):
        return _Patched(self)

    def self_times(self):
        """Total self time in seconds per span name."""
        child_time = defaultdict(float)
        for _, _, parent, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals = defaultdict(float)
        for span_id, name, _, start, end in self.spans:
            totals[name] += (end - start) - child_time[span_id]
        return totals

    def count(self, name):
        return sum(1 for span in self.spans if span[1] == name)

    def to_json(self):
        keys = ("id", "name", "parent", "start", "end")
        return [dict(zip(keys, span)) for span in self.spans]


class _Patched:
    def __init__(self, tracer):
        self.tracer = tracer
        self.saved = []

    def __enter__(self):
        for layer, module, attr in PATCHES:
            original = getattr(module, attr, None)
            if original is None:  # renamed or removed: the layer reads 0
                continue
            self.saved.append((module, attr, original))
            setattr(module, attr, _wrap(self.tracer, layer, original))
        return self.tracer

    def __exit__(self, *exc):
        for module, attr, original in reversed(self.saved):
            setattr(module, attr, original)
        self.saved.clear()
        return False


def _wrap(tracer, layer, original):
    def traced(*args, **kwargs):
        return tracer.span(layer, original, *args, **kwargs)

    traced.__wrapped__ = original
    return traced


def layer_metrics(tracer, operations):
    """Per-layer metrics per operation, from the spans of ``operations`` traced calls."""
    self_s = tracer.self_times()

    def per_op_ms(name):
        return self_s.get(name, 0.0) * 1e3 / operations

    env_paths = tracer.count("sim.env_path")
    palm_s = sum(end - start for _, name, _, start, end in tracer.spans if name == "moments.palm")
    return {
        "modelfile.load_ms": (per_op_ms("modelfile.load"), "ms"),
        "environment.statics_ms": (per_op_ms("environment.statics"), "ms"),
        "moments.palm_ms": (per_op_ms("moments.palm"), "ms"),
        "moments.palm_gflops": (tracer.palm_flops / palm_s / 1e9 if palm_s else 0.0, "GFLOP/s"),
        "moments.stationary_ms": (per_op_ms("moments.stationary"), "ms"),
        "moments.assemble_ms": (per_op_ms("moments.assemble"), "ms"),
        "moments.checks_ms": (per_op_ms("moments.checks"), "ms"),
        "closedform_ms": (per_op_ms("closedform"), "ms"),
        "entry.self_ms": (per_op_ms("entry"), "ms"),
        "sim.env_path_ms": (per_op_ms("sim.env_path"), "ms"),
        "sim.segments": (tracer.segments / env_paths if env_paths else 0.0, "count"),
        "sim.queue_ms": (per_op_ms("sim.queue"), "ms"),
        "sim.other_ms": (per_op_ms("sim.estimate"), "ms"),
    }
