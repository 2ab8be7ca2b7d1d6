"""Layer tracing from outside the faciesnet package.

`install` wraps every public function of the measured layer modules by
replacing each module attribute that refers to it, so callers that
bound a function by name (``from .network import model_forward``) go
through the wrapper too. Nothing inside the package changes.

Each call records a span: name, start, end, parent span and the
operation it belongs to. Spans stay in memory; `layer_metrics` turns
them into the per-layer figures once the run ends. A span's self time
is its duration minus the part of it that its child spans cover.
"""

import functools
import importlib
import inspect
import statistics
import sys
import threading
import time
from collections import defaultdict

LAYERS = ("welldata", "ops", "network", "training", "evaluation", "cli")

# ops whose time and call count are reported per operation; a pool is a
# "branch" pool (k3/s1, same padding, inside an inception block) or a
# "stage" pool (k2/s2 between stages)
OP_NAMES = ("conv1d", "conv1d_backward", "pool1d.branch", "pool1d.stage",
            "pool1d_backward.branch", "pool1d_backward.stage", "dense",
            "dense_backward", "relu", "relu_backward", "softmax",
            "softmax_xent", "dropout", "dropout_backward", "concat_channels",
            "split_channels")


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "attrs")

    def __init__(self, name, start, parent, op):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.attrs = None

    @property
    def seconds(self):
        return self.end - self.start

    @property
    def layer(self):
        return self.name.split(".", 1)[0]


class Tracer:
    """In-memory span recorder; safe to use from several threads.

    A span opened on a thread with no open span of its own (a worker of
    a thread pool) gets the innermost open span of the main thread as
    its parent, so per-well work done in a pool nests under the command
    that started the pool.
    """

    def __init__(self):
        self.spans = []
        self.op = None
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self):
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
            parent = None
        with self._lock:
            index = len(self.spans)
            self.spans.append(Span(name, time.perf_counter(), parent, self.op))
        stack.append(index)
        return index

    def close(self, index):
        self.spans[index].end = time.perf_counter()
        self._stack().pop()
        return self.spans[index]


# ---------------------------------------------------------------------------
# wrapping

def _annotate(name, args, kwargs, result, span):
    """Rename pool spans by pool kind and attach counts computed from shapes."""
    if name == "ops.pool1d":
        x = args[0]
        padding = kwargs.get("padding", args[3] if len(args) > 3 else "valid")
        vals, cache = result
        span.name = "ops.pool1d." + ("branch" if padding == "same" else "stage")
        span.attrs = {"bytes": x.nbytes + vals.nbytes + cache.positions.nbytes}
    elif name == "ops.pool1d_backward":
        cache = args[1] if len(args) > 1 else kwargs["cache"]
        same = cache.padded_length != cache.in_length  # padded: a "same" pool
        span.name = "ops.pool1d_backward." + ("branch" if same else "stage")
    elif name == "ops.conv1d":
        kernels = args[1] if len(args) > 1 else kwargs["kernels"]
        _, c_in, k = kernels.shape
        span.attrs = {"flop": 2 * result.size * c_in * k}
    elif name == "ops.conv1d_backward":
        grad = args[0]
        kernels = args[2] if len(args) > 2 else kwargs["kernels"]
        _, c_in, k = kernels.shape
        # d_kernels and d_input are one matmul each of the forward's size
        span.attrs = {"flop": 4 * grad.size * c_in * k}
    elif name == "welldata.window_matrix":
        span.attrs = {"bytes": result.nbytes}
    elif name == "welldata.parse_csv":
        span.attrs = {"rows": sum(len(w) for w in result)}


def _wrap(tracer, name, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            span = tracer.close(index)
        _annotate(name, args, kwargs, result, span)
        return result

    return traced


def install(tracer):
    """Wrap the public functions of every layer module; returns the patches.

    Each module attribute that is one of those functions is replaced,
    wherever it lives in the package, so a caller's own name binding
    is patched as well as the defining module's.
    """
    layer_modules = {layer: importlib.import_module(f"faciesnet.{layer}")
                     for layer in LAYERS}
    package_modules = [m for n, m in list(sys.modules.items())
                       if n == "faciesnet" or n.startswith("faciesnet.")]
    wrappers = {}
    for layer, module in layer_modules.items():
        for attr, value in vars(module).items():
            if (not attr.startswith("_") and inspect.isfunction(value)
                    and value.__module__ == module.__name__):
                wrappers[value] = _wrap(tracer, f"{layer}.{attr}", value)
    patches = []
    for module in package_modules:
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value) and value in wrappers:
                patches.append((module, attr, value))
                setattr(module, attr, wrappers[value])
    return patches


def uninstall(patches):
    for module, attr, original in reversed(patches):
        setattr(module, attr, original)


# ---------------------------------------------------------------------------
# span arithmetic

def covered_length(intervals):
    """Total length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        start = max(start, reach)
        if end > start:
            total += end - start
            reach = end
    return total


def children_of(spans):
    children = defaultdict(list)
    for index, span in enumerate(spans):
        if span.parent is not None:
            children[span.parent].append(index)
    return children


def _clipped(span, child):
    return max(child.start, span.start), min(child.end, span.end)


def self_seconds(spans, children=None):
    """Each span's duration minus the part its direct children cover."""
    children = children_of(spans) if children is None else children
    return [s.seconds - covered_length(_clipped(s, spans[c]) for c in children[i])
            for i, s in enumerate(spans)]


def layer_self_seconds(spans, index, children):
    """A span's time not covered by work in other layers.

    Children in the span's own layer are looked through, so the glue of
    `network.model_forward` includes that of `network.inception_forward`
    but none of the `ops` time either of them calls.
    """
    span = spans[index]
    foreign, pending = [], list(children[index])
    while pending:
        c = pending.pop()
        if spans[c].layer == span.layer:
            pending.extend(children[c])
        else:
            foreign.append(_clipped(span, spans[c]))
    return span.seconds - covered_length(foreign)


def percentile(values, p):
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


def _ratio(num, den):
    return num / den if den > 0 else 0.0


# ---------------------------------------------------------------------------
# per-layer metrics

def layer_metrics(spans, op_seconds):
    """Per-layer figures from the spans of the traced operations.

    op_seconds maps each traced operation id to its wall time. Sums are
    taken per operation and the median over operations is reported;
    per-call figures (p50, p95, p99) pool the calls of every operation.
    """
    children = children_of(spans)
    self_s = self_seconds(spans, children)
    by_op = defaultdict(list)
    for index, span in enumerate(spans):
        if span.op in op_seconds:
            by_op[span.op].append(index)

    per_op = defaultdict(list)
    forward_ms, step_ms, well_ms = [], [], []
    for op, indices in by_op.items():
        total = defaultdict(float)
        count = defaultdict(int)
        attr = defaultdict(float)
        glue = defaultdict(float)
        wells = []
        forward_start = None
        for i in indices:
            s = spans[i]
            total[s.name] += s.seconds
            count[s.name] += 1
            for key, value in (s.attrs or {}).items():
                attr[(s.name, key)] += value
            if s.name in ("network.model_forward", "network.model_backward",
                          "cli.cmd_predict", "cli.cmd_evaluate"):
                glue[s.name] += layer_self_seconds(spans, i, children)
            if s.name == "network.model_forward":
                forward_ms.append(s.seconds * 1e3)
                parent = spans[s.parent] if s.parent is not None else None
                if parent is not None and parent.name == "training.train_on_windows":
                    forward_start = s.start
            elif s.name == "training.sgd_step" and forward_start is not None:
                step_ms.append((s.end - forward_start) * 1e3)
                forward_start = None
            elif s.name == "evaluation.predict_with_confidence":
                well_ms.append(s.seconds * 1e3)
                wells.append(s)

        for name in OP_NAMES:
            per_op[f"ops.{name}.ms"].append(total[f"ops.{name}"] * 1e3)
            per_op[f"ops.{name}.calls"].append(count[f"ops.{name}"])
        for name in ("conv1d", "conv1d_backward"):
            flop = attr[(f"ops.{name}", "flop")]
            per_op[f"ops.{name}.computed_gflop"].append(flop / 1e9)
            per_op[f"ops.{name}.gflop_s"].append(
                _ratio(flop / 1e9, total[f"ops.{name}"]))
        pool_bytes = (attr[("ops.pool1d.branch", "bytes")]
                      + attr[("ops.pool1d.stage", "bytes")])
        pool_s = total["ops.pool1d.branch"] + total["ops.pool1d.stage"]
        per_op["ops.pool1d.computed_mb"].append(pool_bytes / 1e6)
        per_op["ops.pool1d.gb_s"].append(_ratio(pool_bytes / 1e9, pool_s))

        per_op["network.model_forward.self_ms"].append(
            glue["network.model_forward"] * 1e3)
        per_op["network.model_backward.self_ms"].append(
            glue["network.model_backward"] * 1e3)
        per_op["network.load_checkpoint.ms"].append(
            total["network.load_checkpoint"] * 1e3)
        per_op["training.sgd_step.ms"].append(total["training.sgd_step"] * 1e3)
        per_op["welldata.parse_csv.ms"].append(total["welldata.parse_csv"] * 1e3)
        per_op["welldata.parse_csv.rows_per_s"].append(
            _ratio(attr[("welldata.parse_csv", "rows")], total["welldata.parse_csv"]))
        per_op["welldata.window_matrix.ms"].append(
            total["welldata.window_matrix"] * 1e3)
        per_op["welldata.window_matrix.mb"].append(
            attr[("welldata.window_matrix", "bytes")] / 1e6)
        per_op["evaluation.evaluate.ms"].append(total["evaluation.evaluate"] * 1e3)
        per_op["evaluation.export_plot_data.ms"].append(
            total["evaluation.export_plot_data"] * 1e3)
        loop_wall = (max(s.end for s in wells) - min(s.start for s in wells)
                     if wells else 0.0)
        per_op["evaluation.predict.busy_over_wall"].append(
            _ratio(sum(s.seconds for s in wells), loop_wall))
        per_op["cli.cmd_predict.self_ms"].append(glue["cli.cmd_predict"] * 1e3)
        per_op["cli.cmd_evaluate.self_ms"].append(glue["cli.cmd_evaluate"] * 1e3)
        per_op["trace.coverage"].append(
            _ratio(sum(self_s[i] for i in indices), op_seconds[op]))

    metrics = {name: statistics.median(values) for name, values in per_op.items()}
    metrics["network.model_forward.ms.p50"] = percentile(forward_ms, 50)
    metrics["training.step_ms.p50"] = percentile(step_ms, 50)
    metrics["training.step_ms.p99"] = percentile(step_ms, 99)
    metrics["evaluation.well_ms.p50"] = percentile(well_ms, 50)
    metrics["evaluation.well_ms.p95"] = percentile(well_ms, 95)
    return metrics
