"""The inception ConvNet: declarative architecture spec, parameter store,
forward/backward passes, checkpoint persistence, and a full-model
gradient check.

A model is (ModelSpec, params) where params is a plain ordered dict of
name -> ndarray. Parameters are immutable during inference; training
code owns and mutates its own dict.
"""

import functools
import itertools
import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import astuple, dataclass
from typing import Optional

import numpy as np

from . import ops
from .errors import ConfigError, DataFormatError, NumericError, ShapeError, check_rules
from .welldata import CHANNELS, N_FACIES, Standardizer

CHECKPOINT_MAGIC = "#fnet v1"

POOL_KERNEL = 2   # between-stage downsampling drops every other sample
POOL_STRIDE = 2
BRANCH_POOL_KERNEL = 3  # inside the inception pool branch: stride 1, same padding
INFERENCE_BATCH = 128  # windows per chunk of an inference-mode forward pass
MAX_WINDOW = 1001  # samples in a window, about 500 ft of log at the contest's half foot
MAX_STAGES = 32  # a window must exceed 2^(stages - 1) samples
# float32 params, gradients and momentum stay near 120 MB
MAX_PARAMS = 10_000_000
# floats per window in the layer outputs and im2col matrices of a forward
# pass (ModelSpec._activation_floats): 2 MB per window at float32, so a
# training batch of 64 keeps its activations near 128 MB, twice that with
# its caches
MAX_ACTIVATIONS = 2 ** 19
# workers of one inference pass, each with its own workspace of
# INFERENCE_BATCH windows: about 268 MB at MAX_ACTIVATIONS
MAX_THREADS = 64
# the keys that size a conv layer's kernels (c_out, c_in, k), by layer id; an
# fc or out layer is sized by fc_sizes
_SIZE_KEYS = {"stem": ("stem_channels", "stem_kernel"), "b1": ("branch_1x1", None),
              "b2r": ("reduce_small", None), "b2": ("small_channels", "small_kernel"),
              "b3r": ("reduce_large", None), "b3": ("large_channels", "large_kernel"),
              "b4": ("pool_proj", None)}


def _odd_positive(n: int) -> bool:
    return n >= 1 and n % 2 == 1


@dataclass(frozen=True)
class InceptionSpec:
    """Channel counts and kernel sizes for the four parallel branches."""

    branch_1x1: int = 8
    reduce_small: int = 8
    small_kernel: int = 3
    small_channels: int = 16
    reduce_large: int = 8
    large_kernel: int = 7
    large_channels: int = 16
    pool_proj: int = 8

    def __post_init__(self):
        counts = ("branch_1x1", "reduce_small", "small_channels",
                  "reduce_large", "large_channels", "pool_proj")
        rules = [(getattr(self, name) >= 1, f"{name} must be >= 1, got {getattr(self, name)}")
                 for name in counts]
        rules += [
            (_odd_positive(self.small_kernel),
             f"small_kernel must be odd and >= 1, got {self.small_kernel}"),
            (_odd_positive(self.large_kernel),
             f"large_kernel must be odd and >= 1, got {self.large_kernel}"),
            (self.small_kernel < self.large_kernel,
             f"small_kernel must be smaller than large_kernel, got "
             f"{self.small_kernel} and {self.large_kernel}"),
        ]
        check_rules(rules)

    @property
    def out_channels(self) -> int:
        return (self.branch_1x1 + self.small_channels
                + self.large_channels + self.pool_proj)


@dataclass(frozen=True)
class ModelSpec:
    """Layer topology: stem conv, inception stages with downsampling, fc head.
    The data fixes the input and output sizes: CHANNELS and N_FACIES."""

    window: int = 31
    stem_kernel: int = 5        # 0 disables the stem conv
    stem_channels: int = 16
    stages: tuple = (InceptionSpec(), InceptionSpec())
    fc_sizes: tuple[int, ...] = (64,)
    dropout: float = 0.5

    def __post_init__(self):
        rules = [
            (_odd_positive(self.window),
             f"window must be odd and >= 1, got {self.window}"),
            (self.window <= MAX_WINDOW, f"window must be <= {MAX_WINDOW}, got {self.window}"),
            (self.stem_kernel == 0 or _odd_positive(self.stem_kernel),
             f"stem_kernel must be 0 (no stem) or odd and >= 1, got {self.stem_kernel}"),
            (self.stem_channels >= 1,
             f"stem_channels must be >= 1, got {self.stem_channels}"),
            (len(self.stages) >= 1, "stages must hold at least one inception stage"),
            (len(self.stages) <= MAX_STAGES,
             f"stages must be <= {MAX_STAGES}, got {len(self.stages)}"),
            (all(s >= 1 for s in self.fc_sizes),
             f"fc_sizes must all be >= 1, got {self.fc_sizes}"),
            (0.0 <= self.dropout < 1.0, f"dropout must be in [0, 1), got {self.dropout}"),
        ]
        if _odd_positive(self.window) and self.stages:
            shortest = self.stage_lengths()[-2]
            rules.append((
                shortest >= POOL_KERNEL,
                f"window = {self.window} is too short for stages = "
                f"{len(self.stages)}: it leaves the last stage {shortest} "
                f"sample(s), fewer than the pool kernel {POOL_KERNEL}"))
        if all(holds for holds, _ in rules):
            shapes = param_shapes(self)
            total = sum(map(math.prod, shapes.values()))
            largest = max(shapes, key=lambda name: math.prod(shapes[name]))
            channels, kernel = _SIZE_KEYS.get(largest.split(".")[-2], ("fc_sizes", None))
            key = kernel if kernel and shapes[largest][2] > shapes[largest][0] else channels
            rules.append((total <= MAX_PARAMS,
                          f"{key} and the other sizes give the model {total} parameters, "
                          f"more than {MAX_PARAMS}: {largest} has shape {shapes[largest]}"))
            arrays = self._activation_floats
            total = sum(floats for _, floats, _ in arrays)
            _, largest, key = max(arrays, key=lambda array: array[1])
            rules.append((total <= MAX_ACTIVATIONS,
                          f"{key} and the other sizes give each window {total} floats of "
                          f"layer outputs and im2col matrices, more than {MAX_ACTIVATIONS}: "
                          f"the largest array holds {largest}"))
        check_rules(rules)

    @functools.cached_property
    def _activation_floats(self) -> tuple:
        """(slot, floats per window, config key) of each array a
        forward pass writes, in layer order: each layer's output and
        each im2col matrix (a 1x1 conv reads its input as its matrix).
        The key is the size that sets the array's channels, or the kernel
        when it is the larger factor of an im2col matrix.

        The slot is the workspace buffer the array lives in: "trunk" for
        the input copy, the stem, each stage's concatenated branches and
        pooled output, the flattened features and the fc layers; "branch"
        for each branch conv before its ReLU, "reduce" for the 1x1
        reductions and the branch pool, "col" for im2col matrices. The
        workspace sizes each slot for its largest array. The spec's rules
        cap the sum of them all, which bounds a training batch's
        activations too.
        """
        arrays = [("trunk", self.in_channels * self.window, "window")]
        shapes = param_shapes(self)

        def conv(slot, name, length, in_key):
            """Adds a conv layer's arrays; returns the key of its channels."""
            c_out, c_in, k = shapes[f"{name}.kernels"]
            channels, kernel = _SIZE_KEYS[name.split(".")[-1]]
            if k > 1:
                arrays.append(("col", c_in * k * length, kernel if k > c_in else in_key))
            arrays.append((slot, c_out * length, channels))
            return channels

        key = "window"
        if self.stem_kernel:
            key = conv("trunk", "stem", self.window, key)
        lengths = self.stage_lengths()
        for i, (st, length) in enumerate(zip(self.stages, lengths)):
            conv("branch", f"s{i}.b1", length, key)
            conv("branch", f"s{i}.b2", length, conv("reduce", f"s{i}.b2r", length, key))
            conv("branch", f"s{i}.b3", length, conv("reduce", f"s{i}.b3r", length, key))
            arrays.append(("reduce", shapes[f"s{i}.b4.kernels"][1] * length, key))
            conv("branch", f"s{i}.b4", length, key)
            key = max(("branch_1x1", "small_channels", "large_channels", "pool_proj"),
                      key=lambda name: getattr(st, name))
            arrays += [("trunk", st.out_channels * length, key),
                       ("trunk", st.out_channels * lengths[i + 1], key)]
        arrays.append(("trunk", self.flatten_size(), key))
        arrays += [("trunk", size, "fc_sizes") for size in self.fc_sizes]
        return tuple(arrays)

    @property
    def in_channels(self) -> int:
        return len(CHANNELS)

    def stage_lengths(self) -> list:
        """Series length entering each stage, plus the final pooled length."""
        lengths = [self.window]
        for _ in self.stages:
            lengths.append(pooled_length(lengths[-1]))
        return lengths

    def flatten_size(self) -> int:
        return self.stages[-1].out_channels * self.stage_lengths()[-1]


def pooled_length(length: int) -> int:
    """Length after the stride-2 downsampling pool (trailing partial window kept)."""
    return -((length - POOL_KERNEL) // -POOL_STRIDE) + 1


def param_shapes(spec: ModelSpec) -> dict:
    """Stable layer ids mapped to parameter shapes, in checkpoint order."""
    shapes = {}

    def conv(name, c_out, c_in, k):
        shapes[f"{name}.kernels"] = (c_out, c_in, k)
        shapes[f"{name}.bias"] = (c_out,)

    c = spec.in_channels
    if spec.stem_kernel:
        conv("stem", spec.stem_channels, c, spec.stem_kernel)
        c = spec.stem_channels
    for i, st in enumerate(spec.stages):
        conv(f"s{i}.b1", st.branch_1x1, c, 1)
        conv(f"s{i}.b2r", st.reduce_small, c, 1)
        conv(f"s{i}.b2", st.small_channels, st.reduce_small, st.small_kernel)
        conv(f"s{i}.b3r", st.reduce_large, c, 1)
        conv(f"s{i}.b3", st.large_channels, st.reduce_large, st.large_kernel)
        conv(f"s{i}.b4", st.pool_proj, c, 1)
        c = st.out_channels
    n = spec.flatten_size()
    for j, size in enumerate(spec.fc_sizes):
        shapes[f"fc{j}.weights"] = (size, n)
        shapes[f"fc{j}.bias"] = (size,)
        n = size
    shapes["out.weights"] = (N_FACIES, n)
    shapes["out.bias"] = (N_FACIES,)
    return shapes


def init_params(spec: ModelSpec, seed: int, dtype=np.float32) -> dict:
    """He-initialized parameters, bit-reproducible for a given seed.

    Each weight tensor draws from its own child stream of
    SeedSequence(seed), split in declaration order, so layers never
    share or shift each other's draws. Biases start at zero.
    """
    shapes = param_shapes(spec)
    n_weights = sum(1 for n in shapes if not n.endswith(".bias"))
    streams = iter(np.random.SeedSequence(seed).spawn(n_weights))
    params = {}
    for name, shape in shapes.items():
        if name.endswith(".bias"):
            params[name] = np.zeros(shape, dtype=dtype)
        else:
            fan_in = int(np.prod(shape[1:]))
            rng = np.random.default_rng(next(streams))
            scale = np.sqrt(2.0 / fan_in)
            params[name] = (rng.standard_normal(shape) * scale).astype(dtype)
    return params


# ---------------------------------------------------------------------------
# forward / backward

class _Arrays:
    """The arrays a pass of `n` windows writes its layers into: each
    layer asks for its output, and a conv for its im2col matrix, by the
    slot of spec._activation_floats it belongs to, and the logits go to
    `logits`. These are fresh arrays, as a training pass needs: its
    backward pass reads every array the forward cached."""

    def __init__(self, n: int, dtype):
        self.n, self.dtype = n, dtype
        self.logits = np.empty((n, N_FACIES), dtype)

    def rows(self, slot: str, *shape: int) -> np.ndarray:
        """A C-contiguous (n, *shape) array for `slot`."""
        return np.empty((self.n, *shape), self.dtype)

    def series(self, slot: str, channels: int, length: int) -> np.ndarray:
        """A (n, channels, length) array for `slot`, channels last in
        memory like every activation."""
        return self.rows(slot, length, channels).transpose(0, 2, 1)


class _Workspace(_Arrays):
    """The arrays of an inference pass, answered from buffers sized for
    `capacity` windows that every layer and chunk reuse: one per slot of
    spec._activation_floats, sized for the slot's largest array, except
    that the trunk has two, each sized for the largest trunk array. Each
    trunk array is written while only the one before it is read, so the
    k-th trunk array of a chunk lives in trunk buffer k % 2. `n` windows
    and the `logits` rows they fill are the current chunk's.

    Each buffer is its own allocation, no larger than the largest array
    a chunk of fresh arrays would make, so glibc's heap thresholds stay
    where fresh arrays put them. One allocation of all of them made glibc
    keep up to twice its size free on the heap, and a training process
    that also scores grew its resident set by 4-5 MB."""

    def __init__(self, spec: ModelSpec, capacity: int, dtype):
        floats = {}
        for slot, count, _ in spec._activation_floats:
            floats[slot] = max(floats.get(slot, 0), count)
        floats["trunk0"] = floats["trunk1"] = floats.pop("trunk")
        self.buffers = {slot: np.empty(capacity * count, dtype)
                        for slot, count in floats.items()}
        self.n, self.logits, self.turn = capacity, None, 0

    def chunk(self, logits: np.ndarray) -> None:
        """Start a chunk whose logits are written into `logits`."""
        self.n, self.logits, self.turn = len(logits), logits, 0

    def rows(self, slot: str, *shape: int) -> np.ndarray:
        """A C-contiguous (n, *shape) array at the head of a slot's buffer."""
        if slot == "trunk":
            slot, self.turn = f"trunk{self.turn % 2}", self.turn + 1
        return self.buffers[slot][:self.n * math.prod(shape)].reshape(self.n, *shape)


def _conv_relu(params, name, x, arrays, slot, training, out=None):
    """Conv then ReLU; returns (output, cache) with cache = (x, conv
    output) in training mode and None outside it. The conv writes into
    an array of `slot`, its im2col matrix into one of "col", and the
    ReLU into `out`, or in place: a cached ReLU output serves
    relu_backward as the conv output would, since ReLU keeps the sign."""
    kernels = params[f"{name}.kernels"]
    c_out, c_in, k = kernels.shape
    pre = ops.conv1d(x, kernels, params[f"{name}.bias"],
                     out=arrays.series(slot, c_out, x.shape[2]),
                     col=arrays.rows("col", c_in * k * x.shape[2]) if k > 1 else None)
    return ops.relu(pre, out=pre if out is None else out), ((x, pre) if training else None)


def _conv_relu_backward(params, name, cache, grad, grads):
    """Backward through _conv_relu; fills grads[name.*], returns d_input."""
    x, pre = cache
    d_x, grads[f"{name}.kernels"], grads[f"{name}.bias"] = ops.conv1d_backward(
        ops.relu_backward(grad, pre), x, params[f"{name}.kernels"])
    return d_x


def inception_forward(params: dict, x: np.ndarray, prefix: str = "s0",
                      training: bool = False) -> tuple[np.ndarray, Optional[tuple]]:
    """Run the four branches in parallel and concatenate along channels.

    Branch 1: 1x1 conv. Branch 2: 1x1 reduce then small kernel. Branch 3:
    1x1 reduce then large kernel. Branch 4: same-padding max-pool then
    1x1 conv. Every branch is same-padded and ReLU-activated, so the
    output keeps the input length with branch_1x1 + small_channels +
    large_channels + pool_proj channels; the branch shapes come from
    the `{prefix}.*` parameters. The branch caches are returned in
    training mode only; outside it the cache is None.
    """
    x = np.asarray(x)
    if x.ndim != 3:
        raise ShapeError(f"inception_forward expects a (B, C, L) batch, got rank {x.ndim}")
    arrays = _Arrays(len(x), np.result_type(x, *params.values()))
    return _inception(params, x, prefix, arrays, training)


def _inception(params, x, prefix, arrays, training):
    """inception_forward through `arrays`: each branch's ReLU writes its
    channels of one trunk array, which is the output, so no concat is
    made."""
    names = [f"{prefix}.{branch}" for branch in ("b1", "b2", "b3", "b4")]
    ends = list(itertools.accumulate(params[f"{name}.bias"].size for name in names))
    out = arrays.series("trunk", ends[-1], x.shape[2])
    b1, b2, b3, b4 = (out[:, lo:hi] for lo, hi in zip([0] + ends, ends))
    c1 = _conv_relu(params, names[0], x, arrays, "branch", training, b1)[1]
    r2, c2r = _conv_relu(params, f"{prefix}.b2r", x, arrays, "reduce", training)
    c2 = _conv_relu(params, names[1], r2, arrays, "branch", training, b2)[1]
    r3, c3r = _conv_relu(params, f"{prefix}.b3r", x, arrays, "reduce", training)
    c3 = _conv_relu(params, names[2], r3, arrays, "branch", training, b3)[1]
    pooled, pool_cache = ops.pool1d(x, BRANCH_POOL_KERNEL, 1, padding="same",
                                    training=training,
                                    out=arrays.series("reduce", *x.shape[1:]))
    c4 = _conv_relu(params, names[3], pooled, arrays, "branch", training, b4)[1]
    return out, ((c1, c2r, c2, c3r, c3, pool_cache, c4) if training else None)


def inception_backward(params: dict, cache: tuple, grad: np.ndarray,
                       prefix: str, grads: dict) -> np.ndarray:
    """Backward through one inception block; fills grads, returns d_input.

    The branch widths come from the cached pre-activations.
    """
    c1, c2r, c2, c3r, c3, pool_cache, c4 = cache
    sizes = [pre.shape[1] for _, pre in (c1, c2, c3, c4)]
    g1, g2, g3, g4 = ops.split_channels(grad, sizes)
    d_x = _conv_relu_backward(params, f"{prefix}.b1", c1, g1, grads)
    g2r = _conv_relu_backward(params, f"{prefix}.b2", c2, g2, grads)
    d_x += _conv_relu_backward(params, f"{prefix}.b2r", c2r, g2r, grads)
    g3r = _conv_relu_backward(params, f"{prefix}.b3", c3, g3, grads)
    d_x += _conv_relu_backward(params, f"{prefix}.b3r", c3r, g3r, grads)
    g_pool = _conv_relu_backward(params, f"{prefix}.b4", c4, g4, grads)
    d_x += ops.pool1d_backward(g_pool, pool_cache)
    return d_x


def model_forward(spec: ModelSpec, params: dict, batch,
                  training: bool = False,
                  rng: Optional[np.random.Generator] = None,
                  threads: int = 1,
                  ) -> tuple[np.ndarray, Optional[dict]]:
    """Full forward pass on a (B, C, W) batch, which may be a view such as
    welldata.window_matrix's, or on a list of such batches run as their
    concatenation (one window_matrix view per well); returns (logits,
    caches), one row per window in batch order.

    Only training mode records what model_backward needs: dropout fires,
    drawing its masks from `rng`, the pools record their argmax, and
    every layer's cache is returned; each layer writes a fresh array.
    Outside training the caches are None, and the pass runs
    INFERENCE_BATCH windows at a time, a chunk spanning batches where
    one ends inside it. `threads` workers share the chunks, each through
    one workspace of its own allocated for the pass: each layer writes
    its output into one of a few buffers, which every layer and chunk
    reuse, so a chunk allocates nothing. The chunks never depend on
    `threads`, so neither do the logits. Inference gives the bits of a
    training-mode pass of each chunk at dropout 0. A pass that
    overflows float range, or makes a NaN from an infinity, raises
    NumericError: numpy's floating-point warnings are raised here rather
    than printed. Outside training its `windows` is the range of rows of
    the first chunk that raised.
    """
    batches = [np.asarray(x) for x in (batch if isinstance(batch, list) else [batch])]
    for x in batches:
        if x.ndim != 3:
            raise ShapeError(f"batch must be (B, C, W), got rank {x.ndim}")
        if x.shape[1] != spec.in_channels or x.shape[2] != spec.window:
            raise ShapeError(f"batch shape {x.shape[1:]} does not match model input "
                             f"({spec.in_channels}, {spec.window})")
    if training and spec.dropout > 0 and rng is None:
        raise ConfigError("training-mode forward with dropout needs an rng")

    n = sum(len(x) for x in batches)
    dtype = np.result_type(*batches, *params.values())
    if not training:
        return _infer(spec, params, batches, n, dtype, threads), None
    try:
        with np.errstate(over="raise", invalid="raise"):
            return _forward(spec, params, batches, _Arrays(n, dtype), True, rng)
    except FloatingPointError as exc:
        raise NumericError(str(exc)) from exc


def _chunks(batches: list, size: int):
    """The windows of the concatenated batches, `size` at a time: each
    chunk is the list of the batch slices it is made of."""
    chunk, room = [], size
    for x in batches:
        start = 0
        while start < len(x):
            part = x[start:start + room]
            chunk.append(part)
            start, room = start + len(part), room - len(part)
            if not room:
                yield chunk
                chunk, room = [], size
    if chunk:
        yield chunk


def _infer(spec, params, batches, n, dtype, threads):
    """model_forward's logits outside training. Workers take the chunks
    in order; once a chunk raises, none takes another, so every chunk
    before the first that raised has run, whatever the number of
    workers, and the fault raised is that chunk's. A pass of no windows
    starts no worker."""
    logits = np.empty((n, N_FACIES), dtype=dtype)
    todo = enumerate(_chunks(batches, INFERENCE_BATCH))
    taking, faults = threading.Lock(), {}

    def work():
        ws = _Workspace(spec, min(n, INFERENCE_BATCH), dtype)
        # numpy's error state is per thread: each worker sets its own
        with np.errstate(over="raise", invalid="raise"):
            while not faults:
                with taking:
                    i, chunk = next(todo, (None, None))
                if chunk is None:
                    return
                start = i * INFERENCE_BATCH
                ws.chunk(logits[start:start + INFERENCE_BATCH])
                try:
                    _forward(spec, params, chunk, ws)
                except FloatingPointError as exc:
                    faults[i] = exc

    workers = min(threads, math.ceil(n / INFERENCE_BATCH))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            for done in [pool.submit(work) for _ in range(workers)]:
                done.result()
    elif workers:
        work()
    if faults:
        i = min(faults)
        start = i * INFERENCE_BATCH
        raise NumericError(str(faults[i]),
                           windows=range(start, min(start + INFERENCE_BATCH, n))
                           ) from faults[i]
    return logits


def _forward(spec, params, pieces, arrays, training=False, rng=None):
    """model_forward's layers over the windows of `pieces`, a list of
    checked batches, each layer writing its output into an array that
    `arrays` hands out: the pieces are copied into the first one after
    another, channels last like every activation, and the logits go to
    arrays.logits. The fc ReLUs run in place, like the stem's."""
    caches = {"stem": None, "stages": [], "head": []}
    x = arrays.series("trunk", spec.in_channels, spec.window)
    np.concatenate(pieces, out=x)
    if spec.stem_kernel:
        x, caches["stem"] = _conv_relu(params, "stem", x, arrays, "trunk", training)
    for i, stage in enumerate(spec.stages):
        x, inc_cache = _inception(params, x, f"s{i}", arrays, training)
        x, pool_cache = ops.pool1d(
            x, POOL_KERNEL, POOL_STRIDE, training=training,
            out=arrays.series("trunk", stage.out_channels, pooled_length(x.shape[2])))
        caches["stages"].append((inc_cache, pool_cache))

    caches["flat_shape"] = x.shape
    flat = arrays.rows("trunk", x.shape[1] * x.shape[2])
    flat.reshape(x.shape)[...] = x
    x = flat
    for j, size in enumerate(spec.fc_sizes):
        pre = ops.dense(x, params[f"fc{j}.weights"], params[f"fc{j}.bias"],
                        out=arrays.rows("trunk", size))
        ops.relu(pre, out=pre)
        dropped, mask = ops.dropout(pre, spec.dropout, rng, training)
        caches["head"].append((x, pre, mask))
        x = dropped
    caches["out_in"] = x
    logits = ops.dense(x, params["out.weights"], params["out.bias"], out=arrays.logits)
    return logits, (caches if training else None)


def model_backward(spec: ModelSpec, params: dict, caches: Optional[dict],
                   logit_grads: np.ndarray) -> dict:
    """Gradients for every parameter, keyed and shaped exactly like params.

    `caches` must come from a training-mode model_forward.
    """
    if caches is None:
        raise ShapeError("model_backward needs the caches of a training-mode model_forward")
    grads = {}
    g, grads["out.weights"], grads["out.bias"] = ops.dense_backward(
        logit_grads, caches["out_in"], params["out.weights"])

    for j in reversed(range(len(spec.fc_sizes))):
        x_in, pre, mask = caches["head"][j]
        g = ops.dropout_backward(g, mask)
        g = ops.relu_backward(g, pre)
        g, grads[f"fc{j}.weights"], grads[f"fc{j}.bias"] = ops.dense_backward(
            g, x_in, params[f"fc{j}.weights"])

    g = g.reshape(caches["flat_shape"])
    for i in reversed(range(len(spec.stages))):
        inc_cache, pool_cache = caches["stages"][i]
        g = ops.pool1d_backward(g, pool_cache)
        g = inception_backward(params, inc_cache, g, f"s{i}", grads)

    if spec.stem_kernel:
        _conv_relu_backward(params, "stem", caches["stem"], g, grads)
    return grads


# ---------------------------------------------------------------------------
# checkpoints

_BLOB_MARKER = b"\n[blob]\n"


def _manifest(spec: ModelSpec, standardizer: Standardizer, seed: int) -> list:
    """The `.fnet` manifest lines of a model, the one definition of their
    layout: saving writes them, and loading accepts a file only if its
    manifest is these lines of the model it parsed."""
    lines = [
        CHECKPOINT_MAGIC,
        f"seed = {seed}",
        f"window = {spec.window}",
        f"in_channels = {spec.in_channels}",
        f"stem_kernel = {spec.stem_kernel}",
        f"stem_channels = {spec.stem_channels}",
        f"fc_sizes = {','.join(str(s) for s in spec.fc_sizes)}",
        # Python floats: numpy 2 would write a float64 as np.float64(...)
        f"dropout = {float(spec.dropout)!r}",
        f"n_classes = {N_FACIES}",
        f"n_stages = {len(spec.stages)}",
    ]
    lines += [f"stage{i} = {' '.join(str(v) for v in astuple(st))}"
              for i, st in enumerate(spec.stages)]
    lines += [f"std.{c} = {mu!r} {sigma!r}" for c, mu, sigma
              in zip(CHANNELS, standardizer.mean.tolist(), standardizer.std.tolist())]
    lines += [f"param {name} {' '.join(str(d) for d in shape)}"
              for name, shape in param_shapes(spec).items()]
    return lines


def _fields(cast, n: int):
    """Parser for a line of exactly n space-separated values."""
    def parse(text):
        values = tuple(cast(t) for t in text.split())
        if len(values) != n:
            raise ValueError(f"expected {n} values, got {len(values)}")
        return values
    return parse


def _manifest_reader(path, kv: dict):
    """get(key, cast): the manifest value, or DataFormatError naming file and key."""
    def get(key, cast):
        if key not in kv:
            raise DataFormatError(f"{path}: manifest has no {key!r} line")
        try:
            return cast(kv[key])
        except ValueError as exc:
            raise DataFormatError(f"{path}: manifest {key!r} is malformed: "
                                  f"{kv[key]!r} ({exc})")
    return get


def _spec_from_manifest(path, get) -> ModelSpec:
    try:
        stages = tuple(InceptionSpec(*get(f"stage{i}", _fields(int, 8)))
                       for i in range(get("n_stages", int)))
        return ModelSpec(
            window=get("window", int),
            stem_kernel=get("stem_kernel", int),
            stem_channels=get("stem_channels", int),
            stages=stages,
            fc_sizes=get("fc_sizes", lambda s: tuple(int(t) for t in s.split(",") if t)),
            dropout=get("dropout", float),
        )
    except ConfigError as exc:
        raise DataFormatError(f"{path}: manifest describes an invalid model: {exc}")


def _require_manifest(path, lines: list, expected: list) -> None:
    """DataFormatError at the first line that differs from the expected
    manifest, naming the file and the key; ShapeError if it is a model's
    well-formed in_channels or n_classes that the data does not have."""
    for n, (got, want) in enumerate(itertools.zip_longest(lines, expected), 1):
        if got != want:
            key, _, value = (got or "").partition(" = ")
            want_key, _, want_value = (want or "").partition(" = ")
            if key == want_key:
                message = f"{path}: manifest {key!r} must be {want_value}, got {value}"
                if key in ("in_channels", "n_classes") and value.isdecimal() \
                        and str(int(value)) == value:
                    raise ShapeError(message)
                raise DataFormatError(message)
            raise DataFormatError(f"{path}: manifest line {n} must be {want!r}, "
                                  f"got {got!r}")


def load_checkpoint(path) -> "Checkpoint":
    """Read a `.fnet` file back; inverse of Checkpoint.save.

    The file loads only if saving what it loads would write its bytes:
    its manifest must be, line for line, the manifest of the model it
    describes. A missing or malformed value, a standardizer entry that
    is not a finite mean with a finite std > 0, a repeated, unknown,
    reordered or otherwise written line, and non-finite parameters raise
    DataFormatError naming the file and the key. A well-formed
    in_channels or n_classes of another size raises ShapeError: the file
    is a model for other data.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    split = raw.find(_BLOB_MARKER)
    if split < 0 or not raw.startswith(CHECKPOINT_MAGIC.encode()):
        raise DataFormatError(f"{path}: not a faciesnet checkpoint")
    try:
        lines = raw[:split].decode().split("\n")
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: manifest is not UTF-8 text "
                              f"(byte {exc.start})")
    blob = raw[split + len(_BLOB_MARKER):]

    kv = {}
    for line in lines[1:]:
        key, _, value = line.partition(" = ")
        kv.setdefault(key, value)  # a repeated key fails _require_manifest
    get = _manifest_reader(path, kv)

    seed = get("seed", int)
    spec = _spec_from_manifest(path, get)
    mean, std = np.empty(len(CHANNELS)), np.empty(len(CHANNELS))
    for k, c in enumerate(CHANNELS):
        key = f"std.{c}"
        mean[k], std[k] = get(key, _fields(float, 2))
        if not (np.isfinite(mean[k]) and np.isfinite(std[k]) and std[k] > 0):
            raise DataFormatError(f"{path}: manifest {key!r} needs a finite "
                                  f"mean and a finite std > 0, got {kv[key]!r}")
    standardizer = Standardizer(mean, std)
    _require_manifest(path, lines, _manifest(spec, standardizer, seed))

    shapes = param_shapes(spec)
    total = sum(int(np.prod(s)) for s in shapes.values())
    if len(blob) != 4 * total:
        raise DataFormatError(f"{path}: truncated blob: {len(blob)} bytes "
                              f"for {4 * total} expected")
    params, offset = {}, 0
    for name, shape in shapes.items():
        n = int(np.prod(shape))
        params[name] = np.frombuffer(blob, dtype="<f4", count=n,
                                     offset=offset).reshape(shape).copy()
        if not np.all(np.isfinite(params[name])):
            raise DataFormatError(f"{path}: param {name} has non-finite values")
        offset += 4 * n
    return Checkpoint(spec, params, standardizer, seed)


@dataclass
class Checkpoint:
    """A trained model bundle: architecture, parameters, input scaling."""

    spec: ModelSpec
    params: dict
    standardizer: Standardizer
    seed: int = 0

    def save(self, path) -> None:
        """Write a `.fnet` file: the text manifest, then a raw binary32 blob.

        The blob holds every parameter tensor little-endian float32,
        concatenated in manifest order, so identical params produce
        byte-identical files.
        """
        shapes = param_shapes(self.spec)
        for name, shape in shapes.items():
            if self.params[name].shape != shape:
                raise ShapeError(f"param {name} has shape {self.params[name].shape}, "
                                 f"spec requires {shape}")
        blob = b"".join(np.ascontiguousarray(self.params[n], dtype="<f4").tobytes()
                        for n in shapes)
        with open(path, "wb") as fh:
            fh.write("\n".join(_manifest(self.spec, self.standardizer, self.seed)).encode()
                     + _BLOB_MARKER)
            fh.write(blob)

    @classmethod
    def load(cls, path) -> "Checkpoint":
        return load_checkpoint(path)


# ---------------------------------------------------------------------------
# gradient check

TINY_GRADCHECK_SPEC = ModelSpec(
    window=9, stem_kernel=3, stem_channels=4,
    stages=(InceptionSpec(2, 2, 3, 2, 2, 7, 2, 2),),
    fc_sizes=(8,), dropout=0.25,
)


def gradient_check(seed: int) -> tuple[float, str]:
    """Check every analytic model gradient against central differences.

    Builds a float64 TINY_GRADCHECK_SPEC model, draws a random batch of
    two windows, and compares model_backward against (L(+h) - L(-h)) / 2h
    elementwise. The
    dropout mask is replayed from a fixed stream so the loss stays
    deterministic under perturbation. Returns (max relative error,
    worst parameter id).

    Biases get small random offsets instead of the zero-init used for
    training: a zero bias behind an all-zero receptive field puts a
    ReLU pre-activation exactly on its kink, where the analytic
    subgradient and the two-sided difference quotient legitimately
    disagree. The check wants a generic point, not the init point.
    """
    spec = TINY_GRADCHECK_SPEC
    params = init_params(spec, seed, dtype=np.float64)
    bias_rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(3,)))
    for name, value in params.items():
        if name.endswith(".bias"):
            params[name] = 0.1 * bias_rng.standard_normal(value.shape)
    data_rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(1,)))
    x = data_rng.standard_normal((2, spec.in_channels, spec.window))
    labels = data_rng.integers(0, N_FACIES, size=2)
    mask_seed = np.random.SeedSequence(entropy=seed, spawn_key=(2,))

    def loss_fn(p):
        logits, _ = model_forward(spec, p, x, training=True,
                                  rng=np.random.default_rng(mask_seed))
        return ops.softmax_xent(logits, labels)[0]

    logits, caches = model_forward(spec, params, x, training=True,
                                   rng=np.random.default_rng(mask_seed))
    _, d_logits = ops.softmax_xent(logits, labels)
    grads = model_backward(spec, params, caches, d_logits)
    return ops.finite_diff_check(loss_fn, params, grads)
