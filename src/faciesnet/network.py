"""The inception ConvNet: declarative architecture spec, parameter store,
forward/backward passes, checkpoint persistence, and a full-model
gradient check.

A model is (ModelSpec, params) where params is a plain ordered dict of
name -> ndarray. Parameters are immutable during inference; training
code owns and mutates its own dict.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import ops
from .errors import ConfigError, DataFormatError, NumericError, ShapeError, check_rules
from .welldata import CHANNELS, N_FACIES, Standardizer

CHECKPOINT_MAGIC = "#fnet v1"

POOL_KERNEL = 2   # between-stage downsampling drops every other sample
POOL_STRIDE = 2
BRANCH_POOL_KERNEL = 3  # inside the inception pool branch: stride 1, same padding
INFERENCE_BATCH = 256  # windows per inference-mode forward pass


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
            (self.stem_kernel == 0 or _odd_positive(self.stem_kernel),
             f"stem_kernel must be 0 (no stem) or odd and >= 1, got {self.stem_kernel}"),
            (self.stem_channels >= 1,
             f"stem_channels must be >= 1, got {self.stem_channels}"),
            (len(self.stages) >= 1, "stages must hold at least one inception stage"),
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
        check_rules(rules)

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

def _conv_relu(params, name, x, training):
    """Conv then ReLU; returns (output, cache) with cache = (x, pre-activation)
    in training mode and None outside it."""
    pre = ops.conv1d(x, params[f"{name}.kernels"], params[f"{name}.bias"])
    return ops.relu(pre), ((x, pre) if training else None)


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
    # each reduction and the pooled input are dropped once read, so an
    # inference pass holds no more than the branch outputs at the concat
    b1, c1 = _conv_relu(params, f"{prefix}.b1", x, training)
    r2, c2r = _conv_relu(params, f"{prefix}.b2r", x, training)
    b2, c2 = _conv_relu(params, f"{prefix}.b2", r2, training)
    del r2
    r3, c3r = _conv_relu(params, f"{prefix}.b3r", x, training)
    b3, c3 = _conv_relu(params, f"{prefix}.b3", r3, training)
    del r3
    pooled, pool_cache = ops.pool1d(x, BRANCH_POOL_KERNEL, 1, padding="same",
                                    training=training)
    b4, c4 = _conv_relu(params, f"{prefix}.b4", pooled, training)
    del pooled
    out = ops.concat_channels([b1, b2, b3, b4])
    if not training:
        return out, None
    return out, (c1, c2r, c2, c3r, c3, pool_cache, c4)


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


def model_forward(spec: ModelSpec, params: dict, batch: np.ndarray,
                  training: bool = False,
                  rng: Optional[np.random.Generator] = None,
                  ) -> tuple[np.ndarray, Optional[dict]]:
    """Full forward pass on a (B, C, W) batch, which may be a view such as
    welldata.window_matrix's; returns (logits, caches).

    Only training mode records what model_backward needs: dropout fires,
    drawing its masks from `rng`, the pools record their argmax, and
    every layer's cache is returned. Outside training the caches are
    None, each layer's intermediates are freed once the next layer has
    read its output, and a batch of more than INFERENCE_BATCH windows
    runs INFERENCE_BATCH at a time, one model_forward call per chunk.
    A pass that overflows float range, or makes a NaN from an infinity,
    raises NumericError: numpy's floating-point warnings are raised
    here rather than printed.
    """
    x = np.asarray(batch)
    if x.ndim != 3:
        raise ShapeError(f"batch must be (B, C, W), got rank {x.ndim}")
    if x.shape[1] != spec.in_channels or x.shape[2] != spec.window:
        raise ShapeError(f"batch shape {x.shape[1:]} does not match model input "
                         f"({spec.in_channels}, {spec.window})")
    if training and spec.dropout > 0 and rng is None:
        raise ConfigError("training-mode forward with dropout needs an rng")
    if not training and len(x) > INFERENCE_BATCH:
        return np.concatenate([model_forward(spec, params, x[i:i + INFERENCE_BATCH])[0]
                               for i in range(0, len(x), INFERENCE_BATCH)]), None

    try:
        with np.errstate(over="raise", invalid="raise"):
            return _forward(spec, params, x, training, rng)
    except FloatingPointError as exc:
        raise NumericError(str(exc)) from exc


def _forward(spec, params, x, training, rng):
    """model_forward's layers, run on one checked batch."""
    caches = {"stem": None, "stages": [], "head": []}
    if spec.stem_kernel:
        x, caches["stem"] = _conv_relu(params, "stem", x, training)
    for i in range(len(spec.stages)):
        x, inc_cache = inception_forward(params, x, f"s{i}", training)
        x, pool_cache = ops.pool1d(x, POOL_KERNEL, POOL_STRIDE, training=training)
        if training:
            caches["stages"].append((inc_cache, pool_cache))

    caches["flat_shape"] = x.shape
    x = x.reshape(x.shape[0], -1)
    for j in range(len(spec.fc_sizes)):
        pre = ops.dense(x, params[f"fc{j}.weights"], params[f"fc{j}.bias"])
        act = ops.relu(pre)
        dropped, mask = ops.dropout(act, spec.dropout, rng, training)
        if training:
            caches["head"].append((x, pre, mask))
        x = dropped
    logits = ops.dense(x, params["out.weights"], params["out.bias"])
    if not training:
        return logits, None
    caches["out_in"] = x
    return logits, caches


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

def _spec_lines(spec: ModelSpec) -> list:
    lines = [
        f"window = {spec.window}",
        f"in_channels = {spec.in_channels}",
        f"stem_kernel = {spec.stem_kernel}",
        f"stem_channels = {spec.stem_channels}",
        f"fc_sizes = {','.join(str(s) for s in spec.fc_sizes)}",
        f"dropout = {spec.dropout!r}",
        f"n_classes = {N_FACIES}",
        f"n_stages = {len(spec.stages)}",
    ]
    for i, st in enumerate(spec.stages):
        lines.append(f"stage{i} = {st.branch_1x1} {st.reduce_small} {st.small_kernel} "
                     f"{st.small_channels} {st.reduce_large} {st.large_kernel} "
                     f"{st.large_channels} {st.pool_proj}")
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
    for key, size in (("in_channels", len(CHANNELS)), ("n_classes", N_FACIES)):
        value = get(key, int)
        if value != size:
            raise DataFormatError(f"{path}: manifest {key!r} must be {size}, got {value}")
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


def save_checkpoint(spec: ModelSpec, params: dict, standardizer: Standardizer,
                    path, seed: int = 0) -> None:
    """Write a `.fnet` file: text manifest, then a raw binary32 blob.

    The blob holds every parameter tensor little-endian float32,
    concatenated in manifest order, so identical params produce
    byte-identical files.
    """
    shapes = param_shapes(spec)
    lines = [CHECKPOINT_MAGIC, f"seed = {seed}"]
    lines += _spec_lines(spec)
    for c in CHANNELS:
        lines.append(f"std.{c} = {standardizer.mean[c]!r} {standardizer.std[c]!r}")
    for name, shape in shapes.items():
        if params[name].shape != shape:
            raise ShapeError(f"param {name} has shape {params[name].shape}, "
                             f"spec requires {shape}")
        lines.append(f"param {name} {' '.join(str(d) for d in shape)}")
    lines.append("[blob]")
    blob = b"".join(np.ascontiguousarray(params[n], dtype="<f4").tobytes()
                    for n in shapes)
    with open(path, "wb") as fh:
        fh.write("\n".join(lines).encode() + b"\n")
        fh.write(blob)


def load_checkpoint(path) -> "Checkpoint":
    """Read a `.fnet` file back; inverse of save_checkpoint.

    Any malformed manifest line, a standardizer entry that is not a
    finite mean with a finite std > 0, and non-finite parameters raise
    DataFormatError naming the file and the key.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    marker = b"\n[blob]\n"
    split = raw.find(marker)
    if split < 0 or not raw.startswith(CHECKPOINT_MAGIC.encode()):
        raise DataFormatError(f"{path}: not a faciesnet checkpoint")
    try:
        manifest = raw[:split].decode()
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: manifest is not UTF-8 text "
                              f"(byte {exc.start})")
    blob = raw[split + len(marker):]

    kv, param_names = {}, []
    for line in manifest.splitlines()[1:]:
        if line.startswith("param "):
            name, _, dims = line[len("param "):].partition(" ")
            param_names.append(name)
            kv[f"param {name}"] = dims
        elif " = " in line:
            key, value = line.split(" = ", 1)
            kv[key] = value
    get = _manifest_reader(path, kv)

    seed = get("seed", int)
    spec = _spec_from_manifest(path, get)
    mean, std = {}, {}
    for c in CHANNELS:
        mean[c], std[c] = get(f"std.{c}", _fields(float, 2))
        if not (np.isfinite(mean[c]) and np.isfinite(std[c]) and std[c] > 0):
            raise DataFormatError(f"{path}: manifest 'std.{c}' needs a finite "
                                  f"mean and a finite std > 0, got {kv[f'std.{c}']!r}")

    expected = param_shapes(spec)
    if param_names != list(expected):
        raise DataFormatError(f"{path}: parameter list does not match the model spec")
    for name, shape in expected.items():
        declared = get(f"param {name}", _fields(int, len(shape)))
        if declared != shape:
            raise DataFormatError(f"{path}: param {name} shape {declared} disagrees "
                                  f"with spec {shape}")
    total = sum(int(np.prod(s)) for s in expected.values())
    if len(blob) != 4 * total:
        raise DataFormatError(f"{path}: truncated blob: {len(blob)} bytes "
                              f"for {4 * total} expected")
    params, offset = {}, 0
    for name, shape in expected.items():
        n = int(np.prod(shape))
        params[name] = np.frombuffer(blob, dtype="<f4", count=n,
                                     offset=offset).reshape(shape).copy()
        if not np.all(np.isfinite(params[name])):
            raise DataFormatError(f"{path}: param {name} has non-finite values")
        offset += 4 * n
    return Checkpoint(spec, params, Standardizer(mean, std), seed)


@dataclass
class Checkpoint:
    """A trained model bundle: architecture, parameters, input scaling."""

    spec: ModelSpec
    params: dict
    standardizer: Standardizer
    seed: int = 0

    def save(self, path) -> None:
        save_checkpoint(self.spec, self.params, self.standardizer, path, self.seed)

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
