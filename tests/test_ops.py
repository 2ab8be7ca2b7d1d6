"""Kernel-level tests: hand-derived values, brute-force oracles, and
finite-difference gradient checks for every layer type."""

import warnings

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from faciesnet import network, ops
from faciesnet.errors import ConfigError, NumericError, ShapeError
from faciesnet.network import ModelSpec, param_shapes, pooled_length


# ---------------------------------------------------------------------------
# independent oracles

def conv1d_loops(x, kernels, bias):
    """Brute-force loop same-padded correlation of a (B, C, L) batch,
    independent of ops.conv1d."""
    n_out, n_in, k = kernels.shape
    batch, _, length = x.shape
    offset = (k - 1) // 2
    out = np.zeros((batch, n_out, length))
    for b in range(batch):
        for o in range(n_out):
            for t in range(length):
                acc = 0.0
                for c in range(n_in):
                    for j in range(k):
                        src = t + j - offset
                        if 0 <= src < length:
                            acc += x[b, c, src] * kernels[o, c, j]
                out[b, o, t] = acc + bias[o]
    return out


def pool1d_loops(x, kernel, stride, padding):
    """Window-by-window max with edge replication, independent of ops.pool1d.

    Returns (values, positions): each window's max and the padded
    coordinate of its first maximal sample.
    """
    if padding == "same":
        pad_left = (kernel - 1) // 2
        pad_right = kernel - 1 - pad_left
        x = np.concatenate(
            [np.repeat(x[..., :1], pad_left, axis=-1), x,
             np.repeat(x[..., -1:], pad_right, axis=-1)], axis=-1)
    length = x.shape[-1]
    starts = list(range(0, length - kernel + 1, stride))
    # a trailing partial window, if samples remain and it starts inside
    if starts[-1] + kernel < length and starts[-1] + stride < length:
        starts.append(starts[-1] + stride)
    rows = x.reshape(-1, length)
    vals = np.empty((len(rows), len(starts)), dtype=x.dtype)
    pos = np.empty((len(rows), len(starts)), dtype=np.intp)
    for r, row in enumerate(rows):
        for w, s in enumerate(starts):
            window = list(row[s:s + kernel])
            vals[r, w] = max(window)
            pos[r, w] = s + window.index(max(window))
    shape = x.shape[:-1] + (len(starts),)
    return vals.reshape(shape), pos.reshape(shape)


def pool1d_backward_scatter(grad, cache):
    """Scatter-add each window's gradient onto its argmax sample, in
    window order, then fold edge-replicated pad columns onto the edges."""
    b, c, n = grad.shape
    lp, pad, length = cache.padded_length, cache.pad_left, cache.in_length
    d_xp = np.zeros((b * c, lp), dtype=grad.dtype)
    rows = np.repeat(np.arange(b * c), n)
    np.add.at(d_xp, (rows, cache.positions.reshape(-1)), grad.reshape(-1))
    d_xp = d_xp.reshape(b, c, lp)
    d_x = d_xp[:, :, pad:pad + length].copy()
    if lp != length:
        d_x[:, :, 0] += d_xp[:, :, :pad].sum(axis=2)
        d_x[:, :, -1] += d_xp[:, :, pad + length:].sum(axis=2)
    return d_x


LAYOUTS = ["c-order", "channels-last"]


def in_layout(x, layout):
    """A copy of the (B, C, L) batch x, C-order or channels last: a
    C-contiguous (B, L, C) buffer seen as (B, C, L), the layout of every
    activation model_forward makes."""
    if layout == "c-order":
        return np.ascontiguousarray(x)
    return np.ascontiguousarray(x.transpose(0, 2, 1)).transpose(0, 2, 1)


def bits(a):
    """The bytes of a in logical C order, whatever its memory layout."""
    return np.ascontiguousarray(a).tobytes()


def numeric_grad(f, x, h=1e-5):
    """Central-difference gradient of scalar f at x (float64)."""
    g = np.zeros_like(x)
    flat_x, flat_g = x.reshape(-1), g.reshape(-1)
    for i in range(flat_x.size):
        saved = flat_x[i]
        flat_x[i] = saved + h
        fp = f(x)
        flat_x[i] = saved - h
        fm = f(x)
        flat_x[i] = saved
        flat_g[i] = (fp - fm) / (2 * h)
    return g


def rel_err(a, b):
    return np.max(np.abs(a - b) / np.maximum(np.abs(a) + np.abs(b), 1e-6))


# ---------------------------------------------------------------------------
# conv1d

class TestConv1d:
    def test_identity_kernel(self):
        x = np.array([[[0.5, -1.0, 2.0, 3.5]]])
        out = ops.conv1d(x, np.ones((1, 1, 1)), np.zeros(1))
        np.testing.assert_array_equal(out, x)

    def test_zero_kernel_gives_bias(self):
        x = np.random.default_rng(0).normal(size=(1, 3, 10))
        out = ops.conv1d(x, np.zeros((2, 3, 3)), np.array([1.5, -2.0]))
        np.testing.assert_allclose(out[0, 0], 1.5)
        np.testing.assert_allclose(out[0, 1], -2.0)

    def test_hand_rolled_edge_detector(self):
        # zero-padded correlation of [1,2,4] with [1,0,-1], worked by hand
        x = np.array([[[1.0, 2.0, 4.0]]])
        k = np.array([[[1.0, 0.0, -1.0]]])
        out = ops.conv1d(x, k, np.zeros(1))
        np.testing.assert_allclose(out, [[[-2.0, -3.0, 2.0]]])
        np.testing.assert_allclose(out, conv1d_loops(x, k, np.zeros(1)))

    @pytest.mark.parametrize("k", [1, 3, 5, 7])
    def test_matches_loop_oracle(self, k):
        rng = np.random.default_rng(k)
        x = rng.normal(size=(1, 4, 19))
        kernels = rng.normal(size=(5, 4, k))
        bias = rng.normal(size=5)
        got = ops.conv1d(x, kernels, bias)
        np.testing.assert_allclose(got, conv1d_loops(x, kernels, bias),
                                   rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("k", [1, 3, 5, 7])
    @pytest.mark.parametrize("length", range(8, 65))
    def test_length_contract(self, k, length):
        x = np.zeros((1, 2, length))
        kernels = np.zeros((3, 2, k))
        assert ops.conv1d(x, kernels, np.zeros(3)).shape == (1, 3, length)

    def test_batch_matches_per_example(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(3, 2, 11))
        kernels = rng.normal(size=(4, 2, 5))
        bias = rng.normal(size=4)
        batched = ops.conv1d(x, kernels, bias)
        for i in range(3):
            np.testing.assert_allclose(batched[i], ops.conv1d(x[i:i + 1], kernels, bias)[0])

    def test_channel_mismatch(self):
        with pytest.raises(ShapeError, match="channels"):
            ops.conv1d(np.zeros((1, 3, 8)), np.zeros((2, 4, 3)), np.zeros(2))

    def test_even_kernel_rejected(self):
        with pytest.raises(ShapeError, match="odd"):
            ops.conv1d(np.zeros((1, 1, 8)), np.zeros((1, 1, 2)), np.zeros(1))

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(2, 3, 9))
        kernels = rng.normal(size=(4, 3, 3))
        bias = rng.normal(size=4)
        up = rng.normal(size=ops.conv1d(x, kernels, bias).shape)

        d_x, d_k, d_b = ops.conv1d_backward(up, x, kernels)
        assert rel_err(d_x, numeric_grad(
            lambda v: float((ops.conv1d(v, kernels, bias) * up).sum()), x.copy())) < 1e-4
        assert rel_err(d_k, numeric_grad(
            lambda v: float((ops.conv1d(x, v, bias) * up).sum()), kernels.copy())) < 1e-4
        assert rel_err(d_b, numeric_grad(
            lambda v: float((ops.conv1d(x, kernels, v) * up).sum()), bias.copy())) < 1e-4


# the padded-copy im2col conv1d and conv1d_backward were built on; the
# slice-copy im2col must give the same bits

def conv1d_padded_oracle(x, kernels, bias):
    n_out, c, k = kernels.shape
    pad = (k - 1) // 2
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad)))
    b, _, lp = xp.shape
    lo = lp - k + 1
    col = sliding_window_view(xp, k, axis=2).transpose(0, 2, 1, 3).reshape(b * lo, c * k)
    out = col @ kernels.reshape(n_out, c * k).T
    return out.reshape(b, lo, n_out).transpose(0, 2, 1) + bias[:, None]


def conv1d_backward_padded_oracle(grad, x, kernels):
    n_out, n_in, k = kernels.shape
    pad = (k - 1) // 2
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad)))
    b, _, lp = xp.shape
    lo = lp - k + 1
    g2 = grad.transpose(0, 2, 1).reshape(b * lo, n_out)
    col = sliding_window_view(xp, k, axis=2).transpose(0, 2, 1, 3).reshape(b * lo, n_in * k)
    d_kernels = (g2.T @ col).reshape(n_out, n_in, k)
    d_col = (g2 @ kernels.reshape(n_out, n_in * k)).reshape(b, lo, n_in, k)
    d_xp = np.zeros_like(xp)
    for j in range(k):
        d_xp[:, :, j:j + lo] += d_col[:, :, :, j].transpose(0, 2, 1)
    return d_xp[:, :, pad:pad + x.shape[2]], d_kernels, g2.sum(axis=0)


def _default_conv_layers():
    """(layer id, kernel shape, input length) of the default model's seven
    distinct conv layers: the stem and each stage's b1, b2 and b3."""
    spec = ModelSpec()
    shapes = param_shapes(spec)
    lengths = {"stem": spec.window, "s0": spec.window, "s1": pooled_length(spec.window)}
    return [(name, shapes[f"{name}.kernels"], lengths[name.split(".")[0]])
            for name in ("stem", "s0.b1", "s0.b2", "s0.b3", "s1.b1", "s1.b2", "s1.b3")]


# the default layers at batch 64 in float32, then float64 at every kernel
# length, down to inputs shorter than the kernel
BIT_EXACT_CASES = [(name, 64, shape, length, np.float32)
                   for name, shape, length in _default_conv_layers()] + [
    (f"f64-k{k}-L{length}", 3, (4, 5, k), length, np.float64)
    for k in (1, 3, 5, 7) for length in (1, 2, 13)]


@pytest.mark.parametrize("batch, shape, length, dtype", [c[1:] for c in BIT_EXACT_CASES],
                         ids=[c[0] for c in BIT_EXACT_CASES])
def test_conv_bitwise_equals_padded_oracle(batch, shape, length, dtype):
    rng = np.random.default_rng(length)
    n_out, n_in, _ = shape
    x = rng.normal(size=(batch, n_in, length)).astype(dtype)
    kernels = rng.normal(size=shape).astype(dtype)
    bias = rng.normal(size=n_out).astype(dtype)
    grad = rng.normal(size=(batch, n_out, length)).astype(dtype)

    expected = conv1d_padded_oracle(x, kernels, bias)
    expected_grads = conv1d_backward_padded_oracle(grad, x, kernels)
    for layout in LAYOUTS:
        x_in, grad_in = in_layout(x, layout), in_layout(grad, layout)
        out = ops.conv1d(x_in, kernels, bias)
        assert out.dtype == expected.dtype and out.shape == expected.shape
        assert bits(out) == bits(expected), layout
        for got, want in zip(ops.conv1d_backward(grad_in, x_in, kernels), expected_grads):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert bits(got) == bits(want), layout


# ---------------------------------------------------------------------------
# pool1d

def tied_input(shape):
    """Post-ReLU float32 logs: runs of exact zeros and constant runs."""
    b, c, length = shape
    x = np.maximum(np.random.default_rng(length).normal(size=shape), 0).astype(np.float32)
    x[0, 0, 2:7] = 0.5
    x[1, 2, :] = 0.0
    x[1, 1, -4:] = 1.25
    return x


def _default_pool_cases():
    """The default model's four training pools at batch 64."""
    spec = ModelSpec()
    lengths = spec.stage_lengths()
    cases = []
    for i, stage in enumerate(spec.stages):
        c_in = spec.stem_channels if i == 0 else spec.stages[i - 1].out_channels
        cases.append((f"s{i}.branch", network.BRANCH_POOL_KERNEL, 1, "same",
                      (64, c_in, lengths[i])))
        cases.append((f"s{i}.stage", network.POOL_KERNEL, network.POOL_STRIDE, "valid",
                      (64, stage.out_channels, lengths[i])))
    return cases


# pool shapes the tie tests run over, on (2, 3, L) tied inputs
TIE_TABLE = [(2, 2, "valid"), (3, 1, "same"), (3, 2, "valid"), (2, 3, "valid")]
# (id, kernel, stride, padding, input shape): TIE_TABLE at L = 12 and 13,
# then the default model's training pools; each test runs every case on
# a C-order and on a channels-last input
TIE_CASES = [(f"{k}-{s}-{p}-{length}", k, s, p, (2, 3, length))
             for k, s, p in TIE_TABLE for length in (12, 13)] + _default_pool_cases()
tie_cases = pytest.mark.parametrize("kernel, stride, padding, shape",
                                    [c[1:] for c in TIE_CASES], ids=[c[0] for c in TIE_CASES])


def test_default_pool_cases_match_model_forward(monkeypatch):
    spec = ModelSpec()
    seen = []
    pool1d = ops.pool1d

    def spy(x, *args, **kwargs):
        seen.append((x.shape, *args, kwargs.get("padding", "valid")))
        return pool1d(x, *args, **kwargs)

    monkeypatch.setattr(ops, "pool1d", spy)
    batch = np.zeros((64, spec.in_channels, spec.window), dtype=np.float32)
    network.model_forward(spec, network.init_params(spec, 0), batch, training=True,
                          rng=np.random.default_rng(0))
    assert seen == [(shape, kernel, stride, padding)
                    for _, kernel, stride, padding, shape in _default_pool_cases()]


# (id, training, batch): model_forward as a training step and as inference
LAYOUT_CASES = [("training-64", True, 64),
                ("inference", False, network.INFERENCE_BATCH)]
ACTIVATION_OPS = ("conv1d", "relu", "pool1d", "concat_channels")


@pytest.mark.parametrize("training, batch", [c[1:] for c in LAYOUT_CASES],
                         ids=[c[0] for c in LAYOUT_CASES])
def test_every_activation_is_channels_last(monkeypatch, training, batch):
    spec = ModelSpec()
    made = []
    for name in ACTIVATION_OPS:
        def spy(*args, _op=getattr(ops, name), _name=name, **kwargs):
            out = _op(*args, **kwargs)
            made.append((_name, out[0] if _name == "pool1d" else out))
            return out
        monkeypatch.setattr(ops, name, spy)
    batch = np.zeros((batch, spec.in_channels, spec.window), dtype=np.float32)
    network.model_forward(spec, network.init_params(spec, 0), batch, training=training,
                          rng=np.random.default_rng(0))
    series = [(name, a) for name, a in made if a.ndim == 3]
    # the stem's conv and ReLU, then per stage six conv and ReLU pairs,
    # the branch pool, the concat and the stage pool
    assert len(series) == 2 + 15 * len(spec.stages)
    for name, a in series:
        assert a.transpose(0, 2, 1).flags.c_contiguous, (name, a.shape, a.strides)


class TestPool1d:
    def test_pairwise_max(self):
        out, _ = ops.pool1d(np.array([[[3.0, 1, 4, 1, 5, 9]]]), kernel=2, stride=2)
        np.testing.assert_array_equal(out, [[[3, 4, 9]]])

    def test_constant_input(self):
        out, _ = ops.pool1d(np.full((1, 2, 8), 2.5), kernel=2, stride=2)
        np.testing.assert_array_equal(out, np.full((1, 2, 4), 2.5))

    def test_same_padding_edge_replication(self):
        # hand enumeration over [1,1,2,3,4,4] with kernel 3
        out, _ = ops.pool1d(np.array([[[1.0, 2, 3, 4]]]), kernel=3, stride=1, padding="same")
        np.testing.assert_array_equal(out, [[[2, 3, 4, 4]]])

    @pytest.mark.parametrize("length", range(4, 40, 2))
    def test_stride2_halves_even_lengths(self, length):
        out, _ = ops.pool1d(np.zeros((1, 3, length)), kernel=2, stride=2)
        assert out.shape == (1, 3, length // 2)

    @pytest.mark.parametrize("kernel,stride", [(2, 2), (3, 1), (3, 2), (2, 3)])
    @pytest.mark.parametrize("padding", ["valid", "same"])
    def test_matches_loop_oracle(self, kernel, stride, padding):
        rng = np.random.default_rng(kernel * 10 + stride)
        x = rng.normal(size=(1, 3, 13))
        got, _ = ops.pool1d(x, kernel, stride, padding)
        np.testing.assert_array_equal(got, pool1d_loops(x, kernel, stride, padding)[0])

    def test_partial_tail_window(self):
        # ceil mode: length 7, kernel 2, stride 2 -> 4 windows, last is [g]
        out, _ = ops.pool1d(np.array([[[1.0, 5, 2, 6, 3, 7, 4]]]), kernel=2, stride=2)
        np.testing.assert_array_equal(out, [[[5, 6, 7, 4]]])

    def test_short_input_rejected(self):
        with pytest.raises(ShapeError, match="shorter than pool kernel"):
            ops.pool1d(np.zeros((1, 1, 2)), kernel=3, stride=1)

    def test_window_never_starts_past_the_end(self):
        # length 12, kernel 2, stride 3: windows at 0, 3, 6, 9; sample
        # 11 lies in the gap after [9, 10], not in a window at 12
        out, cache = ops.pool1d(np.arange(12.0)[None, None], kernel=2, stride=3,
                                training=True)
        np.testing.assert_array_equal(out, [[[1, 4, 7, 10]]])
        np.testing.assert_array_equal(cache.positions[0], [[1, 4, 7, 10]])

    @tie_cases
    def test_ties_pick_first_maximum(self, kernel, stride, padding, shape):
        x = tied_input(shape)
        want_vals, want_pos = pool1d_loops(x, kernel, stride, padding)
        for layout in LAYOUTS:
            vals, cache = ops.pool1d(in_layout(x, layout), kernel, stride, padding,
                                     training=True)
            assert vals.dtype == want_vals.dtype and bits(vals) == bits(want_vals), layout
            assert cache.positions.dtype == np.int64
            np.testing.assert_array_equal(cache.positions, want_pos)

    @tie_cases
    def test_inference_values_equal_training_values(self, kernel, stride, padding, shape):
        for layout in LAYOUTS:
            x = in_layout(tied_input(shape), layout)
            trained, _ = ops.pool1d(x, kernel, stride, padding, training=True)
            inferred, cache = ops.pool1d(x, kernel, stride, padding)
            assert inferred.dtype == trained.dtype
            assert bits(inferred) == bits(trained), layout
            assert cache.positions.size == 0

    def test_backward_needs_a_training_cache(self):
        x = tied_input((2, 3, 12))
        out, cache = ops.pool1d(x, 2, 2)
        with pytest.raises(ShapeError, match="training-mode"):
            ops.pool1d_backward(np.ones_like(out), cache)

    @tie_cases
    def test_backward_bitwise_equals_scatter_add(self, kernel, stride, padding, shape):
        # gradients over eight decades, so a different summation order
        # on a sample that several windows chose rounds differently
        for layout in LAYOUTS:
            _, cache = ops.pool1d(in_layout(tied_input(shape), layout), kernel, stride,
                                  padding, training=True)
            rng = np.random.default_rng(shape[-1] + kernel)
            up = (rng.normal(size=cache.positions.shape)
                  * 10.0 ** rng.uniform(-4, 4, size=cache.positions.shape)).astype(np.float32)
            want = pool1d_backward_scatter(up, cache)
            got = ops.pool1d_backward(in_layout(up, layout), cache)
            assert got.dtype == np.float32
            assert bits(got) == bits(want), layout

    @pytest.mark.parametrize("kernel,stride,padding", [(2, 2, "valid"), (3, 1, "same"), (3, 2, "valid")])
    def test_gradients_match_finite_differences(self, kernel, stride, padding):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 3, 11))
        out, cache = ops.pool1d(x, kernel, stride, padding, training=True)
        up = rng.normal(size=out.shape)
        d_x = ops.pool1d_backward(up, cache)

        def f(v):
            o, _ = ops.pool1d(v, kernel, stride, padding)
            return float((o * up).sum())

        assert rel_err(d_x, numeric_grad(f, x.copy())) < 1e-4


# ---------------------------------------------------------------------------
# dense

class TestDense:
    def test_identity(self):
        x = np.array([[1.0, 2.0, 3.0]])
        np.testing.assert_array_equal(ops.dense(x, np.eye(3), np.zeros(3)), x)

    def test_zero_weights_give_bias(self):
        out = ops.dense(np.ones((1, 4)), np.zeros((2, 4)), np.array([5.0, -1.0]))
        np.testing.assert_array_equal(out, [[5.0, -1.0]])

    def test_hand_product(self):
        out = ops.dense(np.array([[1.0, 1.0]]), np.array([[1.0, 2], [3, 4]]), np.zeros(2))
        np.testing.assert_array_equal(out, [[3.0, 7.0]])

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            ops.dense(np.zeros((1, 3)), np.zeros((2, 4)), np.zeros(2))

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(3, 6))
        w = rng.normal(size=(4, 6))
        b = rng.normal(size=4)
        up = rng.normal(size=(3, 4))
        d_x, d_w, d_b = ops.dense_backward(up, x, w)
        assert rel_err(d_x, numeric_grad(lambda v: float((ops.dense(v, w, b) * up).sum()), x.copy())) < 1e-4
        assert rel_err(d_w, numeric_grad(lambda v: float((ops.dense(x, v, b) * up).sum()), w.copy())) < 1e-4
        assert rel_err(d_b, numeric_grad(lambda v: float((ops.dense(x, w, v) * up).sum()), b.copy())) < 1e-4


# ---------------------------------------------------------------------------
# relu / softmax / concat

class TestActivations:
    def test_relu_values(self):
        np.testing.assert_array_equal(ops.relu(np.array([-1.0, 0.0, 2.0])), [0, 0, 2])
        np.testing.assert_array_equal(ops.relu(np.array([-3.0, -0.5])), [0, 0])
        x = np.array([1.0, 2.0, 3.0])
        np.testing.assert_array_equal(ops.relu(x), x)

    def test_relu_backward(self):
        d = ops.relu_backward(np.array([5.0, 5.0]), np.array([-1.0, 2.0]))
        np.testing.assert_array_equal(d, [0.0, 5.0])

    @staticmethod
    def _relu_inputs(kind, dtype):
        """(grad, x) for relu_backward: x a C-order batch, a conv1d output
        (channels last in memory) or a 2-D dense pre-activation, and a
        C-order gradient. Column 0 of x is 0.0, column 1 -0.0, column 2
        NaN; the gradient is -0.0 at x = 1 in column 3, inf and NaN in
        masked columns 4 and 5, -inf at x = 2 in column 6."""
        rng = np.random.default_rng(7)
        if kind == "c-order":
            x = rng.normal(size=(3, 4, 9)).astype(dtype)
        elif kind == "conv1d":
            x = ops.conv1d(rng.normal(size=(3, 2, 9)).astype(dtype),
                           rng.normal(size=(4, 2, 3)).astype(dtype), np.zeros(4, dtype))
        else:
            x = ops.dense(rng.normal(size=(5, 3)).astype(dtype),
                          rng.normal(size=(9, 3)).astype(dtype), np.zeros(9, dtype))
        grad = rng.normal(size=x.shape).astype(dtype)
        x[..., :7] = [0.0, -0.0, np.nan, 1.0, -1.0, -1.0, 2.0]
        grad[..., 3:7] = [-0.0, np.inf, np.nan, -np.inf]
        return grad, x

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kind", ["c-order", "conv1d", "dense"])
    def test_relu_backward_bitwise_equals_where(self, kind, dtype):
        grad, x = self._relu_inputs(kind, dtype)
        assert ((grad < 0) & ~(x > 0)).any()
        got = ops.relu_backward(grad, x)
        want = np.where(x > 0, grad, 0)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.strides == x.strides  # x's memory layout
        assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()
        # where a float multiply by the mask differs: a masked negative
        # gradient gives -0.0 and a masked inf NaN, relu_backward +0.0
        masked = ~(x > 0) & ((grad < 0) | np.isinf(grad))
        assert not np.signbit(got[masked]).any() and (got[masked] == 0).all()
        with np.errstate(invalid="ignore"):
            product = (grad * (x > 0))[masked]
        assert (np.signbit(product) | np.isnan(product)).all()

    def test_softmax_uniform(self):
        np.testing.assert_allclose(ops.softmax(np.zeros(3)), np.full(3, 1 / 3))

    def test_softmax_shift_invariance(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            z = rng.normal(size=9) * 10
            c = rng.normal() * 100
            np.testing.assert_allclose(ops.softmax(z + c), ops.softmax(z), atol=1e-6)

    def test_softmax_hand_values(self):
        # exp(ln 1), exp(ln 2), exp(ln 7) normalize to 0.1, 0.2, 0.7
        out = ops.softmax(np.log(np.array([1.0, 2.0, 7.0])))
        np.testing.assert_allclose(out, [0.1, 0.2, 0.7], atol=1e-12)

    def test_softmax_sums_to_one(self):
        rng = np.random.default_rng(8)
        z = rng.normal(size=(50, 9)) * 30
        s = ops.softmax(z)
        assert np.all(s > 0)
        np.testing.assert_allclose(s.sum(axis=1), 1.0, atol=1e-6)

    def test_softmax_rejects_nan(self):
        with pytest.raises(NumericError):
            ops.softmax(np.array([0.0, np.nan, 1.0]))

    def test_concat_single_input_identity(self):
        x = np.arange(6.0).reshape(2, 3)
        np.testing.assert_array_equal(ops.concat_channels([x]), x)

    def test_concat_two_inputs(self):
        out = ops.concat_channels([np.array([[1.0, 2]]), np.array([[3.0, 4]])])
        np.testing.assert_array_equal(out, [[1, 2], [3, 4]])

    def test_concat_channel_count(self):
        parts = [np.zeros((c, 5)) for c in (2, 3, 4)]
        assert ops.concat_channels(parts).shape == (9, 5)

    def test_concat_length_mismatch(self):
        with pytest.raises(ShapeError):
            ops.concat_channels([np.zeros((1, 4)), np.zeros((1, 5))])

    def test_concat_then_split_recovers(self):
        rng = np.random.default_rng(4)
        parts = [rng.normal(size=(c, 7)) for c in (1, 3, 2)]
        back = ops.split_channels(ops.concat_channels(parts), [1, 3, 2])
        for a, b in zip(parts, back):
            np.testing.assert_array_equal(a, b)


# ---------------------------------------------------------------------------
# dropout

class TestDropout:
    def test_rate_zero_identity(self):
        x = np.arange(12.0).reshape(3, 4)
        out, _ = ops.dropout(x, 0.0, np.random.default_rng(0), training=True)
        np.testing.assert_array_equal(out, x)

    def test_inference_identity(self):
        x = np.arange(12.0).reshape(3, 4)
        out, _ = ops.dropout(x, 0.9, np.random.default_rng(0), training=False)
        np.testing.assert_array_equal(out, x)

    def test_rate_one_rejected(self):
        with pytest.raises(ConfigError):
            ops.dropout(np.zeros(3), 1.0, np.random.default_rng(0), training=True)

    def test_expectation_preserved(self):
        # Monte-Carlo: mean over 10^4 masks stays within 2% of the input
        rng = np.random.default_rng(123)
        x = np.full(10_000, 3.0)
        out, _ = ops.dropout(x, 0.4, rng, training=True)
        assert abs(out.mean() - 3.0) / 3.0 < 0.02

    def test_backward_uses_same_mask(self):
        rng = np.random.default_rng(9)
        x = np.random.default_rng(1).normal(size=(4, 5))
        out, mask = ops.dropout(x, 0.5, rng, training=True)
        up = np.ones_like(x)
        d = ops.dropout_backward(up, mask)
        # gradient is the mask itself: zero exactly where output is zero
        np.testing.assert_array_equal(d == 0, out == 0)


# ---------------------------------------------------------------------------
# fused softmax/cross-entropy

class TestSoftmaxXent:
    def test_uniform_grad_is_probs_minus_onehot(self):
        logits = np.zeros((1, 9))
        _, d = ops.softmax_xent(logits, np.array([0]))
        expect = np.full(9, 1 / 9)
        expect[0] -= 1
        np.testing.assert_allclose(d[0], expect, atol=1e-12)

    def test_grads_sum_to_zero_per_example(self):
        rng = np.random.default_rng(6)
        logits = rng.normal(size=(8, 9))
        labels = rng.integers(0, 9, size=8)
        _, d = ops.softmax_xent(logits, labels)
        np.testing.assert_allclose(d.sum(axis=1), 0.0, atol=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(10)
        logits = rng.normal(size=(4, 9))
        labels = rng.integers(0, 9, size=4)
        w = rng.uniform(0.5, 2.0, size=9)
        _, d = ops.softmax_xent(logits, labels, w)
        num = numeric_grad(lambda z: ops.softmax_xent(z, labels, w)[0], logits.copy())
        assert rel_err(d, num) < 1e-4

    def test_non_finite_logits_raise_before_any_warning(self):
        # the training step calls the loss outside any np.errstate; an
        # inf logit's log-sum-exp (inf - inf) would warn before the check
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError):
                ops.softmax_xent(np.array([[0.0, np.inf, 1.0]]), np.array([0]))


@pytest.mark.parametrize("call", [
    lambda: ops.conv1d(np.zeros((2, 8)), np.zeros((1, 2, 3)), np.zeros(1)),
    lambda: ops.conv1d_backward(np.zeros((1, 1, 8)), np.zeros((2, 8)), np.zeros((1, 2, 3))),
    lambda: ops.pool1d(np.zeros((2, 8)), 2, 2),
    lambda: ops.softmax_xent(np.zeros(9), np.zeros(1, dtype=np.int64)),
], ids=["conv1d", "conv1d_backward", "pool1d", "softmax_xent"])
def test_unbatched_input_rejected(call):
    # one (C, L) window for the layer ops, one (F,) logit row for the loss:
    # each must be rejected by its rank check, not promoted to a batch of one
    with pytest.raises(ShapeError, match="rank"):
        call()


class TestFiniteDiffHarness:
    def test_linear_model_is_exact(self):
        # quadratic-free loss: rounding-level agreement
        rng = np.random.default_rng(0)
        w = {"w": rng.normal(size=6)}
        x = rng.normal(size=6)

        def loss(p):
            return float(p["w"] @ x)

        err, _ = ops.finite_diff_check(loss, w, {"w": x.copy()})
        assert err < 1e-8
