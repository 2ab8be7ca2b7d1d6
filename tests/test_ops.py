"""Kernel-level tests: hand-derived values, brute-force oracles, and
finite-difference gradient checks for every layer type."""

import numpy as np
import pytest

from faciesnet import ops
from faciesnet.errors import ConfigError, NumericError, ShapeError


# ---------------------------------------------------------------------------
# independent oracles

def conv1d_loops(x, kernels, bias):
    """Brute-force triple-loop same-padded correlation, independent of ops.conv1d."""
    n_out, n_in, k = kernels.shape
    length = x.shape[1]
    offset = (k - 1) // 2
    out = np.zeros((n_out, length))
    for o in range(n_out):
        for t in range(length):
            acc = 0.0
            for c in range(n_in):
                for j in range(k):
                    src = t + j - offset
                    if 0 <= src < length:
                        acc += x[c, src] * kernels[o, c, j]
            out[o, t] = acc + bias[o]
    return out


def pool1d_loops(x, kernel, stride, padding):
    """Window-by-window max with edge replication, independent of ops.pool1d."""
    if padding == "same":
        pad_left = (kernel - 1) // 2
        pad_right = kernel - 1 - pad_left
        x = np.concatenate(
            [np.repeat(x[:, :1], pad_left, axis=1), x,
             np.repeat(x[:, -1:], pad_right, axis=1)], axis=1)
    length = x.shape[1]
    starts = list(range(0, length - kernel + 1, stride))
    if starts[-1] + kernel < length:
        starts.append(starts[-1] + stride)
    return np.stack([x[:, s:s + kernel].max(axis=1) for s in starts], axis=1)


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
        x = np.array([[0.5, -1.0, 2.0, 3.5]])
        out = ops.conv1d(x, np.ones((1, 1, 1)), np.zeros(1))
        np.testing.assert_array_equal(out, x)

    def test_zero_kernel_gives_bias(self):
        x = np.random.default_rng(0).normal(size=(3, 10))
        out = ops.conv1d(x, np.zeros((2, 3, 3)), np.array([1.5, -2.0]))
        np.testing.assert_allclose(out[0], 1.5)
        np.testing.assert_allclose(out[1], -2.0)

    def test_hand_rolled_edge_detector(self):
        # zero-padded correlation of [1,2,4] with [1,0,-1], worked by hand
        x = np.array([[1.0, 2.0, 4.0]])
        k = np.array([[[1.0, 0.0, -1.0]]])
        out = ops.conv1d(x, k, np.zeros(1))
        np.testing.assert_allclose(out, [[-2.0, -3.0, 2.0]])
        np.testing.assert_allclose(out, conv1d_loops(x, k, np.zeros(1)))

    @pytest.mark.parametrize("k", [1, 3, 5, 7])
    def test_matches_loop_oracle(self, k):
        rng = np.random.default_rng(k)
        x = rng.normal(size=(4, 19))
        kernels = rng.normal(size=(5, 4, k))
        bias = rng.normal(size=5)
        got = ops.conv1d(x, kernels, bias)
        np.testing.assert_allclose(got, conv1d_loops(x, kernels, bias),
                                   rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("k", [1, 3, 5, 7])
    @pytest.mark.parametrize("length", range(8, 65))
    def test_length_contract(self, k, length):
        x = np.zeros((2, length))
        kernels = np.zeros((3, 2, k))
        assert ops.conv1d(x, kernels, np.zeros(3)).shape == (3, length)

    def test_batch_matches_per_example(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(3, 2, 11))
        kernels = rng.normal(size=(4, 2, 5))
        bias = rng.normal(size=4)
        batched = ops.conv1d(x, kernels, bias)
        for i in range(3):
            np.testing.assert_allclose(batched[i], ops.conv1d(x[i], kernels, bias))

    def test_channel_mismatch(self):
        with pytest.raises(ShapeError):
            ops.conv1d(np.zeros((3, 8)), np.zeros((2, 4, 3)), np.zeros(2))

    def test_even_kernel_rejected(self):
        with pytest.raises(ShapeError):
            ops.conv1d(np.zeros((1, 8)), np.zeros((1, 1, 2)), np.zeros(1))

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


# ---------------------------------------------------------------------------
# pool1d

class TestPool1d:
    def test_pairwise_max(self):
        out, _ = ops.pool1d(np.array([[3.0, 1, 4, 1, 5, 9]]), kernel=2, stride=2)
        np.testing.assert_array_equal(out, [[3, 4, 9]])

    def test_constant_input(self):
        out, _ = ops.pool1d(np.full((2, 8), 2.5), kernel=2, stride=2)
        np.testing.assert_array_equal(out, np.full((2, 4), 2.5))

    def test_same_padding_edge_replication(self):
        # hand enumeration over [1,1,2,3,4,4] with kernel 3
        out, _ = ops.pool1d(np.array([[1.0, 2, 3, 4]]), kernel=3, stride=1, padding="same")
        np.testing.assert_array_equal(out, [[2, 3, 4, 4]])

    @pytest.mark.parametrize("length", range(4, 40, 2))
    def test_stride2_halves_even_lengths(self, length):
        out, _ = ops.pool1d(np.zeros((3, length)), kernel=2, stride=2)
        assert out.shape == (3, length // 2)

    @pytest.mark.parametrize("kernel,stride", [(2, 2), (3, 1), (3, 2), (2, 3)])
    @pytest.mark.parametrize("padding", ["valid", "same"])
    def test_matches_loop_oracle(self, kernel, stride, padding):
        rng = np.random.default_rng(kernel * 10 + stride)
        x = rng.normal(size=(3, 13))
        got, _ = ops.pool1d(x, kernel, stride, padding)
        np.testing.assert_array_equal(got, pool1d_loops(x, kernel, stride, padding))

    def test_partial_tail_window(self):
        # ceil mode: length 7, kernel 2, stride 2 -> 4 windows, last is [g]
        out, _ = ops.pool1d(np.array([[1.0, 5, 2, 6, 3, 7, 4]]), kernel=2, stride=2)
        np.testing.assert_array_equal(out, [[5, 6, 7, 4]])

    def test_short_input_rejected(self):
        with pytest.raises(ShapeError):
            ops.pool1d(np.zeros((1, 2)), kernel=3, stride=1)

    @pytest.mark.parametrize("kernel,stride,padding", [(2, 2, "valid"), (3, 1, "same"), (3, 2, "valid")])
    def test_gradients_match_finite_differences(self, kernel, stride, padding):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 3, 11))
        out, cache = ops.pool1d(x, kernel, stride, padding)
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
        x = np.array([1.0, 2.0, 3.0])
        np.testing.assert_array_equal(ops.dense(x, np.eye(3), np.zeros(3)), x)

    def test_zero_weights_give_bias(self):
        out = ops.dense(np.ones(4), np.zeros((2, 4)), np.array([5.0, -1.0]))
        np.testing.assert_array_equal(out, [5.0, -1.0])

    def test_hand_product(self):
        out = ops.dense(np.array([1.0, 1.0]), np.array([[1.0, 2], [3, 4]]), np.zeros(2))
        np.testing.assert_array_equal(out, [3.0, 7.0])

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            ops.dense(np.zeros(3), np.zeros((2, 4)), np.zeros(2))

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
        out, cache = ops.dropout(x, 0.5, rng, training=True)
        up = np.ones_like(x)
        d = ops.dropout_backward(up, cache)
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
