"""Dense 1D layer kernels: forward passes, exact analytic backward passes,
and a finite-difference harness to verify them.

Arrays are plain numpy ndarrays, float32 in production and float64 for
gradient checks. Log windows travel in batches of logical shape
(batch, channels, length); the convolution and pooling ops accept no
other rank, and the dense head and the loss take (batch, features).

Memory layout: the series ops store what they return channels last. A
conv, pool or backward-pass result is the (0, 2, 1) transpose view of a
C-contiguous (batch, length, channels) buffer, and ReLU and the channel
concat keep their inputs' layout, so every activation of a model
forward pass lies channels last. The next op then reads it as
(batch, length, channels) rows for free: a 1x1 conv's im2col matrix is a
view, and a pool scans whole channel rows. The ops accept a C-order
batch too (as the network's input is) and give the same bits on it,
at the cost of one transposing copy.

Convolutions are same-padded, so they keep the length. Each one is a
single matmul over an im2col matrix that `K` slice copies of the input
fill, with zeros where a window reaches past either end; the backward
pass builds the same matrix.

All functions are pure: state a backward pass needs is returned
explicitly as a cache, never stored on a module or instance.
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError, NumericError, ShapeError

def _require_batch(x: np.ndarray, op: str) -> np.ndarray:
    """Return x as an array, or raise unless it is a (B, C, L) batch."""
    x = np.asarray(x)
    if x.ndim != 3:
        raise ShapeError(f"{op} expects a (B, C, L) batch, got rank {x.ndim}")
    return x


@dataclass
class LayerCache:
    """Saved forward-pass state max-pooling needs for its backward pass:
    each window's argmax and the padding to fold back onto the edges.

    Only a training-mode pool records the argmax: an inference-mode
    pool leaves `positions` an empty array, and its cache cannot be
    backpropagated.
    """

    positions: np.ndarray                   # max-pool argmax, padded coords
    pad_left: int = 0
    in_length: int = 0
    padded_length: int = 0


# ---------------------------------------------------------------------------
# convolution

def conv1d(x: np.ndarray, kernels: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Cross-correlate along the length axis, same-padded.

    out[b, o, t] = sum_c sum_k x[b, c, t + k - (K-1)/2] * kernels[o, c, k] + bias[o]

    Samples beyond either end count as zeros, so the length is preserved.
    K must be odd. One matmul of the (B*L, C*K) im2col matrix, which
    `_im2col` fills with K slice copies, with the (O, C*K) kernels; the
    bias is added in place into its (B*L, O) result, whose transpose
    view is returned: channels last in memory.
    """
    x = _require_batch(x, "conv1d")
    kernels = np.asarray(kernels)
    bias = np.asarray(bias)
    if kernels.ndim != 3:
        raise ShapeError(f"kernels must be (C_out, C_in, K), got rank {kernels.ndim}")
    n_out, n_in, k = kernels.shape
    if k % 2 == 0:
        raise ShapeError(f"kernel length must be odd, got {k}")
    if x.shape[1] != n_in:
        raise ShapeError(f"input has {x.shape[1]} channels, kernels expect {n_in}")
    if bias.shape != (n_out,):
        raise ShapeError(f"bias must have shape ({n_out},), got {bias.shape}")

    b, _, length = x.shape
    out = _im2col(x, k) @ kernels.reshape(n_out, n_in * k).T   # (B*L, O)
    out += bias
    return out.reshape(b, length, n_out).transpose(0, 2, 1)


def _im2col(x: np.ndarray, k: int) -> np.ndarray:
    """The (B*L, C*K) matrix whose row b*L + t holds, channel by channel,
    the K samples x[b, c, t - (K-1)/2 : t + (K+1)/2], zero past the ends.

    x is read in (B, L, C) order, a free view when it lies channels last
    and one copy otherwise; column j of every channel is then one slice
    copy of it, shifted by j - (K-1)/2, into a zeroed (B, L, C, K) array.
    For K = 1 that view is the matrix.
    """
    b, c, length = x.shape
    xt = np.ascontiguousarray(x.transpose(0, 2, 1))
    if k == 1:
        return xt.reshape(b * length, c)
    pad = (k - 1) // 2
    col = np.zeros((b, length, c, k), dtype=x.dtype)
    for j in range(k):
        shift = j - pad
        lo, hi = max(0, -shift), min(length, length - shift)
        if lo < hi:  # else every window's sample j lies past an end
            col[:, lo:hi, :, j] = xt[:, lo + shift:hi + shift]
    return col.reshape(b * length, c * k)


def conv1d_backward(grad: np.ndarray, x: np.ndarray,
                    kernels: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of the same-padded conv1d: returns (d_input, d_kernels, d_bias).

    d_input is accumulated tap by tap into a (B, L + K - 1, C) buffer and
    returned channels last; a channels-last grad is read without a copy.
    """
    x = _require_batch(x, "conv1d_backward")
    grad = np.asarray(grad)
    n_out, n_in, k = kernels.shape
    pad = (k - 1) // 2
    b, _, lo = x.shape
    if grad.shape != (b, n_out, lo):
        raise ShapeError(f"upstream grad shape {grad.shape} != forward output {(b, n_out, lo)}")

    g2 = grad.transpose(0, 2, 1).reshape(b * lo, n_out)
    d_bias = g2.sum(axis=0)
    d_kernels = (g2.T @ _im2col(x, k)).reshape(n_out, n_in, k)

    d_col = (g2 @ kernels.reshape(n_out, n_in * k)).reshape(b, lo, n_in, k)
    d_xp = np.zeros((b, lo + 2 * pad, n_in), dtype=x.dtype)
    for j in range(k):
        d_xp[:, j:j + lo] += d_col[:, :, :, j]
    return d_xp[:, pad:pad + lo].transpose(0, 2, 1), d_kernels, d_bias


# ---------------------------------------------------------------------------
# pooling

def pool1d(x: np.ndarray, kernel: int, stride: int, padding: str = "valid",
           training: bool = False) -> tuple[np.ndarray, LayerCache]:
    """Max-pool along the length axis.

    "valid" emits a window at every multiple of `stride` that starts
    inside the input, up to ceil((L - kernel)/stride) + 1 windows; a
    trailing window shorter than `kernel` still contributes its max.
    "same" edge-replicates kernel-1 samples so stride 1 preserves the
    length. In training mode the cache records the argmax position of
    every window in padded coordinates, for pool1d_backward; on ties the
    first maximum wins, as in argmax. Outside training no argmax is
    computed and the cache's positions are empty.

    Works by shifted slices of the input in (B, L, C) order (a "same"
    pool first copies it, edge rows included, into a (B, Lp, C) buffer):
    offset j of every window is the strided slice xp[:, j::stride], so
    the pool is `kernel` elementwise steps over whole (B, n, C) arrays,
    and the slice clipping at the end of the input is what shortens the
    trailing window. In training, step j sets a window's uint8 argmax
    offset to max(offset, j * (sample > max so far)): j exceeds every
    earlier offset, so a strictly greater sample moves the offset to j
    and an equal one leaves the first maximum. The values, and the int64
    positions of logical shape (B, C, n), are returned channels last.
    """
    x = _require_batch(x, "pool1d")
    if kernel < 1 or stride < 1:
        raise ShapeError(f"kernel and stride must be >= 1, got {kernel}, {stride}")

    b, c, length = x.shape
    xt = x.transpose(0, 2, 1)   # (B, L, C): a free view of a channels-last x
    if padding == "same":
        pad_left = (kernel - 1) // 2
        xp = np.empty((b, length + kernel - 1, c), dtype=x.dtype)
        xp[:, pad_left:pad_left + length] = xt
        xp[:, :pad_left] = xt[:, :1]
        xp[:, pad_left + length:] = xt[:, -1:]
    elif padding == "valid":
        if length < kernel:
            raise ShapeError(f"input length {length} shorter than pool kernel {kernel}")
        pad_left = 0
        xp = xt
    else:
        raise ConfigError(f"unknown padding {padding!r}")

    lp = xp.shape[1]
    n_out = -(-min(lp, lp - kernel + stride) // stride)
    span = (n_out - 1) * stride + 1
    vals = xp[:, 0:span:stride].copy()
    if training:
        offset = np.zeros(vals.shape, dtype=np.min_scalar_type(kernel - 1))
    for j in range(1, kernel):
        shifted = xp[:, j:j + span:stride]
        n = shifted.shape[1]
        head = vals[:, :n]
        if training:
            moved = np.greater(shifted, head) * offset.dtype.type(j)
            np.maximum(offset[:, :n], moved, out=offset[:, :n])
        np.maximum(head, shifted, out=head)
    if training:
        pos = (offset + (np.arange(n_out) * stride)[:, None]).transpose(0, 2, 1)
    else:
        pos = np.empty(0, dtype=np.intp)

    cache = LayerCache(positions=pos, pad_left=pad_left, in_length=length,
                       padded_length=lp)
    return vals.transpose(0, 2, 1), cache


def pool1d_backward(grad: np.ndarray, cache: LayerCache) -> np.ndarray:
    """Route each window's upstream gradient to its argmax sample.

    One scatter-add over the flattened (B, Lp, C) padded gradient, at
    index (b*Lp + position)*C + c, in (batch, window, channel) order.
    np.add.at adds in index order, so a sample that several windows
    chose sums their gradients in ascending window order. The pad rows
    of a "same" pool are then folded onto the boundary samples. The
    result is channels last in memory.
    """
    grad = np.asarray(grad)
    pos = cache.positions
    if pos.ndim != 3:
        raise ShapeError("pool1d_backward needs the cache of a training-mode pool1d")
    if grad.shape != pos.shape:
        raise ShapeError(f"upstream grad shape {grad.shape} != pooled shape {pos.shape}")
    b, c, _ = grad.shape
    lp = cache.padded_length
    base = np.arange(0, b * lp * c, lp * c).reshape(b, 1, 1) + np.arange(c)
    index = pos.transpose(0, 2, 1) * c + base
    d_xp = np.zeros(b * lp * c, dtype=grad.dtype)
    np.add.at(d_xp, index.ravel(), grad.transpose(0, 2, 1).ravel())
    d_xp = d_xp.reshape(b, lp, c)

    pad, length = cache.pad_left, cache.in_length
    if lp != length:
        # fold edge-replicated pad rows back onto the boundary samples;
        # the sums read only pad rows, which lie outside the interior view
        d_x = d_xp[:, pad:pad + length]
        d_x[:, 0] += d_xp[:, :pad].sum(axis=1)
        d_x[:, -1] += d_xp[:, pad + length:].sum(axis=1)
        d_xp = d_x
    return d_xp.transpose(0, 2, 1)


# ---------------------------------------------------------------------------
# dense, relu, softmax, concat, dropout

def dense(x: np.ndarray, weights: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Affine map: weights (M, N) applied to a (B, N) input."""
    x = np.asarray(x)
    m, n = weights.shape
    if x.shape[-1] != n:
        raise ShapeError(f"dense expects {n} inputs, got {x.shape[-1]}")
    if bias.shape != (m,):
        raise ShapeError(f"bias must have shape ({m},), got {bias.shape}")
    return x @ weights.T + bias


def dense_backward(grad: np.ndarray, x: np.ndarray,
                   weights: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of dense for a (B, M) upstream gradient and (B, N) input:
    returns (d_input, d_weights, d_bias)."""
    grad = np.asarray(grad)
    x = np.asarray(x)
    if grad.shape[-1] != weights.shape[0]:
        raise ShapeError(f"upstream grad width {grad.shape[-1]} != {weights.shape[0]} outputs")
    return grad @ weights, grad.T @ x, grad.sum(axis=0)


def relu(x: np.ndarray) -> np.ndarray:
    """Elementwise max(0, x)."""
    return np.maximum(np.asarray(x), 0)


def relu_backward(grad: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Pass gradient where the forward input was positive, +0.0 elsewhere.

    The result takes x's memory layout: a conv output is (B, L, O) in
    memory, and conv1d_backward reads its gradient in that order. The
    mask multiplies the float's bit pattern as an integer by 0 or 1, so
    every value equals np.where(x > 0, grad, 0) bit for bit: -0.0 and
    NaN pass unchanged, and a masked inf or negative gradient becomes
    +0.0, where a float multiply by 0 would give NaN or -0.0.
    """
    grad, x = np.asarray(grad), np.asarray(x)
    d = np.empty_like(x, dtype=grad.dtype)
    d[...] = grad
    bits = d.view(f"i{d.itemsize}")
    bits *= x > 0
    return d


def softmax(logits: np.ndarray) -> np.ndarray:
    """Max-shifted exponentials normalized along the last axis."""
    z = np.asarray(logits)
    if not np.all(np.isfinite(z)):
        raise NumericError("non-finite logits in softmax")
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def concat_channels(inputs: list[np.ndarray]) -> np.ndarray:
    """Stack tensors along the channel axis, in input order."""
    if not inputs:
        raise ShapeError("concat_channels needs at least one input")
    lengths = {np.asarray(a).shape[-1] for a in inputs}
    if len(lengths) != 1:
        raise ShapeError(f"inputs disagree on length: {sorted(lengths)}")
    return np.concatenate([np.asarray(a) for a in inputs], axis=-2)


def split_channels(x: np.ndarray, sizes: list[int]) -> list[np.ndarray]:
    """Inverse of concat_channels for known per-block channel counts."""
    if sum(sizes) != x.shape[-2]:
        raise ShapeError(f"sizes sum to {sum(sizes)}, input has {x.shape[-2]} channels")
    return np.split(x, np.cumsum(sizes)[:-1], axis=-2)


def dropout(x: np.ndarray, rate: float, rng: np.random.Generator,
            training: bool) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """Inverted dropout: zero with probability `rate`, scale survivors by 1/(1-rate).

    Returns (out, mask). The mask is the pre-scaled keep-mask, which the
    backward pass replays for the exact same thinning; it is None where
    dropout is the identity (outside training mode, or at rate 0).
    """
    if not 0.0 <= rate < 1.0:
        raise ConfigError(f"dropout rate must be in [0, 1), got {rate}")
    x = np.asarray(x)
    if not training or rate == 0.0:
        return x, None
    keep = rng.random(x.shape) >= rate
    mask = keep.astype(x.dtype) / (1.0 - rate)
    return x * mask, mask


def dropout_backward(grad: np.ndarray, mask: Optional[np.ndarray]) -> np.ndarray:
    """Apply dropout's returned mask to the upstream gradient (None passes it)."""
    grad = np.asarray(grad)
    if mask is None:
        return grad
    if mask.shape != grad.shape:
        raise ShapeError(f"grad shape {grad.shape} != mask {mask.shape}")
    return grad * mask


# ---------------------------------------------------------------------------
# fused softmax + cross-entropy

def softmax_xent(logits: np.ndarray, labels: np.ndarray,
                 class_weights: Optional[np.ndarray] = None,
                 ) -> tuple[float, np.ndarray]:
    """Mean weighted cross-entropy over a batch, with its fused gradient.

    logits are (B, F) and labels (B,) 0-based class indices. Returns
    (loss, d_logits); d_logits is w_y * (softmax - onehot) / B, computed
    via a stable log-sum-exp so the loss never sees log(0).
    """
    z = np.asarray(logits)
    labels = np.asarray(labels)
    if z.ndim != 2:
        raise ShapeError(f"softmax_xent expects (B, F) logits, got rank {z.ndim}")
    b, f = z.shape
    if b == 0:
        raise ShapeError("empty label batch")
    if labels.shape != (b,):
        raise ShapeError(f"expected {b} labels, got shape {labels.shape}")
    if labels.min() < 0 or labels.max() >= f:
        raise ShapeError(f"labels must lie in [0, {f - 1}]")

    d_logits = softmax(z)  # first: non-finite logits raise before any arithmetic
    m = z.max(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(np.exp(z - m).sum(axis=1))
    log_p_true = z[np.arange(b), labels] - lse
    w = np.ones(b, dtype=z.dtype) if class_weights is None else \
        np.asarray(class_weights, dtype=z.dtype)[labels]
    loss = float(np.mean(-w * log_p_true))

    d_logits[np.arange(b), labels] -= 1.0
    d_logits *= (w / b)[:, None]
    return loss, d_logits


# ---------------------------------------------------------------------------
# finite differences

def finite_diff_check(loss_fn: Callable[[dict], float], params: dict,
                      analytic: dict) -> tuple[float, str]:
    """Compare analytic gradients against central differences.

    Perturbs every element of every parameter by +/- h = 1e-5, numerically
    differentiates loss_fn, and returns (worst relative error, id of the
    worst parameter). Run at float64: the 1e-4 tolerance this supports
    is unreachable at float32.
    """
    h = 1e-5
    worst, worst_id = 0.0, ""
    for name, p in params.items():
        if name not in analytic:
            raise ConfigError(f"no analytic gradient supplied for {name!r}")
        flat_p = p.reshape(-1)
        flat_g = analytic[name].reshape(-1)
        for i in range(flat_p.size):
            saved = flat_p[i]
            flat_p[i] = saved + h
            loss_plus = loss_fn(params)
            flat_p[i] = saved - h
            loss_minus = loss_fn(params)
            flat_p[i] = saved
            numeric = (loss_plus - loss_minus) / (2.0 * h)
            err = abs(numeric - flat_g[i]) / max(abs(numeric) + abs(flat_g[i]), 1e-6)
            if err > worst:
                worst, worst_id = err, f"{name}[{i}]"
    return worst, worst_id
