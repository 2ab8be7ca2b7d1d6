"""Dense 1D layer kernels: forward passes, exact analytic backward passes,
and a finite-difference harness to verify them.

Arrays are plain numpy ndarrays, row-major, float32 in production and
float64 for gradient checks. Log windows are laid out channels-first:
(channels, length), or (batch, channels, length) for batched calls.
Every op accepts either rank and preserves it. Convolutions are
same-padded, so they keep the length.

All functions are pure: state a backward pass needs is returned
explicitly as a cache, never stored on a module or instance.
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, NumericError, ShapeError

def _batched(x: np.ndarray, op: str) -> tuple[np.ndarray, bool]:
    """Promote (C, L) to (1, C, L); remember whether to squeeze on return."""
    x = np.asarray(x)
    if x.ndim == 2:
        return x[None], True
    if x.ndim == 3:
        return x, False
    raise ShapeError(f"{op} expects a (C, L) or (B, C, L) array, got rank {x.ndim}")


@dataclass
class LayerCache:
    """Saved forward-pass state a layer needs for its backward pass."""

    positions: Optional[np.ndarray] = None  # max-pool argmax, padded coords
    pad_left: int = 0
    in_length: int = 0
    padded_length: int = 0
    mask: Optional[np.ndarray] = None       # dropout keep-mask, pre-scaled
    squeeze: bool = False


# ---------------------------------------------------------------------------
# convolution

def conv1d(x: np.ndarray, kernels: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Cross-correlate along the length axis, same-padded.

    out[o, t] = sum_c sum_k x[c, t + k - (K-1)/2] * kernels[o, c, k] + bias[o]

    Zero-pads (K-1)/2 samples each side, so the length is preserved.
    K must be odd.
    """
    xb, squeeze = _batched(x, "conv1d")
    kernels = np.asarray(kernels)
    bias = np.asarray(bias)
    if kernels.ndim != 3:
        raise ShapeError(f"kernels must be (C_out, C_in, K), got rank {kernels.ndim}")
    n_out, n_in, k = kernels.shape
    if k % 2 == 0:
        raise ShapeError(f"kernel length must be odd, got {k}")
    if xb.shape[1] != n_in:
        raise ShapeError(f"input has {xb.shape[1]} channels, kernels expect {n_in}")
    if bias.shape != (n_out,):
        raise ShapeError(f"bias must have shape ({n_out},), got {bias.shape}")

    pad = (k - 1) // 2
    xp = np.pad(xb, ((0, 0), (0, 0), (pad, pad))) if pad else xb
    out = _correlate(xp, kernels) + bias[:, None]
    return out[0] if squeeze else out


def _correlate(xp: np.ndarray, kernels: np.ndarray) -> np.ndarray:
    """Valid-mode stride-1 correlation of (B, C, Lp) with (O, C, K) -> (B, O, Lo)."""
    b, c, lp = xp.shape
    n_out, _, k = kernels.shape
    lo = lp - k + 1
    col = sliding_window_view(xp, k, axis=2)          # (B, C, Lo, K) view
    col = col.transpose(0, 2, 1, 3).reshape(b * lo, c * k)
    out = col @ kernels.reshape(n_out, c * k).T       # (B*Lo, O)
    return out.reshape(b, lo, n_out).transpose(0, 2, 1)


def conv1d_backward(grad: np.ndarray, x: np.ndarray,
                    kernels: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of the same-padded conv1d: returns (d_input, d_kernels, d_bias)."""
    xb, squeeze = _batched(x, "conv1d_backward")
    gb, _ = _batched(grad, "conv1d_backward")
    n_out, n_in, k = kernels.shape
    pad = (k - 1) // 2
    xp = np.pad(xb, ((0, 0), (0, 0), (pad, pad))) if pad else xb
    b, _, lp = xp.shape
    lo = lp - k + 1
    if gb.shape != (b, n_out, lo):
        raise ShapeError(f"upstream grad shape {gb.shape} != forward output {(b, n_out, lo)}")

    g2 = gb.transpose(0, 2, 1).reshape(b * lo, n_out)
    d_bias = g2.sum(axis=0)
    col = sliding_window_view(xp, k, axis=2).transpose(0, 2, 1, 3).reshape(b * lo, n_in * k)
    d_kernels = (g2.T @ col).reshape(n_out, n_in, k)

    d_col = (g2 @ kernels.reshape(n_out, n_in * k)).reshape(b, lo, n_in, k)
    d_xp = np.zeros_like(xp)
    for j in range(k):
        d_xp[:, :, j:j + lo] += d_col[:, :, :, j].transpose(0, 2, 1)
    d_x = d_xp[:, :, pad:pad + xb.shape[2]] if pad else d_xp
    return (d_x[0] if squeeze else d_x), d_kernels, d_bias


# ---------------------------------------------------------------------------
# pooling

def pool1d(x: np.ndarray, kernel: int, stride: int,
           padding: str = "valid") -> tuple[np.ndarray, LayerCache]:
    """Max-pool along the length axis.

    "valid" emits ceil((L - kernel)/stride) + 1 windows; a trailing
    window shorter than `kernel` still contributes its max. "same"
    edge-replicates kernel-1 samples so stride 1 preserves the length.
    The cache records the argmax position of every window.
    """
    xb, squeeze = _batched(x, "pool1d")
    if kernel < 1 or stride < 1:
        raise ShapeError(f"kernel and stride must be >= 1, got {kernel}, {stride}")

    length = xb.shape[2]
    if padding == "same":
        pad_left = (kernel - 1) // 2
        pad_right = kernel - 1 - pad_left
        xp = np.pad(xb, ((0, 0), (0, 0), (pad_left, pad_right)), mode="edge")
    elif padding == "valid":
        if length < kernel:
            raise ShapeError(f"input length {length} shorter than pool kernel {kernel}")
        pad_left = 0
        xp = xb
    else:
        raise ConfigError(f"unknown padding {padding!r}")

    lp = xp.shape[2]
    n_full = (lp - kernel) // stride + 1
    win = sliding_window_view(xp, kernel, axis=2)[:, :, ::stride]  # (B, C, n_full, kernel)
    vals = win.max(axis=3)
    pos = np.arange(n_full) * stride + win.argmax(axis=3)
    if (lp - kernel) % stride:
        start = n_full * stride
        tail = xp[:, :, start:]
        vals = np.concatenate([vals, tail.max(axis=2)[..., None]], axis=2)
        pos = np.concatenate([pos, (start + tail.argmax(axis=2))[..., None]], axis=2)

    cache = LayerCache(positions=pos, pad_left=pad_left,
                       in_length=length, padded_length=lp, squeeze=squeeze)
    return (vals[0] if squeeze else vals), cache


def pool1d_backward(grad: np.ndarray, cache: LayerCache) -> np.ndarray:
    """Route each window's upstream gradient to its argmax sample."""
    gb, _ = _batched(grad, "pool1d_backward")
    pos = cache.positions
    if gb.shape != pos.shape:
        raise ShapeError(f"upstream grad shape {gb.shape} != pooled shape {pos.shape}")
    b, c, _ = gb.shape
    lp = cache.padded_length
    d_xp = np.zeros((b * c, lp), dtype=gb.dtype)
    rows = np.repeat(np.arange(b * c), pos.shape[2])
    np.add.at(d_xp, (rows, pos.reshape(-1)), gb.reshape(-1))
    d_xp = d_xp.reshape(b, c, lp)

    pad, length = cache.pad_left, cache.in_length
    if lp == length:
        d_x = d_xp
    else:
        # fold edge-replicated pad columns back onto the boundary samples
        d_x = d_xp[:, :, pad:pad + length].copy()
        d_x[:, :, 0] += d_xp[:, :, :pad].sum(axis=2)
        d_x[:, :, -1] += d_xp[:, :, pad + length:].sum(axis=2)
    return d_x[0] if cache.squeeze else d_x


# ---------------------------------------------------------------------------
# dense, relu, softmax, concat, dropout

def dense(x: np.ndarray, weights: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Affine map: weights (M, N) applied to (N,) or (B, N) input."""
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
    """Pass gradient where the forward input was positive."""
    return np.where(np.asarray(x) > 0, grad, 0)


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
            training: bool) -> tuple[np.ndarray, LayerCache]:
    """Inverted dropout: zero with probability `rate`, scale survivors by 1/(1-rate).

    Identity outside training mode. The pre-scaled keep-mask is cached
    so the backward pass replays the exact same thinning.
    """
    if not 0.0 <= rate < 1.0:
        raise ConfigError(f"dropout rate must be in [0, 1), got {rate}")
    x = np.asarray(x)
    if not training or rate == 0.0:
        return x, LayerCache()
    keep = rng.random(x.shape) >= rate
    mask = keep.astype(x.dtype) / (1.0 - rate)
    return x * mask, LayerCache(mask=mask)


def dropout_backward(grad: np.ndarray, cache: LayerCache) -> np.ndarray:
    """Apply the cached mask and scale to the upstream gradient."""
    if cache.mask is None:
        return np.asarray(grad)
    if cache.mask.shape != np.asarray(grad).shape:
        raise ShapeError(f"grad shape {np.asarray(grad).shape} != mask {cache.mask.shape}")
    return grad * cache.mask


# ---------------------------------------------------------------------------
# fused softmax + cross-entropy

def softmax_xent(logits: np.ndarray, labels: np.ndarray,
                 class_weights: Optional[np.ndarray] = None,
                 ) -> tuple[float, np.ndarray]:
    """Mean weighted cross-entropy over a batch, with its fused gradient.

    labels are 0-based class indices. Returns (loss, d_logits);
    d_logits is w_y * (softmax - onehot) / B, computed via a stable
    log-sum-exp so the loss never sees log(0).
    """
    z = np.atleast_2d(np.asarray(logits))
    labels = np.atleast_1d(np.asarray(labels))
    b, f = z.shape
    if b == 0:
        raise ShapeError("empty label batch")
    if labels.shape != (b,):
        raise ShapeError(f"expected {b} labels, got shape {labels.shape}")
    if labels.min() < 0 or labels.max() >= f:
        raise ShapeError(f"labels must lie in [0, {f - 1}]")

    m = z.max(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(np.exp(z - m).sum(axis=1))
    log_p_true = z[np.arange(b), labels] - lse
    w = np.ones(b, dtype=z.dtype) if class_weights is None else \
        np.asarray(class_weights, dtype=z.dtype)[labels]
    loss = float(np.mean(-w * log_p_true))

    d_logits = softmax(z)
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
