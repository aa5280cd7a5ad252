"""Native CPU implementations of every operation the framework supports.

These are the reference semantics: the Simulated* layers must produce
outputs matching these functions (Section V, functional validation). The
convolution here is computed directly over receptive-field windows with
``einsum`` — a different lowering and accumulation order than the
simulator's im2col GEMM — so agreement between the two paths is a
meaningful check rather than a tautology.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import ConfigurationError


def _windows(x: np.ndarray, r: int, s: int, stride: int) -> np.ndarray:
    """View of all (r x s) sliding windows: (n, c, xo, yo, r, s)."""
    n, c, h, w = x.shape
    xo = (h - r) // stride + 1
    yo = (w - s) // stride + 1
    st = x.strides
    return np.lib.stride_tricks.as_strided(
        x,
        shape=(n, c, xo, yo, r, s),
        strides=(st[0], st[1], st[2] * stride, st[3] * stride, st[2], st[3]),
        writeable=False,
    )


def pad2d(x: np.ndarray, padding: int) -> np.ndarray:
    if padding == 0:
        return x
    return np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))


def conv2d(
    x: np.ndarray,
    weight: np.ndarray,
    bias: Optional[np.ndarray] = None,
    stride: int = 1,
    padding: int = 0,
    groups: int = 1,
) -> np.ndarray:
    """Direct 2-D convolution (cross-correlation, as in every DL framework).

    ``x``: (N, C, H, W); ``weight``: (K, C/groups, R, S).
    """
    x = np.asarray(x, dtype=np.float32)
    weight = np.asarray(weight, dtype=np.float32)
    if x.ndim != 4 or weight.ndim != 4:
        raise ConfigurationError("conv2d expects 4-D input and weight")
    k_total, c_g, r, s = weight.shape
    n, c_total, _h, _w = x.shape
    if c_total != c_g * groups or k_total % groups:
        raise ConfigurationError(
            f"group mismatch: x {x.shape}, w {weight.shape}, groups {groups}"
        )
    x = pad2d(x, padding)
    k_g = k_total // groups
    outputs = []
    for g in range(groups):
        xg = x[:, g * c_g : (g + 1) * c_g]
        wg = weight[g * k_g : (g + 1) * k_g]
        win = _windows(xg, r, s, stride)
        outputs.append(np.einsum("ncxyrs,kcrs->nkxy", win, wg, optimize=True))
    out = np.concatenate(outputs, axis=1).astype(np.float32)
    if bias is not None:
        out += np.asarray(bias, dtype=np.float32)[None, :, None, None]
    return out


def linear(
    x: np.ndarray, weight: np.ndarray, bias: Optional[np.ndarray] = None
) -> np.ndarray:
    """Fully-connected layer: ``x @ weight.T + bias``.

    ``x``: (..., in_features); ``weight``: (out_features, in_features).
    """
    out = np.asarray(x, dtype=np.float32) @ np.asarray(weight, dtype=np.float32).T
    if bias is not None:
        out = out + np.asarray(bias, dtype=np.float32)
    return out.astype(np.float32)


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0).astype(np.float32, copy=False)


def maxpool2d(x: np.ndarray, pool: int, stride: Optional[int] = None) -> np.ndarray:
    stride = stride or pool
    win = _windows(np.asarray(x, dtype=np.float32), pool, pool, stride)
    return win.max(axis=(4, 5)).astype(np.float32)


def avgpool2d(x: np.ndarray, pool: int, stride: Optional[int] = None) -> np.ndarray:
    stride = stride or pool
    win = _windows(np.asarray(x, dtype=np.float32), pool, pool, stride)
    return win.mean(axis=(4, 5)).astype(np.float32)


def global_avgpool2d(x: np.ndarray) -> np.ndarray:
    return np.asarray(x, dtype=np.float32).mean(axis=(2, 3)).astype(np.float32)


def batchnorm2d(
    x: np.ndarray,
    mean: np.ndarray,
    var: np.ndarray,
    gamma: np.ndarray,
    beta: np.ndarray,
    eps: float = 1e-5,
) -> np.ndarray:
    """Inference-mode batch normalization using stored statistics."""
    scale = gamma / np.sqrt(var + eps)
    shift = beta - mean * scale
    out = x * scale[None, :, None, None]
    out += shift[None, :, None, None]
    return out.astype(np.float32, copy=False)


def layernorm(
    x: np.ndarray, gamma: np.ndarray, beta: np.ndarray, eps: float = 1e-5
) -> np.ndarray:
    """Layer normalization over the last dimension."""
    mean = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return ((x - mean) / np.sqrt(var + eps) * gamma + beta).astype(np.float32)


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = x - x.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return (exp / exp.sum(axis=axis, keepdims=True)).astype(np.float32)


def log_softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = x - x.max(axis=axis, keepdims=True)
    return (shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))).astype(
        np.float32
    )
