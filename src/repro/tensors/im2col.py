"""im2col lowering of convolutions to GEMM.

The sparse controller (and the SIGMA-like engine) operates on GEMMs; any
convolution is lowered first, exactly as the paper describes. The layout
convention is:

- activations: ``(N, C, X, Y)``
- weights: ``(K, C, R, S)``
- im2col column matrix: ``(C*R*S, N*X'*Y')`` so that
  ``weights.reshape(K, C*R*S) @ columns`` yields all outputs.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.errors import ConfigurationError


def conv2d_output_shape(
    x: int, y: int, r: int, s: int, stride: int = 1, padding: int = 0
) -> Tuple[int, int]:
    """Output spatial dimensions of a 2-D convolution."""
    x_out = (x + 2 * padding - r) // stride + 1
    y_out = (y + 2 * padding - s) // stride + 1
    if x_out < 1 or y_out < 1:
        raise ConfigurationError(
            f"convolution produces empty output: input {x}x{y}, filter "
            f"{r}x{s}, stride {stride}, padding {padding}"
        )
    return x_out, y_out


def im2col(
    activations: np.ndarray, r: int, s: int, stride: int = 1, padding: int = 0
) -> np.ndarray:
    """Unfold ``(N, C, X, Y)`` activations into a ``(C*R*S, N*X'*Y')`` matrix.

    Column ``n * (X'*Y') + i * Y' + j`` holds the receptive field of output
    pixel ``(i, j)`` of batch element ``n``, flattened in ``(C, R, S)``
    order — matching ``weights.reshape(K, C*R*S)`` row order.
    """
    if activations.ndim != 4:
        raise ConfigurationError(
            f"im2col expects a (N, C, X, Y) tensor, got shape {activations.shape}"
        )
    n, c, x, y = activations.shape
    x_out, y_out = conv2d_output_shape(x, y, r, s, stride, padding)
    if r == s == 1 and not padding:
        # a 1x1 window is one pixel: one strided, transposing copy
        columns = np.empty((c, n, x_out, y_out), dtype=activations.dtype)
        columns[...] = activations[:, :, ::stride, ::stride].transpose(1, 0, 2, 3)
        return columns.reshape(c, n * x_out * y_out)
    if padding:
        # hot path: an explicit zero canvas is several times faster than
        # np.pad and produces the identical array
        padded = np.zeros(
            (n, c, x + 2 * padding, y + 2 * padding),
            dtype=activations.dtype,
        )
        padded[:, :, padding:-padding, padding:-padding] = activations
        activations = padded

    # Gather all windows with stride tricks, then reorder to (C*R*S, N*XO*YO).
    strides = activations.strides
    windows = np.lib.stride_tricks.as_strided(
        activations,
        shape=(n, c, x_out, y_out, r, s),
        strides=(
            strides[0],
            strides[1],
            strides[2] * stride,
            strides[3] * stride,
            strides[2],
            strides[3],
        ),
        writeable=False,
    )
    # (n, c, xo, yo, r, s) -> (c, r, s, n, xo, yo) -> (c*r*s, n*xo*yo)
    columns = windows.transpose(1, 4, 5, 0, 2, 3).reshape(c * r * s, n * x_out * y_out)
    return np.ascontiguousarray(columns)


def col2im_output(gemm_output: np.ndarray, n: int, x_out: int, y_out: int) -> np.ndarray:
    """Fold a ``(K, N*X'*Y')`` GEMM result back into ``(N, K, X', Y')``."""
    k = gemm_output.shape[0]
    expected = n * x_out * y_out
    if gemm_output.shape[1] != expected:
        raise ConfigurationError(
            f"col2im: expected {expected} columns, got {gemm_output.shape[1]}"
        )
    return gemm_output.reshape(k, n, x_out, y_out).transpose(1, 0, 2, 3).copy()
