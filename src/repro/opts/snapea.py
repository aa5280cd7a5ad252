"""SNAPEA: predictive early activation (use case 2, a back-end extension).

SNAPEA exploits a CNN property: convolution inputs are non-negative (they
come out of a ReLU), so once a partial sum is non-positive and only
negative weights remain, the final output is guaranteed non-positive and
the following ReLU will zero it — the remaining multiply-accumulates and
their memory accesses can be cut off. The *exact mode* reproduced here:

1. A prior-simulation front-end pass statically reorders each filter's
   weights by sign (positives first, descending) and builds the index
   table matching each reordered weight with its activation.
2. A modified memory controller delivers operands in that order.
3. The accumulation logic performs a single-bit sign check per psum; when
   the psum drops to <= 0 with only negative weights left, the output is
   terminated early.

Termination decisions are *data dependent* — they need the real weight
and activation values, which is why this optimization demonstrates the
value of full-model simulation. The sign argument only holds for
non-negative inputs, so the engine applies early termination per layer
only when the layer's input tensor is verifiably non-negative (the first
convolution of a network sees raw images and runs unterminated, exactly
as in SNAPEA).

:class:`SnapeaContext` duck-types
:class:`~repro.frontend.simulated.SimulationContext`, so a model is
attached with :func:`repro.frontend.attach_context` and every convolution
runs through the SNAPEA timing model. ``early_termination=False`` gives
the paper's *Baseline* (the same 64-PE architecture without the negative
detection logic).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.tensors.im2col import col2im_output, im2col

#: per-layer configuration cost, matching the dense controller
LAYER_SETUP_CYCLES = 4

# SNAPEA energy table (derived from the published SNAPEA numbers):
# per-MAC energy, per-operand-fetch energy, static power.
_MAC_PJ = 0.9
_ACCESS_PJ = 2.5
_STATIC_MW = 1.5
_SIGN_CHECK_PJ = 0.05


@dataclass(frozen=True)
class SnapeaLayerStats:
    """Per-layer telemetry of one SNAPEA (or baseline) execution."""

    name: str
    cycles: int
    ops: int
    dense_ops: int
    mem_accesses: int
    outputs: int
    terminated_outputs: int

    @property
    def ops_saved_fraction(self) -> float:
        return 1.0 - self.ops / self.dense_ops if self.dense_ops else 0.0


class SnapeaContext:
    """Simulation context for the 64-PE SNAPEA architecture.

    Each PE owns a MAC lane and computes whole dot products serially (one
    multiply-accumulate per cycle), the organization of the SNAPEA paper;
    outputs are assigned to lanes round-robin and a layer finishes when
    its slowest lane drains.
    """

    def __init__(
        self,
        num_pes: int = 64,
        bandwidth: int = 64,
        early_termination: bool = True,
        clock_ghz: float = 1.0,
        mode: str = "exact",
        threshold: float = 0.0,
        window_fraction: float = 0.3,
    ) -> None:
        if num_pes < 1 or bandwidth < 1:
            raise ConfigurationError("SNAPEA needs positive PE count and bandwidth")
        if mode not in ("exact", "predictive"):
            raise ConfigurationError(
                f"SNAPEA mode must be 'exact' or 'predictive', got {mode!r}"
            )
        if mode == "predictive" and threshold < 0:
            raise ConfigurationError("the predictive threshold must be >= 0")
        if not 0.0 < window_fraction <= 1.0:
            raise ConfigurationError("window_fraction must be in (0, 1]")
        self.num_pes = num_pes
        self.bandwidth = bandwidth
        self.early_termination = early_termination
        self.clock_ghz = clock_ghz
        #: 'exact' cuts only provably-zero outputs; 'predictive' also cuts
        #: once the psum falls below ``-threshold`` mid-way through the
        #: negative tail, trading (tracked) mispredictions for more savings
        #: — SNAPEA's approximate operating points.
        self.mode = mode
        self.threshold = threshold
        #: fraction of the dot product computed before the predictive check
        self.window_fraction = window_fraction
        self.layers: List[SnapeaLayerStats] = []
        #: outputs zeroed by predictive cuts whose exact value was positive
        self.mispredicted_outputs = 0
        self._op_index = 0

    # ---- aggregate views -------------------------------------------------
    @property
    def total_cycles(self) -> int:
        return sum(layer.cycles for layer in self.layers)

    @property
    def total_ops(self) -> int:
        return sum(layer.ops for layer in self.layers)

    @property
    def total_mem_accesses(self) -> int:
        return sum(layer.mem_accesses for layer in self.layers)

    def total_energy_uj(self) -> float:
        return snapea_energy_uj(
            self.total_ops,
            self.total_mem_accesses,
            self.total_cycles,
            sign_checks=self.total_ops if self.early_termination else 0,
            clock_ghz=self.clock_ghz,
        )

    # ---- SimulationContext protocol ----------------------------------------
    def conv(self, module, x: np.ndarray) -> np.ndarray:
        self._op_index += 1
        name = f"{self._op_index:03d}-{module.name}"
        weights = module.weight.data
        k_total, c_g, r, s = weights.shape
        groups = module.groups
        k_g = k_total // groups
        x = np.asarray(x, dtype=np.float32)
        n = x.shape[0]

        bias = (
            module.bias.data if module.bias is not None
            else np.zeros(k_total, dtype=np.float32)
        )
        terminate = self.early_termination and bool((x >= 0).all())
        outputs = []
        lengths_parts = []
        dot = c_g * r * s
        # one unfold for all groups; a group's columns are a row slice
        all_cols = im2col(x, r, s, module.stride, module.padding)
        for g in range(groups):
            cols = all_cols[g * dot : (g + 1) * dot]
            w2d = weights[g * k_g : (g + 1) * k_g].reshape(k_g, -1)
            gemm_g = w2d @ cols
            lengths_g, predicted_zero = self._termination_lengths(
                w2d, cols, terminate, bias[g * k_g : (g + 1) * k_g]
            )
            if predicted_zero is not None:
                # predictive hardware zeroes every predicted output; track
                # the ones whose exact pre-activation was actually positive
                self.mispredicted_outputs += int(
                    (predicted_zero & (gemm_g + bias[g * k_g : (g + 1) * k_g,
                                                     None] > 0)).sum()
                )
                gemm_g = np.where(
                    predicted_zero,
                    -bias[g * k_g : (g + 1) * k_g, None],
                    gemm_g,
                )
            outputs.append(gemm_g)
            lengths_parts.append(lengths_g)
        gemm_out = np.concatenate(outputs, axis=0)
        lengths = np.concatenate([part.ravel() for part in lengths_parts])

        x_out = (x.shape[2] + 2 * module.padding - r) // module.stride + 1
        y_out = (x.shape[3] + 2 * module.padding - s) // module.stride + 1
        out = col2im_output(gemm_out, n, x_out, y_out)

        self._record_layer(name, lengths, dot, int(gemm_out.size), int(x.size))
        return out.astype(np.float32)

    def linear(self, module, x: np.ndarray) -> np.ndarray:
        """Fully-connected layers run unterminated (SNAPEA targets convs)."""
        self._op_index += 1
        name = f"{self._op_index:03d}-{module.name}"
        x = np.asarray(x, dtype=np.float32)
        lead = x.shape[:-1]
        flat = x.reshape(-1, x.shape[-1])
        out = flat @ module.weight.data.T
        dot = module.in_features
        lengths = np.full(out.size, dot, dtype=np.int64)
        self._record_layer(name, lengths, dot, int(out.size), int(flat.size))
        return out.reshape(*lead, module.out_features).astype(np.float32)

    def matmul(self, a: np.ndarray, b: np.ndarray, name: str = "matmul") -> np.ndarray:
        self._op_index += 1
        out = (np.asarray(a, np.float32) @ np.asarray(b, np.float32)).astype(np.float32)
        lengths = np.full(out.size, a.shape[-1], dtype=np.int64)
        self._record_layer(
            f"{self._op_index:03d}-{name}", lengths, a.shape[-1], out.size,
            int(np.asarray(a).size + np.asarray(b).size),
        )
        return out

    def maxpool(self, module, x: np.ndarray) -> np.ndarray:
        from repro.frontend import functional as F

        self._op_index += 1
        out = F.maxpool2d(x, module.pool, module.stride)
        comparisons = out.size * module.pool * module.pool
        cycles = LAYER_SETUP_CYCLES + math.ceil(comparisons / self.num_pes)
        self.layers.append(
            SnapeaLayerStats(
                name=f"{self._op_index:03d}-{module.name}",
                cycles=cycles,
                ops=0,
                dense_ops=0,
                mem_accesses=comparisons + out.size,
                outputs=out.size,
                terminated_outputs=0,
            )
        )
        return out

    # ---- internals -----------------------------------------------------
    def _termination_lengths(
        self,
        w2d: np.ndarray,
        cols: np.ndarray,
        terminate: bool,
        bias: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Per-output effective dot-product lengths, (K, n_outputs).

        Weights are statically reordered per SNAPEA: positive weights
        first (descending), then negative weights most-negative first so
        the psum crosses zero as early as possible. The psum starts at the
        filter's bias — after BN folding this carries the normalization
        shift, exactly what the hardware's accumulator would hold.

        Each filter's reordered products are formed in one float32 buffer
        and summed in place; the bias is added afterwards, and only to the
        rows a check reads (from the last positive product on, and in
        predictive mode from row ``window - 1`` on). Float32 addition
        commutes and the running sums keep their order, so every length
        and mask is bit-identical to adding the bias to the whole running
        sum. The cut is one ``argmax`` down the checked rows plus a gather
        of the row it lands on.

        Returns ``(lengths, predicted_zero_mask)``; the mask is ``None``
        in exact mode and marks the outputs a *predictive* check cut
        (which the caller zeroes, SNAPEA's approximate operating point).
        """
        k, dot = w2d.shape
        n_out = cols.shape[1]
        lengths = np.full((k, n_out), dot, dtype=np.int64)
        predictive = self.mode == "predictive"
        predicted_zero = (
            np.zeros((k, n_out), dtype=bool) if predictive and terminate else None
        )
        if not terminate or dot == 1:
            return lengths, predicted_zero
        if bias is None:
            bias = np.zeros(k, dtype=np.float32)
        window = max(1, int(round(dot * self.window_fraction)))
        csum = np.empty((dot, n_out), dtype=np.result_type(w2d, cols))
        columns = np.arange(n_out)
        for f in range(k):
            w = w2d[f]
            pos = np.where(w > 0)[0]
            neg = np.where(w <= 0)[0]
            order = np.concatenate(
                [pos[np.argsort(-w[pos], kind="stable")],
                 neg[np.argsort(w[neg], kind="stable")]]
            )
            npos = len(pos)
            # the first row the exact check reads (the last positive
            # product's), and the first row any check reads
            start = max(npos - 1, 0) if npos < dot else dot
            biased = min(start, window - 1) if predictive else start
            # mode="clip" writes straight into `out` (indices are in range)
            np.take(cols, order, axis=0, out=csum, mode="clip")
            csum *= w[order][:, None]
            np.cumsum(csum, axis=0, out=csum)
            csum[biased:] += bias[f]
            if npos < dot:
                region = csum[start:] <= 0.0
                first = region.argmax(axis=0)
                lengths[f] = np.where(
                    region[first, columns], start + first + 1, dot
                )
            if predictive:
                # single-check prediction after the first `window` MACs
                predicted = csum[window - 1] < self.threshold
                cut_now = predicted & (lengths[f] > window)
                lengths[f] = np.where(cut_now, window, lengths[f])
                predicted_zero[f] = cut_now
        return lengths, predicted_zero

    def _record_layer(
        self,
        name: str,
        lengths: np.ndarray,
        dot: int,
        n_outputs: int,
        input_elements: int,
    ) -> None:
        lanes = np.bincount(
            np.arange(lengths.size) % self.num_pes,
            weights=lengths.astype(np.float64),
            minlength=self.num_pes,
        )
        makespan = int(lanes.max()) if lengths.size else 0
        ops = int(lengths.sum())
        # operand delivery is double-buffered behind compute; it only binds
        # when the per-cycle operand demand exceeds the GB bandwidth
        delivery = math.ceil(2 * ops / self.bandwidth)
        cycles = LAYER_SETUP_CYCLES + max(makespan, delivery) + dot.bit_length()
        # Weight fetches stop at the termination point; input activations
        # are staged once into the on-chip buffer and their fetch count is
        # unaffected by early termination (which is why the paper's memory
        # savings trail its compute savings).
        mem = ops + input_elements + n_outputs
        self.layers.append(
            SnapeaLayerStats(
                name=name,
                cycles=cycles,
                ops=ops,
                dense_ops=dot * n_outputs,
                mem_accesses=mem,
                outputs=n_outputs,
                terminated_outputs=int((lengths < dot).sum()),
            )
        )


def snapea_energy_uj(
    ops: int,
    mem_accesses: int,
    cycles: int,
    sign_checks: int = 0,
    clock_ghz: float = 1.0,
) -> float:
    """Energy of a SNAPEA/baseline execution from the published-style table."""
    dynamic_pj = ops * _MAC_PJ + mem_accesses * _ACCESS_PJ + sign_checks * _SIGN_CHECK_PJ
    seconds = cycles / (clock_ghz * 1e9)
    static_uj = _STATIC_MW * seconds * 1e3
    return dynamic_pj / 1e6 + static_uj
