"""Memory hierarchy and memory controllers (paper Section IV-B).

The hierarchy is the typical DNN-accelerator three-level stack: local
storage (the network FIFOs of :mod:`repro.noc`), an on-chip Global Buffer,
and off-chip DRAM with double-buffered prefetching. Data orchestration
between the GB and the networks is performed by a *memory controller*
selected by the user:

- :class:`~repro.memory.dense_controller.DenseController` — mRNA-inspired
  fixed-tile orchestration with folding (used by TPU-like and MAERI-like
  instances).
- :class:`~repro.memory.sparse_controller.SparseController` — GEMM
  orchestration over bitmap/CSR compressed operands with dynamic cluster
  sizes (used by SIGMA-like instances).

Controllers use internal counters to produce the exact address streams, in
the spirit of Buffets, and advance the fabric a phase at a time, with the
cycles a one-clock loop would take.
"""

from repro.memory.dense_controller import DenseController, DenseRunResult
from repro.memory.dram import Dram
from repro.memory.global_buffer import GlobalBuffer
from repro.memory.sparse_controller import (
    ScheduleMemoInfo,
    SparseController,
    SparseRunResult,
    SparseTiming,
    clear_schedule_memo,
    schedule_memo_info,
)

__all__ = [
    "DenseController",
    "DenseRunResult",
    "Dram",
    "GlobalBuffer",
    "ScheduleMemoInfo",
    "SparseController",
    "SparseRunResult",
    "SparseTiming",
    "clear_schedule_memo",
    "schedule_memo_info",
]
