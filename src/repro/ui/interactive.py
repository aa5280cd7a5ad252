"""The interactive STONNE User Interface prompt.

The paper describes it as "a tool inside STONNE in which the user is
presented with a prompt and a set of well-defined commands to load any
layer and tile parameters onto a selected instance of the simulator, and
run it with random weights and input values".

Commands
--------

``arch <tpu|maeri|sigma> [num_ms] [bandwidth]``
    Select/instantiate the accelerator.
``conv R S C K G N X Y [stride]``
    Load a convolution layer's parameters.
``gemm M N K [sparsity]``
    Load a GEMM's parameters.
``tile T_R T_S T_C T_G T_K T_N T_X T_Y``
    Force a tile for the next run (dense fabrics).
``run``
    Simulate the loaded layer with random tensors and print statistics.
``stats``
    Print the accumulated JSON report.
``help`` / ``quit``

The loop reads from an input stream and writes to an output stream so the
whole interface is unit-testable without a TTY.
"""

from __future__ import annotations

import sys
from typing import IO, List, Optional

import numpy as np

from repro.config import (
    ConvLayerSpec,
    GemmSpec,
    TileConfig,
    preset,
)
from repro.engine.accelerator import Accelerator
from repro.errors import StonneError

_PROMPT = "stonne> "

_HELP = """\
commands:
  arch <tpu|maeri|sigma> [num_ms] [bandwidth]   select the accelerator
  conv R S C K G N X Y [stride]                 load a convolution layer
  gemm M N K [sparsity]                         load a GEMM
  tile T_R T_S T_C T_G T_K T_N T_X T_Y          force a tile (dense only)
  run                                           simulate with random tensors
  stats                                         print the JSON report
  help                                          this text
  quit                                          leave the prompt"""


class InteractiveSession:
    """One prompt session bound to input/output streams."""

    def __init__(
        self,
        stdin: Optional[IO] = None,
        stdout: Optional[IO] = None,
        seed: int = 0,
    ) -> None:
        self._in = stdin if stdin is not None else sys.stdin
        self._out = stdout if stdout is not None else sys.stdout
        self._rng = np.random.default_rng(seed)
        self.accelerator: Optional[Accelerator] = None
        self._layer = None
        self._gemm = None
        self._sparsity = 0.0
        self._tile: Optional[TileConfig] = None

    # ------------------------------------------------------------------
    def _print(self, text: str) -> None:
        self._out.write(text + "\n")

    def run(self) -> None:
        """The read-eval-print loop."""
        self._print("STONNE User Interface — type 'help' for commands")
        while True:
            self._out.write(_PROMPT)
            self._out.flush()
            line = self._in.readline()
            if not line:
                break
            if not self.handle(line.strip()):
                break

    def handle(self, line: str) -> bool:
        """Execute one command line; returns False to end the session."""
        if not line or line.startswith("#"):
            return True
        parts = line.split()
        command, args = parts[0].lower(), parts[1:]
        try:
            if command in ("quit", "exit"):
                self._print("bye")
                return False
            if command == "help":
                self._print(_HELP)
            elif command == "arch":
                self._cmd_arch(args)
            elif command == "conv":
                self._cmd_conv(args)
            elif command == "gemm":
                self._cmd_gemm(args)
            elif command == "tile":
                self._cmd_tile(args)
            elif command == "run":
                self._cmd_run()
            elif command == "stats":
                self._cmd_stats()
            else:
                self._print(f"unknown command {command!r}; try 'help'")
        except (StonneError, ValueError, IndexError) as exc:
            self._print(f"error: {exc}")
        return True

    # ------------------------------------------------------------------
    def _cmd_arch(self, args: List[str]) -> None:
        if not args:
            raise ValueError("usage: arch <tpu|maeri|sigma> [num_ms] [bandwidth]")
        num_ms = int(args[1]) if len(args) > 1 else 256
        bandwidth = int(args[2]) if len(args) > 2 else None
        config = preset(args[0].lower(), num_ms, bandwidth)
        self.accelerator = Accelerator(config)
        self._print(f"instantiated {config.name} with {config.num_ms} MSs")

    def _cmd_conv(self, args: List[str]) -> None:
        if len(args) < 8:
            raise ValueError("usage: conv R S C K G N X Y [stride]")
        r, s, c, k, g, n, x, y = (int(v) for v in args[:8])
        stride = int(args[8]) if len(args) > 8 else 1
        self._layer = ConvLayerSpec(r=r, s=s, c=c, k=k, g=g, n=n, x=x, y=y,
                                    stride=stride, name="ui-conv")
        self._gemm = None
        self._print(
            f"loaded conv layer: {self._layer.num_macs} MACs, "
            f"{self._layer.num_outputs} outputs"
        )

    def _cmd_gemm(self, args: List[str]) -> None:
        if len(args) < 3:
            raise ValueError("usage: gemm M N K [sparsity]")
        m, n, k = (int(v) for v in args[:3])
        self._sparsity = float(args[3]) if len(args) > 3 else 0.0
        self._gemm = GemmSpec(m=m, n=n, k=k, name="ui-gemm")
        self._layer = None
        self._print(f"loaded GEMM: {self._gemm.num_macs} MACs")

    def _cmd_tile(self, args: List[str]) -> None:
        if len(args) != 8:
            raise ValueError("usage: tile T_R T_S T_C T_G T_K T_N T_X T_Y")
        keys = ("t_r", "t_s", "t_c", "t_g", "t_k", "t_n", "t_x", "t_y")
        self._tile = TileConfig(**dict(zip(keys, (int(v) for v in args))))
        self._print(f"tile set: cluster {self._tile.cluster_size} x "
                    f"{self._tile.num_clusters} clusters")

    def _cmd_run(self) -> None:
        if self.accelerator is None:
            raise ValueError("select an architecture first ('arch maeri 64 16')")
        acc = self.accelerator
        if self._layer is not None:
            layer = self._layer
            weights = self._rng.standard_normal(
                (layer.k * layer.g, layer.c, layer.r, layer.s)
            ).astype(np.float32)
            inputs = self._rng.standard_normal(
                (layer.n, layer.c * layer.g, layer.x, layer.y)
            ).astype(np.float32)
            acc.run_conv(weights, inputs, stride=layer.stride, groups=layer.g,
                         tile=self._tile, name=layer.name)
        elif self._gemm is not None:
            gemm = self._gemm
            a = self._rng.standard_normal((gemm.m, gemm.k)).astype(np.float32)
            if self._sparsity:
                from repro.tensors.pruning import magnitude_prune

                a = magnitude_prune(a, self._sparsity)
            b = self._rng.standard_normal((gemm.k, gemm.n)).astype(np.float32)
            if acc.sparse_controller is not None:
                acc.run_spmm(a, b, name=gemm.name)
            else:
                acc.run_gemm(a, b, tile=self._tile, name=gemm.name)
        else:
            raise ValueError("load a layer first ('conv ...' or 'gemm ...')")
        layer_report = acc.report.layers[-1]
        self._print(
            f"done: {layer_report.cycles} cycles, {layer_report.macs} MACs, "
            f"utilization {layer_report.multiplier_utilization:.3f}"
        )

    def _cmd_stats(self) -> None:
        if self.accelerator is None:
            raise ValueError("no accelerator instantiated yet")
        self._print(self.accelerator.report.to_json())


def run_interactive(stdin=None, stdout=None, seed: int = 0) -> int:
    """Entry point used by ``stonne interactive``."""
    InteractiveSession(stdin=stdin, stdout=stdout, seed=seed).run()
    return 0
