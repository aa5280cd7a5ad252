"""The Mapper (paper Fig. 2a).

Given the DNN layer type/shape to be executed and the configured
microarchitecture, the Mapper produces the signals the Configuration Unit
programs into the fabric: the tile (for dense executions) and the derived
cluster layout. Users may force an explicit tile, exactly like the paper's
per-layer tile configuration files; otherwise the mapper generates one
that fills the multiplier network.
"""

from __future__ import annotations

from typing import Optional

from repro.config.hardware import ControllerKind, HardwareConfig
from repro.config.layer import ConvLayerSpec, GemmSpec
from repro.config.tile import TileConfig, generate_conv_tile, generate_gemm_tile
from repro.errors import MappingError


class Mapper:
    """Chooses and validates tiles for the configured accelerator."""

    def __init__(self, config: HardwareConfig) -> None:
        self.config = config

    def tile_for_conv(
        self, layer: ConvLayerSpec, tile: Optional[TileConfig] = None
    ) -> TileConfig:
        if self.config.controller is ControllerKind.SPARSE:
            raise MappingError(
                "sparse accelerators execute convolutions as im2col GEMMs; "
                "use the SpMM path"
            )
        from repro.config.hardware import ReductionKind

        if tile is None:
            # a generated tile fits the layer and the fabric by construction
            chosen = generate_conv_tile(
                layer,
                self.config.num_ms,
                bandwidth=self.config.dn_bandwidth,
                forwarding=self.config.multiplier.has_forwarding_links,
                power_of_two_clusters=self.config.reduction is ReductionKind.RT,
            )
        else:
            chosen = tile
            chosen.validate_for(layer, self.config.num_ms)
        self._check_reduction(chosen)
        return chosen

    def tile_for_gemm(
        self, gemm: GemmSpec, tile: Optional[TileConfig] = None
    ) -> TileConfig:
        chosen = tile if tile is not None else generate_gemm_tile(
            gemm, self.config.num_ms, bandwidth=self.config.dn_bandwidth
        )
        self._check_reduction(chosen)
        return chosen

    def _check_reduction(self, tile: TileConfig) -> None:
        """Fixed-cluster RNs constrain the shapes a tile may take."""
        from repro.config.hardware import ReductionKind

        size = tile.cluster_size
        if self.config.reduction is ReductionKind.RT and size & (size - 1):
            raise MappingError(
                f"a plain reduction tree cannot reduce a {size}-wide cluster; "
                "choose a power-of-two tile"
            )
