"""Tile (mapping) configuration.

A tile is the paper's ``Tile(T_R, T_S, T_C, T_G, T_K, T_N, T_X', T_Y')``:
``T_R * T_S * T_C`` defines the dot-product (virtual neuron / cluster) size
mapped onto the multiplier network, while
``T_G * T_K * T_N * T_X' * T_Y'`` defines how many such clusters run in
parallel. When the cluster is smaller than the full filter
(``T_R*T_S*T_C < R*S*C``), the architecture must *fold*: the dot product is
processed in several sequential steps whose partial results accumulate at
the reduction-network boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.config.layer import ConvLayerSpec, GemmSpec
from repro.errors import ConfigurationError, MappingError


@dataclass(frozen=True)
class TileConfig:
    """One mapping of a convolution layer onto the multiplier fabric."""

    t_r: int = 1
    t_s: int = 1
    t_c: int = 1
    t_g: int = 1
    t_k: int = 1
    t_n: int = 1
    t_x: int = 1
    t_y: int = 1

    def __post_init__(self) -> None:
        for field_name in ("t_r", "t_s", "t_c", "t_g", "t_k", "t_n", "t_x", "t_y"):
            value = getattr(self, field_name)
            if not isinstance(value, int) or value < 1:
                raise ConfigurationError(
                    f"TileConfig.{field_name} must be a positive int, got {value!r}"
                )

    @property
    def cluster_size(self) -> int:
        """Multipliers used by one dot-product cluster (virtual neuron)."""
        return self.t_r * self.t_s * self.t_c

    @property
    def num_clusters(self) -> int:
        """Clusters mapped simultaneously onto the fabric."""
        return self.t_g * self.t_k * self.t_n * self.t_x * self.t_y

    @property
    def multipliers_used(self) -> int:
        return self.cluster_size * self.num_clusters

    def validate_for(self, layer: ConvLayerSpec, num_ms: int) -> None:
        """Reject tiles that do not fit the layer or the hardware."""
        if self.multipliers_used > num_ms:
            raise MappingError(
                f"tile needs {self.multipliers_used} multipliers but the "
                f"fabric has {num_ms}"
            )
        pairs = (
            ("t_r", self.t_r, layer.r),
            ("t_s", self.t_s, layer.s),
            ("t_c", self.t_c, layer.c),
            ("t_g", self.t_g, layer.g),
            ("t_k", self.t_k, layer.k),
            ("t_n", self.t_n, layer.n),
            ("t_x", self.t_x, layer.x_out),
            ("t_y", self.t_y, layer.y_out),
        )
        for name, tile_value, layer_value in pairs:
            if tile_value > layer_value:
                raise MappingError(
                    f"tile {name}={tile_value} exceeds the layer dimension "
                    f"({layer_value})"
                )

    def folds_for(self, layer: ConvLayerSpec) -> int:
        """Sequential steps needed to cover one full filter with this tile."""
        return (
            math.ceil(layer.r / self.t_r)
            * math.ceil(layer.s / self.t_s)
            * math.ceil(layer.c / self.t_c)
        )

    def iterations_for(self, layer: ConvLayerSpec) -> int:
        """Times the cluster set must be re-mapped to cover all outputs."""
        return (
            math.ceil(layer.g / self.t_g)
            * math.ceil(layer.k / self.t_k)
            * math.ceil(layer.n / self.t_n)
            * math.ceil(layer.x_out / self.t_x)
            * math.ceil(layer.y_out / self.t_y)
        )


def _candidate_channel_slices(c: int, budget: int) -> List[int]:
    """Candidate ``t_c`` values, largest first: divisors of C that fit the
    budget (fold-exact) plus the largest slice that fits (which may leave a
    ragged final fold). Divisors come in pairs ``(d, c // d)`` with
    ``d <= sqrt(c)``."""
    limit = min(c, budget)
    slices = {limit}
    for d in range(1, math.isqrt(c) + 1):
        if c % d == 0:
            if d <= limit:
                slices.add(d)
            if c // d <= limit:
                slices.add(c // d)
    return sorted(slices, reverse=True)


#: a tile's eight fields in :class:`TileConfig` order: what the mapper
#: enumerates and scores, so that only the winner becomes an object
_TileFields = Tuple[int, int, int, int, int, int, int, int]


def _conv_candidates(
    layer: ConvLayerSpec, num_ms: int, power_of_two_clusters: bool
) -> List[_TileFields]:
    """The candidate tiles for ``layer`` on ``num_ms >= 1`` multipliers.

    Each fits by construction — every budget below is at least 1, so every
    field is at least 1 and at most its layer dimension, and each budget is
    what the fields before it left of ``num_ms`` — so none needs
    :meth:`TileConfig.validate_for`.
    """
    r, s, c, k, g, n = layer.r, layer.s, layer.c, layer.k, layer.g, layer.n
    y_out = layer.y_out
    window = r * s
    candidates: List[_TileFields] = []
    if power_of_two_clusters:
        # plain reduction trees only reduce power-of-two clusters: map the
        # dot product along channels only, in power-of-two slices
        t_c = 1
        while t_c * 2 <= min(c, num_ms):
            t_c *= 2
        while t_c >= 1:
            budget = num_ms // t_c
            t_k = min(k, budget)
            candidates.append(
                (1, 1, t_c, 1, t_k, 1, 1, min(y_out, budget // t_k))
            )
            t_c //= 2
            if len(candidates) >= 4:
                break
        return candidates

    if window > num_ms:
        # degenerate: the spatial window alone exceeds the fabric; slice rows
        t_r = max(1, num_ms // s)
        t_s = s if t_r * s <= num_ms else num_ms
        t_r = t_r if t_r * t_s <= num_ms else 1
        candidates.append((min(t_r, r), min(t_s, s), 1, 1, 1, 1, 1, 1))
    else:
        x_out = layer.x_out
        for t_c in _candidate_channel_slices(c, num_ms // window):
            budget = num_ms // (window * t_c)
            t_k = min(k, budget)
            budget //= t_k
            t_y = min(y_out, budget)
            budget //= t_y
            t_x = min(x_out, budget)
            budget //= t_x
            t_g = min(g, budget)
            t_n = min(n, budget // t_g)
            candidates.append((r, s, t_c, t_g, t_k, t_n, t_x, t_y))
    # GEMM-style candidates: fold the spatial window and slice channels
    # only (cluster = t_c). These win when the receptive-field window does
    # not divide the fabric cleanly.
    if window > 1:
        for t_c in _candidate_channel_slices(c, num_ms):
            budget = num_ms // t_c
            t_k = min(k, budget)
            budget //= t_k
            t_y = min(y_out, budget)
            t_g = min(g, budget // t_y)
            candidates.append((1, 1, t_c, t_g, t_k, 1, 1, t_y))
    return candidates


def _best_tile(
    layer: ConvLayerSpec,
    candidates: List[_TileFields],
    bandwidth: int,
    forwarding: bool,
    larger_cluster_wins: bool,
) -> _TileFields:
    """The candidate with the lowest estimated runtime.

    The estimate is steps x per-step delivery stall, the dense
    controller's weight-stationary step model (the mRNA-style mapper
    optimizes the same objective): a step must deliver the fresh
    receptive-field slice of every *input-distinct* cluster (the T_K
    filters of a group multicast and cost nothing extra), plus a psum
    re-injection per cluster when folding. A tie keeps the earlier
    candidate, or the larger cluster with ``larger_cluster_wins``.
    Every ``-(-a // b)`` below is ``ceil(a / b)`` in integer arithmetic.
    """
    r, s, c, stride = layer.r, layer.s, layer.c, layer.stride
    g, k, n, x_out, y_out = layer.g, layer.k, layer.n, layer.x_out, layer.y_out
    slide = forwarding and r * s > 1
    best = candidates[0]
    best_score: Optional[int] = None
    best_cluster = 0
    for fields in candidates:
        t_r, t_s, t_c, t_g, t_k, t_n, t_x, t_y = fields
        folds = -(-r // t_r) * -(-s // t_s) * -(-c // t_c)
        steps = folds * (
            -(-g // t_g) * -(-k // t_k) * -(-n // t_n)
            * -(-x_out // t_x) * -(-y_out // t_y)
        )
        input_clusters = t_g * t_n * t_x * t_y
        cluster = t_r * t_s * t_c
        fresh = cluster
        if slide:
            fresh = min(t_r * t_c * min(t_y * stride, t_s), cluster)
        slots = fresh * input_clusters
        if folds > 1:
            slots += t_k * input_clusters  # one psum per cluster
        step_cycles = -(-slots // bandwidth)
        score = steps * (step_cycles if step_cycles > 1 else 1)
        if best_score is None or score < best_score or (
            larger_cluster_wins and score == best_score
            and cluster > best_cluster
        ):
            best, best_score, best_cluster = fields, score, cluster
    return best


def _choose_tile(
    layer: ConvLayerSpec,
    num_ms: int,
    bandwidth: int,
    forwarding: bool,
    power_of_two_clusters: bool,
) -> _TileFields:
    if num_ms < 1:
        raise MappingError("cannot tile onto an empty fabric")
    # the power-of-two candidates are scored without the forwarding
    # discount and keep the earliest of equal scores
    return _best_tile(
        layer,
        _conv_candidates(layer, num_ms, power_of_two_clusters),
        bandwidth or num_ms,
        forwarding and not power_of_two_clusters,
        larger_cluster_wins=not power_of_two_clusters,
    )


def generate_conv_tile(
    layer: ConvLayerSpec,
    num_ms: int,
    bandwidth: int = 0,
    forwarding: bool = True,
    power_of_two_clusters: bool = False,
) -> TileConfig:
    """Choose a tile that minimizes estimated runtime, in the spirit of mRNA.

    The mapper enumerates how to split the multiplier budget between the
    dot-product slice (``t_r * t_s * t_c``) and parallel clusters
    (filters first — they share their input window through DN multicast —
    then output pixels), scoring each candidate with the controller's
    step-delivery model. ``bandwidth`` defaults to the fabric width.
    """
    return TileConfig(
        *_choose_tile(layer, num_ms, bandwidth, forwarding, power_of_two_clusters)
    )


def save_tile_file(tiles: dict, path) -> None:
    """Write per-layer tile configurations as an INI file.

    Each section is a layer name and holds the eight tile parameters —
    the per-layer tile configuration the paper's modified models reference
    next to the hardware ``.cfg`` file.
    """
    import configparser

    parser = configparser.ConfigParser()
    for layer_name, tile in tiles.items():
        parser[layer_name] = {
            "t_r": str(tile.t_r), "t_s": str(tile.t_s), "t_c": str(tile.t_c),
            "t_g": str(tile.t_g), "t_k": str(tile.t_k), "t_n": str(tile.t_n),
            "t_x": str(tile.t_x), "t_y": str(tile.t_y),
        }
    with open(path, "w", encoding="utf-8") as handle:
        parser.write(handle)


def load_tile_file(path) -> dict:
    """Read a per-layer tile configuration file back into a dict."""
    import configparser

    from repro.errors import ConfigurationError

    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigurationError(f"tile file not found: {path}")
    tiles = {}
    for layer_name in parser.sections():
        section = parser[layer_name]
        try:
            tiles[layer_name] = TileConfig(
                **{key: int(section.get(key, 1))
                   for key in ("t_r", "t_s", "t_c", "t_g", "t_k", "t_n",
                                "t_x", "t_y")}
            )
        except ValueError as exc:
            raise ConfigurationError(
                f"bad tile values for layer {layer_name!r}: {exc}"
            ) from exc
    return tiles


def generate_gemm_tile(
    gemm: GemmSpec, num_ms: int, bandwidth: int = 0
) -> TileConfig:
    """Tile a GEMM: the reduction dim maps to ``t_c`` (cluster size), the
    stationary rows to ``t_k`` and the streamed columns to ``t_y``."""
    layer = ConvLayerSpec(
        r=1, s=1, c=gemm.k, k=gemm.m, x=1, y=gemm.n, name=gemm.name or "gemm"
    )
    t_r, t_s, t_c, _, t_k, _, _, t_y = _choose_tile(
        layer, num_ms, bandwidth, forwarding=False, power_of_two_clusters=False
    )
    return TileConfig(t_c=t_r * t_s * t_c, t_k=t_k, t_y=t_y)
