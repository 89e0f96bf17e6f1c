"""Tiling helpers shared by the SpGEMM algorithm and the hardware model.

The device-level SpGEMM (Section III-C) partitions the output into thread
block tiles and warp tiles; the hierarchical bitmap (Figure 9) is defined
over the same tiling.  These helpers keep the index arithmetic in one
place so the algorithm, the encoder, and the simulator always agree.
"""

from __future__ import annotations

from typing import Iterator, Tuple

from repro.errors import ConfigError


def ceil_div(numerator: int, denominator: int) -> int:
    """Integer division rounded towards positive infinity."""
    if denominator <= 0:
        raise ConfigError(f"denominator must be positive, got {denominator}")
    return -(-numerator // denominator)


def num_tiles(dim: int, tile: int) -> int:
    """Number of tiles of size ``tile`` needed to cover ``dim`` elements."""
    return ceil_div(dim, tile)


def tile_ranges(dim: int, tile: int) -> Iterator[Tuple[int, int]]:
    """Yield ``(start, stop)`` index ranges covering ``[0, dim)``.

    The last range may be shorter than ``tile`` when ``dim`` is not an
    exact multiple; callers are expected to zero-pad, exactly as the
    hardware pads partial warp tiles (Figure 5).
    """
    if tile <= 0:
        raise ConfigError(f"tile size must be positive, got {tile}")
    for start in range(0, dim, tile):
        yield start, min(start + tile, dim)
