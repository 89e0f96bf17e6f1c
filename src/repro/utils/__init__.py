"""Shared low-level helpers: bit manipulation, tiling, validation."""

from repro.utils.bitops import (
    pack_bits,
    pack_bits_rows,
    popcount,
    popcount_words,
    prefix_popcount,
    prefix_popcount_words,
)
from repro.utils.tiling import ceil_div, tile_ranges, num_tiles
from repro.utils.validation import (
    check_2d,
    check_positive,
    check_probability,
)

__all__ = [
    "pack_bits",
    "pack_bits_rows",
    "popcount",
    "popcount_words",
    "prefix_popcount",
    "prefix_popcount_words",
    "ceil_div",
    "tile_ranges",
    "num_tiles",
    "check_2d",
    "check_positive",
    "check_probability",
]
