"""Block-partitioned image datasets (paper Figure 1).

"Data forming parts of the image are stored in the form of blocks or
data chunks for indexing reasons, requiring the entire block to be
fetched even when only a part of the block is required."

An :class:`ImageDataset` is a 2-D pixel grid cut into a rectangular
grid of equal blocks.  Queries select pixel regions; the dataset
answers with the set of blocks intersecting the region — the source of
the over-fetch that makes block size a first-order performance knob.

Blocks are *declustered* round-robin across storage copies
(:meth:`blocks_for_copy`), so "a query will hit as many disks as
possible" (Section 3.1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

from repro.errors import WorkloadError

__all__ = ["Region", "ImageDataset"]

#: The paper's per-image data volume: 16 MB.
PAPER_IMAGE_BYTES = 16 * 1024 * 1024


@dataclass(frozen=True)
class Region:
    """Half-open pixel rectangle ``[x0, x1) x [y0, y1)``."""

    x0: int
    y0: int
    x1: int
    y1: int

    def __post_init__(self) -> None:
        if not (self.x1 > self.x0 and self.y1 > self.y0):
            raise WorkloadError(f"empty region {self}")

    @property
    def width(self) -> int:
        return self.x1 - self.x0

    @property
    def height(self) -> int:
        return self.y1 - self.y0

    @property
    def pixels(self) -> int:
        return self.width * self.height


class ImageDataset:
    """A ``width x height`` image (1 byte/pixel) in a blocks_x x blocks_y grid.

    Parameters
    ----------
    width, height:
        Image dimensions in pixels.
    blocks_x, blocks_y:
        Grid shape; both must divide the corresponding dimension.

    Notes
    -----
    Block ids run row-major: ``block_id = by * blocks_x + bx``.
    """

    def __init__(self, width: int, height: int, blocks_x: int, blocks_y: int) -> None:
        if width <= 0 or height <= 0:
            raise WorkloadError("image dimensions must be positive")
        if blocks_x <= 0 or blocks_y <= 0:
            raise WorkloadError("block grid must be positive")
        if width % blocks_x or height % blocks_y:
            raise WorkloadError(
                f"block grid {blocks_x}x{blocks_y} does not divide "
                f"image {width}x{height}"
            )
        self.width = width
        self.height = height
        self.blocks_x = blocks_x
        self.blocks_y = blocks_y
        self.block_w = width // blocks_x
        self.block_h = height // blocks_y

    # -- constructors -----------------------------------------------------------------

    @classmethod
    def with_block_bytes(
        cls, total_bytes: int = PAPER_IMAGE_BYTES, block_bytes: int = 16 * 1024
    ) -> "ImageDataset":
        """An image of *total_bytes* cut into blocks of *block_bytes*.

        This is the experiments' main constructor: "data is stored in
        the form of chunks with pre-defined size, referred to here as
        the distribution block size".  Both sizes must be powers of two
        with ``block_bytes <= total_bytes``.
        """
        if block_bytes <= 0 or total_bytes % block_bytes:
            raise WorkloadError(
                f"block size {block_bytes} does not divide {total_bytes}"
            )
        n_blocks = total_bytes // block_bytes
        # Arrange blocks on a 2-D grid; fall back to a 1-D strip when the
        # count is not expressible as a square-ish grid of the square image.
        edge = math.isqrt(total_bytes)
        if edge * edge == total_bytes:
            root = math.isqrt(n_blocks)
            if root * root == n_blocks and edge % root == 0:
                return cls(edge, edge, root, root)
            # n_blocks = 2 * k^2 -> (2k x k) grid.
            k = math.isqrt(n_blocks // 2) if n_blocks >= 2 else 0
            if k and 2 * k * k == n_blocks and edge % (2 * k) == 0 and edge % k == 0:
                return cls(edge, edge, 2 * k, k)
        return cls(total_bytes, 1, n_blocks, 1)

    # -- geometry ------------------------------------------------------------------------

    @property
    def n_blocks(self) -> int:
        """Total number of blocks in the grid."""
        return self.blocks_x * self.blocks_y

    @property
    def block_bytes(self) -> int:
        """Bytes per block (1 byte/pixel)."""
        return self.block_w * self.block_h

    @property
    def total_bytes(self) -> int:
        """Bytes in the whole image."""
        return self.width * self.height

    def full_region(self) -> Region:
        """The whole-image region (a complete update query)."""
        return Region(0, 0, self.width, self.height)

    def block_region(self, block_id: int) -> Region:
        """Pixel rectangle covered by *block_id*."""
        self._check_block(block_id)
        by, bx = divmod(block_id, self.blocks_x)
        return Region(
            bx * self.block_w,
            by * self.block_h,
            (bx + 1) * self.block_w,
            (by + 1) * self.block_h,
        )

    def blocks_for_region(self, region: Region) -> List[int]:
        """Ids of all blocks intersecting *region* (the fetch set)."""
        if region.x0 < 0 or region.y0 < 0 or region.x1 > self.width or region.y1 > self.height:
            raise WorkloadError(f"region {region} outside {self.width}x{self.height}")
        bx0 = region.x0 // self.block_w
        bx1 = (region.x1 - 1) // self.block_w
        by0 = region.y0 // self.block_h
        by1 = (region.y1 - 1) // self.block_h
        return [
            by * self.blocks_x + bx
            for by in range(by0, by1 + 1)
            for bx in range(bx0, bx1 + 1)
        ]

    def wasted_bytes(self, region: Region) -> int:
        """Bytes fetched beyond the region's own pixels (over-fetch)."""
        fetched = len(self.blocks_for_region(region)) * self.block_bytes
        return fetched - region.pixels

    # -- declustering -----------------------------------------------------------------------

    def copy_for_block(self, block_id: int, n_copies: int) -> int:
        """Which storage copy holds *block_id* (round-robin decluster)."""
        self._check_block(block_id)
        return block_id % n_copies

    def blocks_for_copy(self, copy_index: int, n_copies: int) -> List[int]:
        """All block ids stored on *copy_index* of *n_copies*."""
        return list(range(copy_index, self.n_blocks, n_copies))

    def _check_block(self, block_id: int) -> None:
        if not 0 <= block_id < self.n_blocks:
            raise WorkloadError(
                f"block {block_id} out of range 0..{self.n_blocks - 1}"
            )

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<ImageDataset {self.width}x{self.height} in "
            f"{self.blocks_x}x{self.blocks_y} blocks of {self.block_bytes} B>"
        )
