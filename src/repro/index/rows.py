"""Append-only row storage shared by the flat indexes.

``np.concatenate`` per ``add`` copies everything stored so far, so
ingesting in chunks is quadratic. :class:`RowStore` keeps the rows in a
buffer that doubles when full — linear ingest, at most 2× spare capacity
— and hands out the *used* rows as a view, so sizes, byte counts and
snapshots never see the spare capacity.
"""

from __future__ import annotations

import numpy as np


class RowStore:
    """Rows of one dtype and trailing shape, appended in amortised O(1)."""

    def __init__(self, rows: np.ndarray):
        """Start from ``rows`` (typically empty, or a restored snapshot)."""
        self._buffer = rows
        self._size = len(rows)

    @property
    def rows(self) -> np.ndarray:
        """The stored rows (a view of the used part of the buffer)."""
        return self._buffer[:self._size]

    @property
    def dtype(self) -> np.dtype:
        return self._buffer.dtype

    def __len__(self) -> int:
        return self._size

    def append(self, rows: np.ndarray) -> None:
        """Copy ``rows`` in after the stored ones, cast to the store's dtype."""
        needed = self._size + len(rows)
        if needed > len(self._buffer):
            grown = np.empty(
                (max(needed, 2 * len(self._buffer)), *self._buffer.shape[1:]),
                dtype=self._buffer.dtype,
            )
            grown[:self._size] = self.rows
            self._buffer = grown
        self._buffer[self._size:needed] = rows
        self._size = needed
