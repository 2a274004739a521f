"""Integer kernels: the valuation solve and the cap table.

* ``valuation_scan``: the least noncontextual sign assignment of a
  k-point universe, found by Gauss-Jordan elimination over GF(2) on
  integer bitmask rows.  It has no size limit.
* ``cap_subsets``: the 168 caps of PG(3, 2) in coordinates; the cap
  census maps it into a rank-4 subspace through a basis.

Both are plain Python on ints and lists.  They share a module only
because the benchmark's tracer times them under ``_kernels``.
"""

from __future__ import annotations

import itertools

# ---------------------------------------------------------------------------
# valuation solve


def valuation_scan(masks, parities, width: int) -> int:
    """Least v in [0, 2^width) with popcount(v & masks[c]) odd iff parities[c], else -1.

    Each row is one GF(2) equation on the bits of v.  Gauss-Jordan
    elimination keeps every row's pivot at its lowest set bit and clears
    that bit from every other row, so the remaining bits of a row are
    free bits above its pivot.  Setting every free bit to 0 and every
    pivot bit to its row's parity then gives the least solution: any
    other solution differs from it in a free bit, and the highest bit in
    which the two differ is a free bit, 0 in this one.  A row that
    reduces to zero with odd parity has no solution.
    """
    full = (1 << width) - 1
    rows: list[list[int]] = []  # [pivot bit, mask, parity]
    for mask, parity in zip(masks, parities):
        mask, parity = int(mask) & full, int(parity) & 1
        for pivot, row, odd in rows:
            if mask & pivot:
                mask ^= row
                parity ^= odd
        if not mask:
            if parity:
                return -1
            continue
        low = mask & -mask
        for entry in rows:
            if entry[1] & low:
                entry[1] ^= mask
                entry[2] ^= parity
        rows.append([low, mask, parity])
    return sum(pivot for pivot, _, odd in rows if odd)


# ---------------------------------------------------------------------------
# caps


def cap_subsets() -> list[tuple[int, ...]]:
    """The 168 caps of PG(3, 2), as sorted 5-tuples of coordinates 1..15.

    Five points of PG(3, 2) form an elliptic quadric exactly when they
    are four independent points and their sum, so each cap is one row
    (a, b, c, d, a ^ b ^ c ^ d) with a < b < c < d its four least
    points.  The sum exceeds d exactly when the four are independent:
    three of them summing to zero would make it the fourth, and all four
    would make it 0.  Rows come in lexicographic order.  Its one caller
    is ``search.enumerate_caps``; the rectangle walk builds each cap from
    the anchor and three points by the same rule.
    """
    return [
        (a, b, c, d, a ^ b ^ c ^ d)
        for a, b, c, d in itertools.combinations(range(1, 16), 4)
        if a ^ b ^ c ^ d > d
    ]
