"""Integer kernels: the valuation solve and the cap table.

* ``valuation_scan``: the least noncontextual sign assignment of a
  k-point universe, read off ``geometry._eliminate`` run on the
  augmented context constraints.  It has no size limit.
* ``cap_subsets``: the 168 caps of PG(3, 2) in coordinates; the cap
  census maps it into a rank-4 subspace through a basis.

Both are plain Python on ints and lists.  The module exists for the
benchmark's tracer, which times both under ``_kernels``.
"""

from __future__ import annotations

import itertools

from .geometry import _eliminate

# ---------------------------------------------------------------------------
# valuation solve


def valuation_scan(masks, parities, width: int) -> int:
    """Least v in [0, 2^width) with popcount(v & masks[c]) odd iff parities[c], else -1.

    Each equation is an augmented row: the bit-reversed mask shifted left
    by one, parity in bit 0.  Eliminating the rows puts each pivot at its
    row's lowest unknown, in no other row, so its other unknowns are free
    bits above the pivot.  A row 1 reads 0 = 1: no solution (its inputs
    are the equations that cancel).  Otherwise setting every free bit to
    0 and every pivot bit to its row's bit 0 gives the least solution:
    any other differs from it in a free bit, and the highest bit in which
    the two differ is a free bit, 0 in this one.
    """
    full = (1 << width) - 1
    rows = _eliminate(
        int(f"{int(parity) & 1}{int(mask) & full:0{width}b}"[::-1], 2)
        for mask, parity in zip(masks, parities)
    )[0]
    if 1 in rows:
        return -1
    return sum(1 << width + 1 - row.bit_length() for row in rows if row & 1)


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
