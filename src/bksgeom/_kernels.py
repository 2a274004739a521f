"""Integer kernels: the valuation solve and cap enumeration.

* ``valuation_scan``: the least noncontextual sign assignment of a
  k-point universe, found by Gauss-Jordan elimination over GF(2) on
  integer bitmask rows.  It has no size limit.
* ``cap_subsets``: enumeration of 5-point subsets of a rank-4 subspace
  that contain no collinear triple and no coplanar quadruple.

Both are plain Python on ints and lists.
"""

from __future__ import annotations

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
# cap enumeration


def cap_subsets(third, fixed: int = -1) -> list[tuple[int, ...]]:
    """Index 5-tuples forming caps with no coplanar quadruple.

    ``third[i][j]`` must give the index of point_i XOR point_j inside
    the same closed point list (any rank-4 subspace works).  When
    ``fixed`` is non-negative only subsets containing it are returned.
    Rows come back in lexicographic order, each sorted.

    Two callers remain: ``search.enumerate_caps`` (the ovoid census) and
    ``search._anchored_cap_patterns``, which runs it once per process on
    GF(2)^4 to build the table the rectangle walk maps into every
    Lagrangian.

    Over GF(2) three points are collinear exactly when one is the sum of
    the other two, and four points with no collinear triple are coplanar
    exactly when one is the sum of the other three.  So a partial cap
    grows by a larger index p unless p is a sum of two or three of its
    points; ``banned`` holds those sums as a bitmask over indices.
    """
    k = len(third)
    rows: list[tuple[int, ...]] = []

    def grow(combo: tuple[int, ...], banned: int, pair_sums: list[int]) -> None:
        has_fixed = fixed < 0 or fixed in combo
        if len(combo) == 5:
            if has_fixed:
                rows.append(combo)
            return
        stop = k if has_fixed else fixed + 1  # indices past fixed cannot add it
        for p in range(combo[-1] + 1 if combo else 0, stop):
            if banned >> p & 1:
                continue
            row = third[p]
            sums = [row[c] for c in combo]
            ban = banned
            for s in sums + [row[s] for s in pair_sums]:
                ban |= 1 << s
            grow(combo + (p,), ban, pair_sums + sums)

    grow((), 0, [])
    return rows
