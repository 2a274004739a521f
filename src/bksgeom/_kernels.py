"""Numeric kernels: numba fast paths with pure-numpy fallbacks, and the
valuation solve.

* ``valuation_scan``: the least noncontextual sign assignment of a
  k-point universe, found by Gauss-Jordan elimination over GF(2) on
  integer bitmask rows.  It is plain Python with no size limit.
* ``cap_subsets``: enumeration of 5-point subsets of a rank-4 subspace
  that contain no collinear triple and no coplanar quadruple.
* ``pair_parity``: batch evaluation of the symplectic form.

The last two are implemented twice, once with ``numba.njit`` and once
with vectorised numpy.  Set the environment variable
``BKSGEOM_DISABLE_NUMBA=1`` before import to force the numpy fallbacks
(useful on platforms without a working JIT and for benchmarking).
"""

from __future__ import annotations

import itertools
import os

import numpy as np

_FLAG = os.environ.get("BKSGEOM_DISABLE_NUMBA", "").strip().lower()
_DISABLED = _FLAG in {"1", "true", "yes", "on"}

try:
    if _DISABLED:
        raise ImportError("numba disabled by BKSGEOM_DISABLE_NUMBA")
    from numba import njit

    NUMBA_ACTIVE = True
except ImportError:
    NUMBA_ACTIVE = False

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


def _cap_subsets_np(third: np.ndarray, fixed: int) -> np.ndarray:
    """Rows of 5 indices forming caps with no coplanar quadruple.

    ``third[i, j]`` must give the index of point_i XOR point_j inside
    the same closed point list (any rank-4 subspace works).  When
    ``fixed`` is non-negative only subsets containing it are returned.
    Rows come back sorted, in lexicographic order.
    """
    k = third.shape[0]
    rows = []
    for combo in itertools.combinations(range(k), 5):
        if fixed >= 0 and fixed not in combo:
            continue
        mask = 0
        for i in combo:
            mask |= 1 << i
        ok = True
        for a in range(5):
            for b in range(a + 1, 5):
                if (mask >> third[combo[a], combo[b]]) & 1:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            for a in range(5):
                for b in range(a + 1, 5):
                    t = third[combo[a], combo[b]]
                    for c in range(b + 1, 5):
                        if (mask >> third[t, combo[c]]) & 1:
                            ok = False
                            break
                    if not ok:
                        break
                if not ok:
                    break
        if ok:
            rows.append(combo)
    return np.array(rows, dtype=np.int64).reshape(len(rows), 5)


if NUMBA_ACTIVE:

    @njit(cache=True)
    def _cap_subsets_jit(third, fixed):  # pragma: no cover - jitted
        k = third.shape[0]
        out = np.empty((3003, 5), dtype=np.int64)
        count = 0
        combo = np.empty(5, dtype=np.int64)
        for i1 in range(k):
            combo[0] = i1
            for i2 in range(i1 + 1, k):
                combo[1] = i2
                for i3 in range(i2 + 1, k):
                    combo[2] = i3
                    for i4 in range(i3 + 1, k):
                        combo[3] = i4
                        for i5 in range(i4 + 1, k):
                            combo[4] = i5
                            if fixed >= 0:
                                hit = False
                                for a in range(5):
                                    if combo[a] == fixed:
                                        hit = True
                                if not hit:
                                    continue
                            mask = 0
                            for a in range(5):
                                mask |= 1 << combo[a]
                            ok = True
                            for a in range(5):
                                if not ok:
                                    break
                                for b in range(a + 1, 5):
                                    if (mask >> third[combo[a], combo[b]]) & 1:
                                        ok = False
                                        break
                            if ok:
                                for a in range(5):
                                    if not ok:
                                        break
                                    for b in range(a + 1, 5):
                                        if not ok:
                                            break
                                        t = third[combo[a], combo[b]]
                                        for c in range(b + 1, 5):
                                            if (mask >> third[t, combo[c]]) & 1:
                                                ok = False
                                                break
                            if ok:
                                for a in range(5):
                                    out[count, a] = combo[a]
                                count += 1
        return out[:count].copy()


def cap_subsets(third: np.ndarray, fixed: int = -1) -> np.ndarray:
    third = np.ascontiguousarray(third, dtype=np.int64)
    if NUMBA_ACTIVE:
        return _cap_subsets_jit(third, fixed)
    return _cap_subsets_np(third, fixed)


# ---------------------------------------------------------------------------
# batch symplectic form


def _pair_parity_np(x1, z1, x2, z2) -> np.ndarray:
    acc = np.bitwise_count(x1 & z2) + np.bitwise_count(z1 & x2)
    return (acc & 1).astype(np.uint8)


if NUMBA_ACTIVE:

    @njit(cache=True)
    def _pair_parity_jit(x1, z1, x2, z2):  # pragma: no cover - jitted
        out = np.empty(x1.shape[0], dtype=np.uint8)
        for i in range(x1.shape[0]):
            w = (x1[i] & z2[i]) | ((z1[i] & x2[i]) << np.int64(32))
            bits = 0
            while w:
                w &= w - 1
                bits += 1
            out[i] = bits & 1
        return out


def pair_parity(x1, z1, x2, z2) -> np.ndarray:
    """Symplectic form of point pairs given as component arrays (values < 2^16)."""
    arrays = [np.ascontiguousarray(a, dtype=np.int64) for a in (x1, z1, x2, z2)]
    if NUMBA_ACTIVE:
        return _pair_parity_jit(*arrays)
    return _pair_parity_np(*arrays)


def warm_up() -> None:
    """Trigger JIT compilation of all kernels on tiny inputs."""
    third = np.zeros((3, 3), dtype=np.int64)
    third[0, 1] = third[1, 0] = 2
    third[0, 2] = third[2, 0] = 1
    third[1, 2] = third[2, 1] = 0
    cap_subsets(third, -1)
    ones = np.ones(4, dtype=np.int64)
    pair_parity(ones, ones, ones, ones)
