"""Linear and projective geometry over GF(2) in the symplectic polar space.

A point of W(2N-1, 2) is a nonzero vector of GF(2)^(2N), stored as a pair
of N-bit masks (x, z) with qubit 1 at the most significant bit.  The
canonical integer value of a point is the 2N-bit word obtained by placing
the x mask in the high N bits and the z mask in the low N bits, so points
are totally ordered by that value.  Subspaces are kept in reduced row
echelon form over GF(2), which makes equality of subspaces equality of
row tuples.

All arithmetic here is exact integer bit twiddling.  The two primitives
on packed values, :func:`packed_form` (the symplectic form) and
:func:`reduce_row` (reduction against echelon rows), are the only
implementations of those operations in the package.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

MAX_QUBITS = 16


def packed_form(n: int, u: int, v: int) -> int:
    """Symplectic form of two packed 2N-bit values: popcount(x_u & z_v ^ z_u & x_v) mod 2.

    Shifting a value right by N leaves its x block, which lines up with
    the other value's z block, so no mask is needed.
    """
    return ((u >> n) & v ^ u & (v >> n)).bit_count() & 1


def reduce_row(value: int, rows: Iterable[int]) -> int:
    """Reduce a GF(2) row vector against rows in descending pivot order.

    Each row's pivot is its most significant bit, and XORing the row in
    clears that bit exactly when the result is smaller.
    """
    for row in rows:
        value = min(value, value ^ row)
    return value


@dataclass(frozen=True, order=True)
class SymplecticPoint:
    """A nonzero vector of GF(2)^(2N), i.e. a point of PG(2N-1, 2).

    Attributes:
        n: number of qubits N (1 <= n <= MAX_QUBITS).
        x: N-bit mask of X components, qubit 1 at the MSB.
        z: N-bit mask of Z components, qubit 1 at the MSB.
    """

    n: int
    x: int
    z: int

    def __post_init__(self) -> None:
        if not 1 <= self.n <= MAX_QUBITS:
            raise ValueError(f"qubit count must be in [1, {MAX_QUBITS}], got {self.n}")
        top = 1 << self.n
        if not 0 <= self.x < top or not 0 <= self.z < top:
            raise ValueError(f"component masks out of range for n={self.n}")
        if self.x == 0 and self.z == 0:
            raise ValueError("the zero vector is not a projective point")

    @property
    def value(self) -> int:
        """Canonical 2N-bit integer, x block high, z block low."""
        return (self.x << self.n) | self.z

    @classmethod
    def from_value(cls, n: int, value: int) -> "SymplecticPoint":
        if not 0 < value < 1 << (2 * n):
            raise ValueError(f"value {value} out of range for n={n}")
        return cls(n, value >> n, value & ((1 << n) - 1))


def _check_same_space(u: SymplecticPoint, v: SymplecticPoint) -> None:
    if u.n != v.n:
        raise ValueError(f"points live in different spaces (n={u.n} vs n={v.n})")


def symplectic_form(u: SymplecticPoint, v: SymplecticPoint) -> int:
    """Evaluate the standard symplectic form <u, v> = sum x_u z_v + z_u x_v mod 2.

    Returns 0 when the corresponding Pauli observables commute and 1 when
    they anticommute.
    """
    _check_same_space(u, v)
    return packed_form(u.n, u.value, v.value)


def third_point(p: SymplecticPoint, q: SymplecticPoint) -> SymplecticPoint:
    """The third point on the projective line through two distinct points.

    Over GF(2) a line has exactly three points and the third is the XOR
    of the other two.
    """
    _check_same_space(p, q)
    if p == q:
        raise ValueError("third_point needs two distinct points")
    return SymplecticPoint(p.n, p.x ^ q.x, p.z ^ q.z)


def all_points(n: int) -> Iterator[SymplecticPoint]:
    """Yield every point of PG(2N-1, 2) in ascending canonical value order."""
    for value in range(1, 1 << (2 * n)):
        yield SymplecticPoint.from_value(n, value)


def _rref(values: Iterable[int], width: int) -> tuple[int, ...]:
    """Reduced row echelon form of GF(2) row vectors given as integers.

    Pivots are chosen from the most significant bit downward and the
    result is fully reduced, so any two generating sets of the same
    subspace produce identical row tuples.  Rows come back sorted by
    descending pivot position.
    """
    rows: list[int] = []
    for value in values:
        value = reduce_row(value, rows)
        if value:
            rows.append(value)
            rows.sort(reverse=True)
    # Back-substitute so each pivot appears in exactly one row.
    for i in range(len(rows)):
        for j in range(i):
            pivot = rows[i].bit_length() - 1
            if (rows[j] >> pivot) & 1:
                rows[j] ^= rows[i]
    return tuple(sorted(rows, reverse=True))


@dataclass(frozen=True)
class Subspace:
    """A linear subspace of GF(2)^(2N) in canonical reduced row echelon form.

    Two Subspace instances are equal exactly when they describe the same
    subspace.  The zero subspace has an empty row tuple.
    """

    n: int
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        if not 1 <= self.n <= MAX_QUBITS:
            raise ValueError(f"qubit count must be in [1, {MAX_QUBITS}], got {self.n}")
        canonical = _rref(self.rows, 2 * self.n)
        if canonical != self.rows:
            raise ValueError("rows are not in canonical reduced echelon form")

    @property
    def rank(self) -> int:
        return len(self.rows)

    @property
    def point_count(self) -> int:
        """Number of projective points, 2^rank - 1."""
        return (1 << self.rank) - 1


def span(points: Iterable[SymplecticPoint]) -> Subspace:
    """The linear span of a non-empty collection of points."""
    pts = list(points)
    if not pts:
        raise ValueError("span of an empty point set is ambiguous; give at least one point")
    n = pts[0].n
    for p in pts:
        if p.n != n:
            raise ValueError(f"points live in different spaces (n={n} vs n={p.n})")
    return Subspace(n, _rref((p.value for p in pts), 2 * n))


def contains(s: Subspace, p: SymplecticPoint) -> bool:
    """Whether the point lies in the subspace (reduce against the RREF rows)."""
    if s.n != p.n:
        raise ValueError(f"point and subspace live in different spaces (n={p.n} vs n={s.n})")
    return reduce_row(p.value, s.rows) == 0


def _span_values(basis: Sequence[int]) -> list[int]:
    """values[c] is the XOR of the basis vectors picked by the bits of c.

    Entry c is entry c & (c - 1), c without its lowest set bit, plus one
    basis vector, so the 2^r entries cost one XOR each; values[0] = 0.
    """
    values = [0] * (1 << len(basis))
    for c in range(1, len(values)):
        values[c] = values[c & (c - 1)] ^ basis[(c & -c).bit_length() - 1]
    return values


def enumerate_points(s: Subspace) -> list[SymplecticPoint]:
    """All projective points of the subspace, sorted by canonical value.

    The subspace of rank r contains 2^r - 1 points, one per non-empty
    subset of the RREF basis.
    """
    return [SymplecticPoint.from_value(s.n, v) for v in sorted(_span_values(s.rows)[1:])]


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    """The smallest subspace containing both operands (the join A + B)."""
    if a.n != b.n:
        raise ValueError(f"subspaces live in different spaces (n={a.n} vs n={b.n})")
    return Subspace(a.n, _rref(a.rows + b.rows, 2 * a.n))


def intersect(a: Subspace, b: Subspace) -> Subspace:
    """The intersection of two subspaces via the Zassenhaus construction.

    Rows of the block matrix [[A, A], [B, 0]] are reduced; rows whose
    left block is zero have right blocks spanning the intersection.
    """
    if a.n != b.n:
        raise ValueError(f"subspaces live in different spaces (n={a.n} vs n={b.n})")
    width = 2 * a.n
    stacked = [(r << width) | r for r in a.rows] + [r << width for r in b.rows]
    reduced = _rref(stacked, 2 * width)
    inter = [row & ((1 << width) - 1) for row in reduced if row < (1 << width)]
    return Subspace(a.n, _rref(inter, width))


def is_totally_isotropic(s: Subspace) -> bool:
    """Whether the symplectic form vanishes on every pair of basis rows.

    Totally isotropic subspaces correspond to sets of mutually commuting
    Pauli observables; in W(2N-1, 2) their rank is at most N.
    """
    return not any(packed_form(s.n, r1, r2) for r1, r2 in itertools.combinations(s.rows, 2))
