"""Linear and projective geometry over GF(2) in the symplectic polar space.

A point of W(2N-1, 2) is a nonzero vector of GF(2)^(2N), stored as a pair
of N-bit masks (x, z) with qubit 1 at the most significant bit.  The
canonical integer value of a point is the 2N-bit word obtained by placing
the x mask in the high N bits and the z mask in the low N bits, so points
are totally ordered by that value.  Subspaces are kept in reduced row
echelon form over GF(2), which makes equality of subspaces equality of
row tuples.

All arithmetic here is exact integer bit twiddling.  The primitives on
packed values, :func:`packed_form` (the symplectic form) and
:func:`_eliminate` (the GF(2) elimination), are the only implementations
of those operations in the package.
"""

from __future__ import annotations

import functools
import operator
from collections import namedtuple
from collections.abc import Iterable, Sequence

MAX_QUBITS = 16


def packed_form(n: int, u: int, v: int) -> int:
    """Symplectic form of two packed 2N-bit values: popcount(x_u & z_v ^ z_u & x_v) mod 2.

    Shifting a value right by N leaves its x block, which lines up with
    the other value's z block, so no mask is needed.
    """
    return ((u >> n) & v ^ u & (v >> n)).bit_count() & 1


def _check_qubits(n: int, x: int = 0, z: int = 0) -> None:
    """The records' shared checks: 1 <= n <= MAX_QUBITS, and x and z are n-bit masks."""
    if not 1 <= n <= MAX_QUBITS:
        raise ValueError(f"qubit count must be in [1, {MAX_QUBITS}], got {n}")
    top = 1 << n
    if not 0 <= x < top or not 0 <= z < top:
        raise ValueError(f"component masks out of range for n={n}")


def _check_same_space(a, b) -> None:
    """Raise unless two points, observables or subspaces share their qubit count."""
    if a.n != b.n:
        raise ValueError(f"operands live in different spaces (n={a.n} vs n={b.n})")


class SymplecticPoint(namedtuple("SymplecticPoint", "n x z")):
    """A nonzero vector of GF(2)^(2N), i.e. a point of PG(2N-1, 2).

    Points order as their field tuples (n, x, z).

    Attributes:
        n: number of qubits N (1 <= n <= MAX_QUBITS).
        x: N-bit mask of X components, qubit 1 at the MSB.
        z: N-bit mask of Z components, qubit 1 at the MSB.
    """

    __slots__ = ()

    def __new__(cls, n: int, x: int, z: int) -> "SymplecticPoint":
        _check_qubits(n, x, z)
        if x == 0 and z == 0:
            raise ValueError("the zero vector is not a projective point")
        return tuple.__new__(cls, (n, x, z))

    @property
    def value(self) -> int:
        """Canonical 2N-bit integer, x block high, z block low."""
        return (self.x << self.n) | self.z

    @classmethod
    def from_value(cls, n: int, value: int) -> "SymplecticPoint":
        if not 0 < value < 1 << (2 * n):
            raise ValueError(f"value {value} out of range for n={n}")
        return cls(n, value >> n, value & ((1 << n) - 1))


def symplectic_form(u: SymplecticPoint, v: SymplecticPoint) -> int:
    """Evaluate the standard symplectic form <u, v> = sum x_u z_v + z_u x_v mod 2.

    Returns 0 when the corresponding Pauli observables commute and 1 when
    they anticommute.
    """
    _check_same_space(u, v)
    return packed_form(u.n, u.value, v.value)


def _eliminate(values: Iterable[int]) -> tuple[dict[int, int], list[int]]:
    """Gauss-Jordan elimination of GF(2) row vectors given as integers.

    Returns (rows, relations).  rows maps each row of the reduced row
    echelon form (pivots at the top bit, rows descending, so equal spans
    give equal rows) to the bitmask of the inputs that XOR to it.  Each
    input that reduces to zero gives a relation, the mask of inputs that
    XOR to zero with it; rows absorb only inputs that became rows, so no
    other relation holds that input, and the relations span all such masks.
    """
    rows: list[list[int]] = []  # [pivot bit, row, inputs]
    relations: list[int] = []
    for i, value in enumerate(values):
        inputs = 1 << i
        for pivot, row, used in rows:
            if value & pivot:
                value ^= row
                inputs ^= used
        if not value:
            relations.append(inputs)
            continue
        pivot = 1 << value.bit_length() >> 1
        for entry in rows:
            if entry[1] & pivot:
                entry[1] ^= value
                entry[2] ^= inputs
        rows.append([pivot, value, inputs])
    return dict(sorted(((row, used) for _, row, used in rows), reverse=True)), relations


class Subspace(namedtuple("Subspace", "n rows")):
    """A linear subspace of GF(2)^(2N) in canonical reduced row echelon form.

    Two Subspace instances are equal exactly when they describe the same
    subspace.  The zero subspace has an empty row tuple.  Canonical rows
    lie in [1, 2^(2N)) with strictly descending pivots, each in one row.
    """

    __slots__ = ()

    def __new__(cls, n: int, rows: tuple[int, ...]) -> "Subspace":
        _check_qubits(n)
        above, bound = 0, 1 << 2 * n  # rows so far, and the last pivot
        for row in rows:
            if not 0 < row < bound or above & (pivot := 1 << row.bit_length() >> 1):
                raise ValueError("rows are not in canonical reduced echelon form")
            above, bound = above | row, pivot
        return tuple.__new__(cls, (n, rows))

    @property
    def rank(self) -> int:
        return len(self.rows)


def span(points: Iterable[SymplecticPoint]) -> Subspace:
    """The linear span of a non-empty collection of points."""
    pts = list(points)
    if not pts:
        raise ValueError("span of an empty point set is ambiguous; give at least one point")
    for p in pts:
        _check_same_space(pts[0], p)
    return Subspace(pts[0].n, tuple(_eliminate(p.value for p in pts)[0]))


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


def intersect(a: Subspace, b: Subspace) -> Subspace:
    """The intersection of two subspaces.

    The A-part of each relation among A's rows followed by B's sums to a
    vector of both; as each operand's rows are independent, these
    vectors are a basis of the intersection.
    """
    _check_same_space(a, b)
    relations = _eliminate(a.rows + b.rows)[1]
    meet = (
        functools.reduce(operator.xor, (row for i, row in enumerate(a.rows) if r >> i & 1))
        for r in relations
    )
    return Subspace(a.n, tuple(_eliminate(meet)[0]))
