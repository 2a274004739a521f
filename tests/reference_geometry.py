"""Point and subspace helpers that the package itself does not use, kept
for the tests: every point of a space, and the join of two subspaces."""

from typing import Iterator

from bksgeom.geometry import Subspace, SymplecticPoint, _rref


def all_points(n: int) -> Iterator[SymplecticPoint]:
    """Yield every point of PG(2N-1, 2) in ascending canonical value order."""
    for value in range(1, 1 << (2 * n)):
        yield SymplecticPoint.from_value(n, value)


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    """The smallest subspace containing both operands (the join A + B)."""
    if a.n != b.n:
        raise ValueError(f"subspaces live in different spaces (n={a.n} vs n={b.n})")
    return Subspace(a.n, _rref(a.rows + b.rows, 2 * a.n))
