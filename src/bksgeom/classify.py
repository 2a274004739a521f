"""Classification of small point sets in PG(2N-1, 2).

The configurations recognised here are the ones that occur in the
four-qubit magic rectangle analysis: projective lines, triangles, affine
planes of order 2 (quadrangles), elliptic quadrics of PG(3, 2), Fano
planes, and the 3x3 grid carried by a hyperbolic quadric.  Everything
else is reported as generic with a short witness explaining what ruled
the special shapes out.

Over GF(2) collinearity is XOR: three points are collinear exactly when
they XOR to zero, and four points are coplanar in the quadric sense when
some triple XORs to the fourth.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

from .geometry import Subspace, SymplecticPoint, enumerate_points, span
from .pauli import point_word

KIND_SINGLE_POINT = "single_point"
KIND_LINE = "line"
KIND_TRIANGLE = "triangle"
KIND_AFFINE_PLANE = "affine_plane_order_2"
KIND_ELLIPTIC_QUADRIC = "cap_elliptic_quadric"
KIND_FANO_PLANE = "fano_plane"
KIND_GRID = "hyperbolic_quadric_grid"
KIND_GENERIC = "generic"

ALL_KINDS = (
    KIND_SINGLE_POINT,
    KIND_LINE,
    KIND_TRIANGLE,
    KIND_AFFINE_PLANE,
    KIND_ELLIPTIC_QUADRIC,
    KIND_FANO_PLANE,
    KIND_GRID,
    KIND_GENERIC,
)


@dataclass(frozen=True)
class ClassificationLabel:
    """The recognised shape of a point set.

    Attributes:
        kind: one of the KIND_* constants.
        ambient_rank: rank of the linear span of the set.
        detail: for generic sets, a short witness; empty otherwise.
    """

    kind: str
    ambient_rank: int
    detail: str = ""


def _checked_points(points: Sequence[SymplecticPoint]) -> list[SymplecticPoint]:
    pts = list(points)
    if not pts:
        raise ValueError("cannot classify an empty point set")
    n = pts[0].n
    seen: set[int] = set()
    for p in pts:
        if p.n != n:
            raise ValueError(f"points live in different spaces (n={n} vs n={p.n})")
        if p.value in seen:
            raise ValueError(f"duplicate point {point_word(p)} in set")
        seen.add(p.value)
    return pts


def _collinear_triple(values: Sequence[int]) -> Optional[tuple[int, int, int]]:
    """A triple of indices whose points XOR to zero, if any."""
    for i, j in itertools.combinations(range(len(values)), 2):
        third = values[i] ^ values[j]
        for k in range(j + 1, len(values)):
            if values[k] == third:
                return (i, j, k)
    return None


def _coplanar_quadruple(values: Sequence[int]) -> Optional[tuple[int, int, int, int]]:
    """Indices of four points with XOR zero (an affine plane inside the set)."""
    for i, j, k in itertools.combinations(range(len(values)), 3):
        fourth = values[i] ^ values[j] ^ values[k]
        for m in range(k + 1, len(values)):
            if values[m] == fourth:
                return (i, j, k, m)
    return None


def is_cap(points: Sequence[SymplecticPoint]) -> bool:
    """Whether no three of the points are collinear.

    Raises ValueError on duplicates, since a multiset cannot be a cap.
    """
    pts = _checked_points(points)
    values = [p.value for p in pts]
    return _collinear_triple(values) is None


def classify_set(points: Sequence[SymplecticPoint]) -> ClassificationLabel:
    """Classify a set of distinct points into one of the known shapes.

    A five-point set earns the elliptic quadric label only when it
    passes both tests: no collinear triple and no coplanar quadruple.
    The second test is not implied by the first over GF(2), where caps
    larger than quadrics exist.
    """
    pts = _checked_points(points)
    values = [p.value for p in pts]
    value_set = set(values)
    rank = span(pts).rank
    k = len(pts)

    def witness(words: Sequence[int]) -> str:
        names = " ".join(point_word(pts[i]) for i in words)
        return names

    if k == 1:
        return ClassificationLabel(KIND_SINGLE_POINT, 1)

    if k == 3:
        if values[0] ^ values[1] ^ values[2] == 0:
            return ClassificationLabel(KIND_LINE, 2)
        return ClassificationLabel(KIND_TRIANGLE, 3)

    if k == 4:
        triple = _collinear_triple(values)
        if triple is not None:
            return ClassificationLabel(
                KIND_GENERIC, rank, f"collinear triple: {witness(triple)}"
            )
        if values[0] ^ values[1] ^ values[2] ^ values[3] == 0:
            return ClassificationLabel(KIND_AFFINE_PLANE, 3)
        return ClassificationLabel(
            KIND_GENERIC, rank, "four points in general position (XOR sum nonzero)"
        )

    if k == 5:
        triple = _collinear_triple(values)
        if triple is not None:
            return ClassificationLabel(
                KIND_GENERIC, rank, f"collinear triple: {witness(triple)}"
            )
        quad = _coplanar_quadruple(values)
        if quad is not None:
            return ClassificationLabel(
                KIND_GENERIC, rank, f"coplanar quadruple: {witness(quad)}"
            )
        return ClassificationLabel(KIND_ELLIPTIC_QUADRIC, 4)

    if k == 7 and rank == 3:
        # Seven distinct points of rank 3 fill PG(2, 2), which is closed
        # under XOR by definition; double-check anyway.
        if all(a ^ b in value_set for a, b in itertools.combinations(values, 2)):
            return ClassificationLabel(KIND_FANO_PLANE, 3)

    if k == 9 and rank == 4:
        lines = [
            (i, j, k3)
            for i, j in itertools.combinations(range(9), 2)
            for k3 in range(j + 1, 9)
            if values[i] ^ values[j] == values[k3]
        ]
        if len(lines) == 6:
            per_point = [0] * 9
            for line in lines:
                for i in line:
                    per_point[i] += 1
            if all(c == 2 for c in per_point):
                return ClassificationLabel(KIND_GRID, 4)

    return ClassificationLabel(
        KIND_GENERIC, rank, f"no recognised shape for {k} points of rank {rank}"
    )


def projective_closure(
    points: Sequence[SymplecticPoint],
) -> tuple[Subspace, Optional[ClassificationLabel]]:
    """The span of the set and the classification of the complement.

    The complement is taken inside the span: the points of the closure
    that are not in the input set.  When the set already fills its span
    the complement is empty and the second element is None.
    """
    pts = _checked_points(points)
    closure = span(pts)
    given = {p.value for p in pts}
    rest = [p for p in enumerate_points(closure) if p.value not in given]
    if not rest:
        return closure, None
    return closure, classify_set(rest)
