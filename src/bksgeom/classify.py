"""Classification of small point sets in PG(2N-1, 2).

The configurations recognised here are the ones that occur in the
four-qubit magic rectangle analysis: projective lines, triangles, affine
planes of order 2 (quadrangles), elliptic quadrics of PG(3, 2), Fano
planes, and the 3x3 grid carried by a hyperbolic quadric.  Everything
else is reported as generic with a short witness explaining what ruled
the special shapes out.

Over GF(2) collinearity is XOR: three points are collinear exactly when
they XOR to zero, and four points are coplanar in the quadric sense when
some triple XORs to the fourth.  Both are relations that one
elimination of the set (``geometry._eliminate``) finds with its rank.
"""

from __future__ import annotations

import functools
import itertools
import operator
from collections import namedtuple
from typing import Iterator, Optional, Sequence

from .geometry import Subspace, SymplecticPoint, _check_same_space, _eliminate, enumerate_points, span
from .pauli import point_word

KIND_SINGLE_POINT = "single_point"
KIND_LINE = "line"
KIND_TRIANGLE = "triangle"
KIND_AFFINE_PLANE = "affine_plane_order_2"
KIND_ELLIPTIC_QUADRIC = "cap_elliptic_quadric"
KIND_FANO_PLANE = "fano_plane"
KIND_GRID = "hyperbolic_quadric_grid"
KIND_GENERIC = "generic"


class ClassificationLabel(
    namedtuple("ClassificationLabel", "kind ambient_rank detail", defaults=("",))
):
    """The recognised shape of a point set.

    Attributes:
        kind: one of the KIND_* constants.
        ambient_rank: rank of the linear span of the set.
        detail: for generic sets, a short witness; empty otherwise.
    """

    __slots__ = ()


def _checked_points(points: Sequence[SymplecticPoint]) -> list[SymplecticPoint]:
    pts = list(points)
    if not pts:
        raise ValueError("cannot classify an empty point set")
    seen: set[int] = set()
    for p in pts:
        _check_same_space(pts[0], p)
        if p.value in seen:
            raise ValueError(f"duplicate point {point_word(p)} in set")
        seen.add(p.value)
    return pts


def _dependent_sets(relations: Sequence[int], size: int) -> Iterator[tuple[int, ...]]:
    """Index tuples of `size` points that XOR to zero, each once: the
    members of that weight in the span of the relations.  Each relation
    holds an index that no other holds, so a member of weight w sums at
    most w relations."""
    for count in range(1, size + 1):
        for combo in itertools.combinations(relations, count):
            mask = functools.reduce(operator.xor, combo)
            if mask.bit_count() == size:
                yield tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def is_cap(points: Sequence[SymplecticPoint]) -> bool:
    """Whether no three of the points are collinear: no pair's sum a ^ b,
    the third point of their line, lies in the set.

    Raises ValueError on duplicates, since a multiset cannot be a cap.
    """
    values = {p.value for p in _checked_points(points)}
    return not any(a ^ b in values for a, b in itertools.combinations(values, 2))


def classify_set(points: Sequence[SymplecticPoint]) -> ClassificationLabel:
    """Classify a set of distinct points into one of the known shapes.

    A five-point set earns the elliptic quadric label only when it spans
    a PG(3, 2) and passes both tests: no collinear triple and no
    coplanar quadruple.  The second test is not implied by the first
    over GF(2), where caps larger than quadrics exist; five independent
    points pass both and span rank 5.
    """
    pts = _checked_points(points)
    k = len(pts)
    rows, relations = _eliminate(p.value for p in pts)
    rank = len(rows)
    lines = sorted(_dependent_sets(relations, 3)) if k in (4, 5, 9) else []

    def generic(detail: str, witness: Sequence[int] = ()) -> ClassificationLabel:
        words = (point_word(pts[i]) for i in witness)
        return ClassificationLabel(KIND_GENERIC, rank, " ".join([detail, *words]))

    if k == 1:
        return ClassificationLabel(KIND_SINGLE_POINT, 1)

    if k == 3:
        return ClassificationLabel(KIND_LINE if rank == 2 else KIND_TRIANGLE, rank)

    if k in (4, 5) and lines:
        return generic("collinear triple:", lines[0])

    if k == 4:
        # With no collinear triple, four distinct points are dependent
        # exactly when all four XOR to zero.
        if rank == 3:
            return ClassificationLabel(KIND_AFFINE_PLANE, 3)
        return generic("four points in general position (XOR sum nonzero)")

    if k == 5:
        planes = sorted(_dependent_sets(relations, 4))
        if planes:
            return generic("coplanar quadruple:", planes[0])
        if rank == 4:
            return ClassificationLabel(KIND_ELLIPTIC_QUADRIC, 4)

    if k == 7 and rank == 3:
        # Seven distinct points of rank 3 fill PG(2, 2).
        return ClassificationLabel(KIND_FANO_PLANE, 3)

    if k == 9 and rank == 4 and len(lines) == 6:
        if all(sum(i in line for line in lines) == 2 for i in range(9)):
            return ClassificationLabel(KIND_GRID, 4)

    return generic(f"no recognised shape for {k} points of rank {rank}")


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
