"""Helpers and oracles that the package itself does not use, kept for the
tests, one copy each: the point a word names, every point of a space,
words as real matrices, the join of two subspaces, independent
implementations of what ``geometry._eliminate`` computes (reduced row
echelon form, the Zassenhaus intersection, the valuation solve by
Gauss-Jordan elimination with lowest-bit pivots and by an ascending
scan, and the shape witnesses of ``classify_set`` by brute-force loops),
the Mermin-square search by line partitions of nine points, and the
canonical order and the twin map on contexts in packed (value, sign) form."""

import functools
import itertools
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from bksgeom.classify import (
    KIND_AFFINE_PLANE,
    KIND_ELLIPTIC_QUADRIC,
    KIND_FANO_PLANE,
    KIND_GENERIC,
    KIND_GRID,
    KIND_LINE,
    KIND_SINGLE_POINT,
    KIND_TRIANGLE,
    ClassificationLabel,
)
from bksgeom.geometry import Subspace, SymplecticPoint, packed_form, reduce_row
from bksgeom.magic import Context, ContextError, MagicConfiguration
from bksgeom.pauli import _from_packed, packed_product, parse_observable, point_word, to_symplectic
from bksgeom.search import SearchOptions


def pt(word: str) -> SymplecticPoint:
    """The point a word names, e.g. pt("IXII")."""
    return to_symplectic(parse_observable(word))


# 2x2 real matrices of the letters; Y = XZ, so no imaginary unit appears.
_LETTER_MATRICES = {
    "I": np.array([[1, 0], [0, 1]]),
    "X": np.array([[0, 1], [1, 0]]),
    "Y": np.array([[0, -1], [1, 0]]),
    "Z": np.array([[1, 0], [0, -1]]),
}


def word_matrix(word) -> np.ndarray:
    """Independent oracle: a signed word, as text such as "-YIZ" or as a
    PauliObservable, as a dense 2^N x 2^N integer matrix, the Kronecker
    product of its letters."""
    if isinstance(word, str):
        sign, letters = (-1, word[1:]) if word.startswith("-") else (1, word)
    else:
        sign, letters = word.sign, word.letters
    return sign * functools.reduce(np.kron, (_LETTER_MATRICES[c] for c in letters))


def all_points(n: int) -> Iterator[SymplecticPoint]:
    """Yield every point of PG(2N-1, 2) in ascending canonical value order."""
    for value in range(1, 1 << (2 * n)):
        yield SymplecticPoint.from_value(n, value)


def rref(values: Iterable[int]) -> tuple[int, ...]:
    """Reduced row echelon form of GF(2) row vectors given as integers,
    pivots at the most significant bit, rows sorted descending."""
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


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    """The smallest subspace containing both operands (the join A + B)."""
    if a.n != b.n:
        raise ValueError(f"subspaces live in different spaces (n={a.n} vs n={b.n})")
    return Subspace(a.n, rref(a.rows + b.rows))


def zassenhaus_intersect(a: Subspace, b: Subspace) -> Subspace:
    """The intersection of two subspaces via the Zassenhaus construction.

    Rows of the block matrix [[A, A], [B, 0]] are reduced; rows whose
    left block is zero have right blocks spanning the intersection.
    """
    width = 2 * a.n
    stacked = [(r << width) | r for r in a.rows] + [r << width for r in b.rows]
    reduced = rref(stacked)
    inter = [row & ((1 << width) - 1) for row in reduced if row < (1 << width)]
    return Subspace(a.n, rref(inter))


def lsb_valuation_scan(masks, parities, width: int) -> int:
    """Least v in [0, 2^width) with popcount(v & masks[c]) odd iff
    parities[c], else -1, by Gauss-Jordan elimination that keeps every
    row's pivot at its lowest set bit; free bits are set to 0."""
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


def brute_valuation_scan(masks, parities, width: int) -> int:
    """Least v in [0, 2^width) with popcount(v & masks[c]) odd iff
    parities[c], else -1, by trying every v in ascending order."""
    for v in range(1 << width):
        if all(bin(v & m).count("1") % 2 == p for m, p in zip(masks, parities)):
            return v
    return -1


def collinear_triple(values: Sequence[int]) -> Optional[tuple[int, int, int]]:
    """The lexicographically first triple of indices whose values XOR to zero."""
    for i, j in itertools.combinations(range(len(values)), 2):
        third = values[i] ^ values[j]
        for k in range(j + 1, len(values)):
            if values[k] == third:
                return (i, j, k)
    return None


def coplanar_quadruple(values: Sequence[int]) -> Optional[tuple[int, int, int, int]]:
    """The lexicographically first four indices whose values XOR to zero."""
    for i, j, k in itertools.combinations(range(len(values)), 3):
        fourth = values[i] ^ values[j] ^ values[k]
        for m in range(k + 1, len(values)):
            if values[m] == fourth:
                return (i, j, k, m)
    return None


def brute_classify(points: Sequence[SymplecticPoint]) -> ClassificationLabel:
    """``classify_set`` on distinct points by brute-force loops: the rank
    from :func:`rref`, lines and planes from the XOR tests above, the
    Fano plane by closure under XOR and the grid by its triple count."""
    values = [p.value for p in points]
    rank, k = len(rref(values)), len(values)

    def generic(detail: str) -> ClassificationLabel:
        return ClassificationLabel(KIND_GENERIC, rank, detail)

    def witness(name: str, indices: Sequence[int]) -> ClassificationLabel:
        return generic(f"{name}: " + " ".join(point_word(points[i]) for i in indices))

    triple = collinear_triple(values)
    if k == 1:
        return ClassificationLabel(KIND_SINGLE_POINT, 1)
    if k == 3:
        return ClassificationLabel(*((KIND_LINE, 2) if triple else (KIND_TRIANGLE, 3)))
    if k == 4:
        if triple:
            return witness("collinear triple", triple)
        if values[0] ^ values[1] ^ values[2] ^ values[3] == 0:
            return ClassificationLabel(KIND_AFFINE_PLANE, 3)
        return generic("four points in general position (XOR sum nonzero)")
    if k == 5:
        if triple:
            return witness("collinear triple", triple)
        quad = coplanar_quadruple(values)
        if quad:
            return witness("coplanar quadruple", quad)
        if rank == 4:
            return ClassificationLabel(KIND_ELLIPTIC_QUADRIC, 4)
    if k == 7 and rank == 3:
        if all(a ^ b in values for a, b in itertools.combinations(values, 2)):
            return ClassificationLabel(KIND_FANO_PLANE, 3)
    if k == 9 and rank == 4:
        lines = [
            (i, j, m)
            for i, j, m in itertools.combinations(range(9), 3)
            if values[i] ^ values[j] == values[m]
        ]
        if len(lines) == 6 and all(sum(i in line for line in lines) == 2 for i in range(9)):
            return ClassificationLabel(KIND_GRID, 4)
    return generic(f"no recognised shape for {k} points of rank {rank}")


def partition_mermin_squares(options: SearchOptions) -> list:
    """``find_mermin_squares`` by line partitions: every split of nine
    points of W(3, 2) into three isotropic lines is listed under its point
    set, and two splits of one set are a grid's rows and columns, in the
    order of ``itertools.combinations`` on the sorted lines.  Point sets
    come in ascending order; only grids with an odd number of negative
    lines are kept, canonicalised under dedup."""
    n = 2
    lines = []
    for a, b in itertools.combinations(range(1, 1 << (2 * n)), 2):
        c = a ^ b
        if c > b and packed_form(n, a, b) == 0:
            lines.append((a, b, c))
    lines.sort()

    partitions: dict = {}
    for triple in itertools.combinations(lines, 3):
        union = set()
        for line in triple:
            union.update(line)
        if len(union) == 9:
            partitions.setdefault(frozenset(union), []).append(triple)

    def squares():
        for nineset in sorted(partitions, key=lambda s: sorted(s)):
            parts = partitions[nineset]
            # Two partitions share no line, so each line of one meets each
            # line of the other in one point: every pair is a 3x3 grid.
            if len(parts) < 2:
                continue
            if options.anchor_point is not None and options.anchor_point.value not in nineset:
                continue
            for rows, cols in itertools.combinations(parts, 2):
                grid = rows + cols
                negatives = sum(packed_product(n, line)[0] < 0 for line in grid)
                if negatives % 2 == 0:
                    continue
                contexts = tuple(tuple((v, 1) for v in line) for line in grid)
                yield canonical_contexts(contexts) if options.dedup else contexts

    return [
        MagicConfiguration(tuple(Context(tuple(_from_packed(n, *m) for m in ctx)) for ctx in contexts))
        for contexts in itertools.islice(squares(), options.limit)
    ]


def packed_contexts(config: MagicConfiguration) -> tuple:
    """The contexts as tuples of (packed value, sign), in the given order."""
    return tuple(
        tuple((obs.value, obs.sign) for obs in ctx.observables)
        for ctx in config.contexts
    )


def canonical_contexts(contexts) -> tuple:
    """The canonical order on packed contexts: members by (value, -sign),
    so + before - on one value, and contexts by their lists of member keys."""
    keyed = sorted(tuple(sorted((v, -s) for v, s in ctx)) for ctx in contexts)
    return tuple(tuple((v, -k) for v, k in ctx) for ctx in keyed)


def twin_contexts(n: int, anchor: int, contexts) -> tuple:
    """The twin map on packed contexts: every member other than the anchor
    itself and the identity is multiplied on the left by the anchor's
    positive observable P, so (v, s) becomes (anchor ^ v, s * sign of
    P * v).  Raises ContextError when P squares to -identity."""
    if packed_product(n, (anchor, anchor))[0] != 1:
        word = point_word(SymplecticPoint.from_value(n, anchor))
        raise ContextError(f"anchor {word} squares to -identity")
    return tuple(
        tuple(
            (value, sign)
            if value in (0, anchor)
            else (anchor ^ value, sign * packed_product(n, (anchor, value))[0])
            for value, sign in ctx
        )
        for ctx in contexts
    )
