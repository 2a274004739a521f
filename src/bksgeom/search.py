"""Search for magic configurations in the symplectic polar space.

Three searches are offered, selected by SearchOptions.shape:

* ``mermin_square``: 3x3 grids of two-qubit observables whose six line
  contexts certify a contradiction (ten exist, all magic).
* ``hc_rectangle``: the anchored four-qubit rectangle shape: four
  five-point elliptic quadric contexts through a common anchor point,
  each with canonical sign +1, spans pairwise meeting in lines through
  the anchor, every pair of contexts sharing exactly one further point,
  completed by the four odd-multiplicity points forming an affine plane
  context with canonical sign -1.
* ``ovoid_census``: no configurations, just the census of elliptic
  quadrics inside rank-4 ambient spaces (see :func:`cap_census`).

Rectangle search walks 4-cliques of maximal totally isotropic subspaces
through the anchor (pairwise meeting in lines) on packed integers, with
per-pair compatibility bitmasks pruning the cap choices and shared-point
distinctness pruning the surviving branches.  The anchored caps of each
subspace are mapped from one table of the caps of PG(3, 2), and the
compatibility masks come from bucketing caps by the point of the meet
line they hold.  Results stay packed, as contexts of (value, sign)
pairs, through the twin map, canonical ordering and dedup; a
MagicConfiguration is built only for a result that enters the list.
They are emitted in (configuration, twin) pairs so that truncation by
``limit`` never separates a configuration from its complement; an odd
limit simply stops one pair earlier.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from . import _kernels
from .classify import KIND_GRID, classify_set
from .geometry import (
    MAX_QUBITS,
    Subspace,
    SymplecticPoint,
    _rref,
    enumerate_points,
    packed_form,
    reduce_row,
    span,
)
from .magic import (
    MagicConfiguration,
    PackedContext,
    config_from_packed,
    packed_contexts,
    twin_contexts,
)
from .pauli import packed_product
from .rectangle import anchor_point, magic_rectangle

SHAPES = ("mermin_square", "hc_rectangle", "ovoid_census")


@dataclass(frozen=True)
class SearchOptions:
    """Parameters of a search run.

    Attributes:
        qubit_count: qubit count of the target space.
        anchor_point: common point required of rectangle contexts, or a
            membership filter for squares and the census; None picks the
            shape default (IXII for rectangles, no filter otherwise).
        shape: one of SHAPES.
        limit: maximum number of results to return (at least 1).
        dedup: canonicalise results and drop duplicates; rectangle twins
            are injected at emission only in this mode.
        seed: a known rectangle to emit first, before the systematic
            walk.  It must be one the walk itself would yield at the
            anchor, up to member signs and the order of members and
            contexts; anything else raises ValueError.
    """

    qubit_count: int
    anchor_point: Optional[SymplecticPoint] = None
    shape: str = "hc_rectangle"
    limit: int = 4
    dedup: bool = True
    seed: Optional[MagicConfiguration] = None

    def __post_init__(self) -> None:
        if self.shape not in SHAPES:
            raise ValueError(f"unknown shape {self.shape!r}; expected one of {SHAPES}")
        if not 1 <= self.qubit_count <= MAX_QUBITS:
            raise ValueError(f"qubit count must be in [1, {MAX_QUBITS}]")
        if self.limit < 1:
            raise ValueError("limit must be at least 1")
        if self.anchor_point is not None and self.anchor_point.n != self.qubit_count:
            raise ValueError(
                f"anchor lives in n={self.anchor_point.n}, "
                f"search space has n={self.qubit_count}"
            )


# ---------------------------------------------------------------------------
# shared helpers


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _canonical(contexts: Sequence[PackedContext]) -> Tuple[PackedContext, ...]:
    """Canonical order on packed contexts, which is also the dedup key.

    Members sort by :func:`observable_key` order, (value, -sign), and
    contexts by their lists of member keys.
    """
    keyed = sorted(tuple(sorted((v, -s) for v, s in ctx)) for ctx in contexts)
    return tuple(tuple((v, -k) for v, k in ctx) for ctx in keyed)


def canonical_config(config: MagicConfiguration) -> MagicConfiguration:
    """Sort members within contexts and contexts within the configuration."""
    return config_from_packed(config.n, _canonical(packed_contexts(config)))


class _Emitter:
    """Collects results up to a limit with optional canonical dedup.

    Groups arrive as packed contexts; a MagicConfiguration (validated on
    construction) is built only for a result that enters the list.
    """

    def __init__(self, n: int, limit: int, dedup: bool):
        self.n = n
        self.limit = limit
        self.dedup = dedup
        self.results: List[MagicConfiguration] = []
        self._seen: set = set()

    @property
    def full(self) -> bool:
        return len(self.results) >= self.limit

    def offer(self, group: Sequence[Sequence[PackedContext]]) -> bool:
        """Emit a group atomically; returns False when the walk should stop.

        Without dedup the group is emitted member by member, in the order
        given, and may be cut by the limit; with dedup the whole group
        must fit, keeping twin pairs intact.
        """
        if not self.dedup:
            for contexts in group:
                if self.full:
                    return False
                self.results.append(config_from_packed(self.n, contexts))
            return not self.full
        fresh = []
        for contexts in group:
            key = _canonical(contexts)
            if key not in self._seen and key not in fresh:
                fresh.append(key)
        if not fresh:
            return True
        if len(self.results) + len(fresh) > self.limit:
            return False
        for key in fresh:
            self._seen.add(key)
            self.results.append(config_from_packed(self.n, key))
        return not self.full


# ---------------------------------------------------------------------------
# caps


def _third_table(points: Sequence[SymplecticPoint]) -> List[List[int]]:
    """third[i][j] is the index of points[i] XOR points[j]; the diagonal is -1."""
    index = {p.value: i for i, p in enumerate(points)}
    return [[index.get(p.value ^ q.value, -1) for q in points] for p in points]


def enumerate_caps(subspace: Subspace) -> List[Tuple[SymplecticPoint, ...]]:
    """All elliptic quadrics (5 points, no 3 collinear, no 4 coplanar)
    inside a rank-4 subspace, in lexicographic point order.
    """
    if subspace.rank != 4:
        raise ValueError(
            f"cap enumeration needs a rank-4 ambient space, got rank {subspace.rank}"
        )
    points = enumerate_points(subspace)
    rows = _kernels.cap_subsets(_third_table(points), -1)
    return [tuple(points[i] for i in row) for row in rows]


@functools.lru_cache(maxsize=None)
def _anchored_cap_patterns() -> Tuple[Tuple[int, ...], ...]:
    """The 56 caps of PG(3, 2) through the coordinate point e1 = 0b0001.

    Points of GF(2)^4 are the values 1..15 (index i holds i + 1).  A
    rank-4 subspace with a basis whose first vector is the anchor maps
    these patterns onto its anchored caps, since a linear bijection
    keeps collinear triples and coplanar quadruples.
    """
    third = [[(i ^ j) - 1 for j in range(1, 16)] for i in range(1, 16)]
    return tuple(
        tuple(i + 1 for i in row) for row in _kernels.cap_subsets(third, 0)
    )


@functools.lru_cache(maxsize=8)
def maximal_isotropic_through(point: SymplecticPoint) -> Tuple[Subspace, ...]:
    """Every maximal totally isotropic subspace containing the point.

    These have rank N; through any point of W(2N-1, 2) there are
    (2 + 1)(4 + 1)...(2^(N-1) + 1) = 1, 3, 15, 135 for N = 1..4.  The
    depth-first walk runs on packed values over the point's perp: an
    RREF row tuple grows by the least point of each commuting coset.
    """
    n, width, start = point.n, 2 * point.n, (point.value,)
    perp = [q for q in range(1, 1 << width) if not packed_form(n, q, point.value)]
    seen = {start}
    stack = [(start, perp)]
    found: List[Tuple[int, ...]] = []
    while stack:
        rows, candidates = stack.pop()
        if len(rows) == n:
            found.append(rows)
            continue
        for q in candidates:
            if reduce_row(q, rows) != q:
                continue
            new = _rref(rows + (q,), width)
            if new not in seen:
                seen.add(new)
                stack.append((new, [c for c in candidates if not packed_form(n, c, q)]))
    return tuple(Subspace(n, rows) for rows in sorted(found))


def cap_census(options: SearchOptions) -> List[Tuple[Subspace, List[Tuple[SymplecticPoint, ...]]]]:
    """Elliptic quadric census for the ovoid_census shape.

    Two qubits: the single ambient PG(3, 2) is the whole space.  Four
    qubits: the four maximal totally isotropic subspaces spanned by the
    built-in rectangle contexts.  An anchor filters caps by membership.
    Other qubit counts have no rank-4 ambient space singled out and are
    rejected.
    """
    if options.shape != "ovoid_census":
        raise ValueError("cap_census expects shape 'ovoid_census'")
    n = options.qubit_count
    if n == 2:
        unit = [SymplecticPoint.from_value(2, 1 << i) for i in range(4)]
        ambients = [span(unit)]
    elif n == 4:
        spans = magic_rectangle().context_spans()
        ambients = [s for s in spans[:4] if s is not None]
    else:
        raise ValueError(
            "ovoid census supports 2 qubits (the full PG(3,2)) or 4 qubits "
            "(the built-in ambient spaces); got "
            f"{n}"
        )
    out = []
    for amb in ambients:
        caps = enumerate_caps(amb)
        if options.anchor_point is not None:
            caps = [c for c in caps if options.anchor_point in c]
        out.append((amb, caps))
    return out


# ---------------------------------------------------------------------------
# mermin squares


def find_mermin_squares(options: SearchOptions) -> List[MagicConfiguration]:
    """All 3x3 observable grids at two qubits whose row and column
    contexts form a certified magic configuration.

    Deterministic: grids are generated in ascending order of their
    point sets and results are canonicalised under dedup.
    """
    if options.shape != "mermin_square":
        raise ValueError("find_mermin_squares expects shape 'mermin_square'")
    if options.qubit_count != 2:
        raise ValueError("mermin square search is defined for 2 qubits")
    n = 2
    values = range(1, 1 << (2 * n))
    lines = []
    for a, b in itertools.combinations(values, 2):
        c = a ^ b
        if c > b and packed_form(n, a, b) == 0:
            lines.append((a, b, c))
    lines.sort()

    partitions: Dict[frozenset, List[Tuple[Tuple[int, ...], ...]]] = {}
    for triple in itertools.combinations(lines, 3):
        union = set()
        for line in triple:
            union.update(line)
        if len(union) == 9:
            partitions.setdefault(frozenset(union), []).append(triple)

    emitter = _Emitter(n, options.limit, options.dedup)
    for nineset in sorted(partitions, key=lambda s: sorted(s)):
        parts = partitions[nineset]
        if len(parts) < 2:
            continue
        pts = [SymplecticPoint.from_value(n, v) for v in sorted(nineset)]
        if classify_set(pts).kind != KIND_GRID:
            continue
        if options.anchor_point is not None and options.anchor_point not in pts:
            continue
        for rows, cols in itertools.combinations(parts, 2):
            lines = rows + cols
            negatives = sum(packed_product(n, line)[0] < 0 for line in lines)
            if negatives % 2 == 0:
                continue
            contexts = tuple(tuple((v, 1) for v in line) for line in lines)
            if not emitter.offer([contexts]):
                return emitter.results
    return emitter.results


# ---------------------------------------------------------------------------
# rectangles


def _negative_affine(n: int, values: Sequence[int]) -> bool:
    """Whether the packed points sum to zero, pairwise commute and have
    canonical product sign -1: a valid affine context of sign -1."""
    if packed_product(n, values) != (-1, 0):
        return False
    return not any(packed_form(n, u, v) for u, v in itertools.combinations(values, 2))


class _RectangleWalk:
    """State of the clique walk on packed values: coordinates, caps, compat masks.

    Each Lagrangian's anchored caps are the images of one table, the 56
    caps of PG(3, 2) through e1, under a basis whose first vector is the
    anchor.  Two Lagrangians meeting in a line share the anchor and two
    further points p and anchor ^ p, and a cap holds at most one of those
    (it has no collinear triple); caps of the two meet in exactly one
    further point iff they hold the same one, so compatibility masks come
    from bucketing one side's caps by that point.
    """

    def __init__(self, anchor: SymplecticPoint):
        self.anchor = anchor.value
        self.n = anchor.n
        self.lagrangians = maximal_isotropic_through(anchor)
        self._images = [self._coordinates(sub.rows) for sub in self.lagrangians]
        self._point_masks = [sum(1 << v for v in image[1:]) for image in self._images]
        self._caps: Dict[int, List[Tuple[int, ...]]] = {}
        self._cap_masks: Dict[int, List[int]] = {}
        self._compat: Dict[Tuple[int, int], Tuple[List[int], List[int]]] = {}

    def _coordinates(self, rows: Tuple[int, ...]) -> List[int]:
        """image[c] is the point with coordinates c (1..15) in a basis of
        the Lagrangian whose first vector is the anchor; image[0] = 0."""
        basis = list(rows)
        # The anchor is the sum of the RREF rows whose pivot bit it has;
        # trading the first of those for it keeps a basis.
        for k, row in enumerate(basis):
            if self.anchor >> (row.bit_length() - 1) & 1:
                del basis[k]
                break
        basis.insert(0, self.anchor)
        image = [0] * 16
        for c in range(1, 16):
            image[c] = image[c & (c - 1)] ^ basis[(c & -c).bit_length() - 1]
        return image

    def caps(self, i: int) -> List[Tuple[int, ...]]:
        """Anchored caps of Lagrangian i with canonical sign +1, as sorted
        value tuples in lexicographic order."""
        if i not in self._caps:
            image = self._images[i]
            good = []
            for pattern in _anchored_cap_patterns():
                vals = tuple(sorted(image[c] for c in pattern))
                if packed_product(self.n, vals) == (1, 0):
                    good.append(vals)
            good.sort()
            self._caps[i] = good
            self._cap_masks[i] = [sum(1 << v for v in cap) for cap in good]
        return self._caps[i]

    def pair_ok(self, i: int, j: int) -> bool:
        """Spans must meet in a line: exactly three common points."""
        return (self._point_masks[i] & self._point_masks[j]).bit_count() == 3

    def compat(self, i: int, j: int) -> Tuple[List[int], List[int]]:
        """Pair compatibility between the cap lists of two Lagrangians
        that meet in a line (see :meth:`pair_ok`).

        Returns (masks, shared): masks[a] is a bitmask over caps(j) of
        the caps sharing exactly the anchor plus one further point with
        cap a of caps(i), and shared[a] is that further point: the point
        of the meet line cap a holds (-1 when it holds none).
        """
        key = (i, j)
        if key not in self._compat:
            self.caps(i)
            self.caps(j)
            meet = (self._point_masks[i] & self._point_masks[j]) ^ (1 << self.anchor)
            buckets: Dict[int, int] = {}
            for b, cap in enumerate(self._cap_masks[j]):
                held = cap & meet
                if held:
                    buckets[held] = buckets.get(held, 0) | 1 << b
            masks: List[int] = []
            shared: List[int] = []
            for cap in self._cap_masks[i]:
                held = cap & meet
                masks.append(buckets.get(held, 0))
                shared.append(held.bit_length() - 1)
            self._compat[key] = (masks, shared)
        return self._compat[key]

    def rectangles(self, a: int, b: int, c: int, d: int) -> Iterator[Tuple[PackedContext, ...]]:
        """Packed contexts of every rectangle on the 4-clique a < b < c < d.

        The further point two caps share depends on either cap alone (see
        :meth:`compat`), so each test that two of the six shared points
        differ runs in the outermost loop fixing both.  A shared point
        occurring twice would sit in three caps, breaking even
        multiplicity.  Once they differ, the points of odd multiplicity
        are the XOR of the four cap masks.
        """
        caps_a, caps_b, caps_c, caps_d = (self.caps(i) for i in (a, b, c, d))
        masks_a, masks_b, masks_c, masks_d = (self._cap_masks[i] for i in (a, b, c, d))
        ab_mask, ab_val = self.compat(a, b)
        ac_mask, ac_val = self.compat(a, c)
        ad_mask, ad_val = self.compat(a, d)
        bc_mask, bc_val = self.compat(b, c)
        bd_mask, bd_val = self.compat(b, d)
        cd_mask, cd_val = self.compat(c, d)
        for ia in range(len(caps_a)):
            if not (ab_mask[ia] and ac_mask[ia] and ad_mask[ia]):
                continue
            s_ab, s_ac, s_ad = ab_val[ia], ac_val[ia], ad_val[ia]
            if s_ac == s_ab or s_ad == s_ab or s_ad == s_ac:
                continue
            for ib in _bits(ab_mask[ia]):
                s_bc, s_bd = bc_val[ib], bd_val[ib]
                if s_bc == s_ab or s_bd == s_ab or s_bd == s_bc:
                    continue
                mask_c = ac_mask[ia] & bc_mask[ib]
                if not mask_c:
                    continue
                mask_d0 = ad_mask[ia] & bd_mask[ib]
                if not mask_d0:
                    continue
                odd_ab = masks_a[ia] ^ masks_b[ib]
                for ic in _bits(mask_c):
                    s_cd = cd_val[ic]
                    if s_cd == s_ac or s_cd == s_bc:
                        continue
                    odd_abc = odd_ab ^ masks_c[ic]
                    for id_ in _bits(mask_d0 & cd_mask[ic]):
                        odd = tuple(_bits(odd_abc ^ masks_d[id_]))
                        quads = (caps_a[ia], caps_b[ib], caps_c[ic], caps_d[id_])
                        if _negative_affine(self.n, odd):
                            yield tuple(tuple((v, 1) for v in ctx) for ctx in (*quads, odd))

    def holds(self, contexts: Sequence[PackedContext]) -> bool:
        """Whether packed contexts are one of the rectangles the walk
        yields, in any member and context order and with any member signs.

        The span of each five-member context must be one of the
        Lagrangians, four distinct ones pairwise meeting in lines; the
        sorted point sets must then equal those of a rectangle on them.
        """
        index = {sub.rows: i for i, sub in enumerate(self.lagrangians)}
        clique = sorted(
            index.get(_rref((v for v, _ in ctx), 2 * self.n), -1)
            for ctx in contexts
            if len(ctx) == 5
        )
        if len(clique) != 4 or len(set(clique)) != 4 or clique[0] < 0:
            return False
        if not all(self.pair_ok(i, j) for i, j in itertools.combinations(clique, 2)):
            return False
        points = sorted(tuple(sorted(v for v, _ in ctx)) for ctx in contexts)
        return any(
            points == sorted(tuple(v for v, _ in ctx) for ctx in rectangle)
            for rectangle in self.rectangles(*clique)
        )


def find_magic_rectangles(options: SearchOptions) -> List[MagicConfiguration]:
    """Anchored rectangle search at four qubits.

    Walks 4-cliques of maximal totally isotropic subspaces through the
    anchor in canonical order, prunes cap choices with pairwise
    compatibility bitmasks, and completes each surviving quadruple with
    its four odd-multiplicity points.  Under dedup every found
    configuration is emitted together with its complement, so the
    result list is closed under twinning at any even limit.
    """
    if options.shape != "hc_rectangle":
        raise ValueError("find_magic_rectangles expects shape 'hc_rectangle'")
    if options.qubit_count != 4:
        raise ValueError("rectangle search is defined for 4 qubits")
    anchor = options.anchor_point or anchor_point()
    n = anchor.n
    emitter = _Emitter(n, options.limit, options.dedup)
    walk = _RectangleWalk(anchor)

    def emit(contexts: Tuple[PackedContext, ...]) -> bool:
        if options.dedup:
            return emitter.offer([contexts, twin_contexts(n, anchor.value, contexts)])
        return emitter.offer([contexts])

    if options.seed is not None:
        seed = packed_contexts(options.seed)
        if options.seed.n != n or not walk.holds(seed):
            raise ValueError("seed configuration does not have the rectangle shape")
        if not emit(seed):
            return emitter.results

    count = len(walk.lagrangians)
    for a in range(count):
        if not walk.caps(a):
            continue
        for b in range(a + 1, count):
            if not walk.pair_ok(a, b) or not walk.caps(b):
                continue
            for c in range(b + 1, count):
                if not (walk.pair_ok(a, c) and walk.pair_ok(b, c)):
                    continue
                if not walk.caps(c):
                    continue
                for d in range(c + 1, count):
                    if not (
                        walk.pair_ok(a, d)
                        and walk.pair_ok(b, d)
                        and walk.pair_ok(c, d)
                    ):
                        continue
                    if not walk.caps(d):
                        continue
                    for contexts in walk.rectangles(a, b, c, d):
                        if not emit(contexts):
                            return emitter.results
    return emitter.results


# Alias matching the CLI shape token.
find_hc_rectangles = find_magic_rectangles
