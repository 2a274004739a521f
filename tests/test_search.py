"""Tests for the cap census, square search, and rectangle search."""

import functools
import hashlib
import itertools
import math
import tracemalloc
from typing import Dict, Iterator, List, Sequence, Tuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bksgeom import _kernels, classify, geometry, magic, search
from bksgeom.classify import (
    KIND_AFFINE_PLANE,
    KIND_ELLIPTIC_QUADRIC,
    KIND_GRID,
    classify_set,
)
from bksgeom.geometry import (
    SymplecticPoint,
    _span_values,
    enumerate_points,
    intersect,
    packed_form,
    span,
)
from bksgeom.magic import (
    Context,
    ContextError,
    MagicConfiguration,
    complement_config,
    parity_witness,
    shared_point,
)
from bksgeom.pauli import (
    _from_packed,
    from_symplectic,
    multiply,
    packed_product,
    parse_observable,
    point_word,
)
from bksgeom.rectangle import anchor_point, magic_rectangle
from bksgeom.search import (
    PackedContext,
    SearchOptions,
    _bits,
    _RectangleWalk,
    canonical_config,
    cap_census,
    enumerate_caps,
    find_magic_rectangles,
    find_mermin_squares,
    maximal_isotropic_through,
)

from reference_geometry import (
    canonical_contexts,
    is_isotropic,
    packed_contexts,
    partition_mermin_squares,
    pt,
    rref,
    subspace_sum,
    twin_contexts,
    word_matrix,
)


S1_POINTS = frozenset(
    pt(w).value for w in ("ZIII", "IXII", "IIZI", "IIIX", "ZXZX")
)


# ---------------------------------------------------------------------------
# search options


def test_options_validation():
    with pytest.raises(ValueError, match="unknown shape"):
        SearchOptions(qubit_count=4, shape="pentagon")
    with pytest.raises(ValueError, match="limit"):
        SearchOptions(qubit_count=4, limit=0)
    with pytest.raises(ValueError, match="qubit count"):
        SearchOptions(qubit_count=0)
    with pytest.raises(ValueError, match="anchor"):
        SearchOptions(qubit_count=4, anchor_point=pt("XI"))


# ---------------------------------------------------------------------------
# cap enumeration and census


def test_enumerate_caps_matches_brute_force():
    ambient = span([pt(w) for w in ("ZIII", "IXII", "IIZI", "IIIX")])
    caps = enumerate_caps(ambient)
    assert len(caps) == 168
    got = {frozenset(p.value for p in cap) for cap in caps}
    points = enumerate_points(ambient)
    expect = set()
    for combo in itertools.combinations(points, 5):
        if classify_set(combo).kind == KIND_ELLIPTIC_QUADRIC:
            expect.add(frozenset(p.value for p in combo))
    assert got == expect
    assert S1_POINTS in got


def test_enumerate_caps_rejects_wrong_rank():
    with pytest.raises(ValueError, match="rank-4"):
        enumerate_caps(span([pt("ZIII"), pt("IXII")]))


def test_census_two_qubits():
    results = cap_census(SearchOptions(qubit_count=2, shape="ovoid_census"))
    assert len(results) == 1
    ambient, caps = results[0]
    assert ambient.rank == 4
    assert len(caps) == 168


def test_census_four_qubits():
    results = cap_census(SearchOptions(qubit_count=4, shape="ovoid_census"))
    assert len(results) == 4
    for ambient, caps in results:
        assert ambient.rank == 4
        assert is_isotropic(ambient)
        assert len(caps) == 168
    first_caps = {frozenset(p.value for p in cap) for cap in results[0][1]}
    assert S1_POINTS in first_caps


def test_census_anchor_filter():
    anchored = cap_census(
        SearchOptions(
            qubit_count=4, shape="ovoid_census", anchor_point=anchor_point()
        )
    )
    for _, caps in anchored:
        assert len(caps) == 56
        for cap in caps:
            assert anchor_point() in cap


def test_census_rejects_other_sizes():
    with pytest.raises(ValueError, match="ovoid census supports"):
        cap_census(SearchOptions(qubit_count=3, shape="ovoid_census"))
    with pytest.raises(ValueError, match="expects shape"):
        cap_census(SearchOptions(qubit_count=2, shape="mermin_square"))


# ---------------------------------------------------------------------------
# maximal totally isotropic subspaces


def test_lagrangians_through_the_anchor():
    subs = maximal_isotropic_through(anchor_point())
    assert len(subs) == 135
    rows = [s.rows for s in subs]
    assert rows == sorted(rows)
    assert len(set(rows)) == 135
    for s in subs:
        assert s.rank == 4
        assert is_isotropic(s)
        assert anchor_point().value in {p.value for p in enumerate_points(s)}
    builtin = {s.rows for s in magic_rectangle().context_spans()[:4]}
    assert builtin <= set(rows)


def test_lagrangian_pair_rank_distribution():
    subs = maximal_isotropic_through(anchor_point())
    dist: dict[int, int] = {}
    for a, b in itertools.combinations(subs, 2):
        r = intersect(a, b).rank
        dist[r] = dist.get(r, 0) + 1
    assert dist == {1: 4320, 2: 3780, 3: 945}


def _commute(n: int, u: int, v: int) -> bool:
    """Qubit by qubit: the X and Z bits of one qubit sit at bits n + k and k."""
    odd = 0
    for k in range(n):
        xu, zu = u >> (n + k) & 1, u >> k & 1
        xv, zv = v >> (n + k) & 1, v >> k & 1
        odd ^= xu & zv ^ zu & xv
    return odd == 0


def _closure(values) -> frozenset:
    """Nonzero XORs of every subset of the values."""
    points = {0}
    for v in values:
        points |= {p ^ v for p in points}
    return frozenset(points - {0})


def _brute_force_lagrangians(n: int, anchor: int) -> set:
    """Point sets of rank-n totally isotropic spans of n perp points."""
    perp = [q for q in range(1, 1 << (2 * n)) if _commute(n, q, anchor)]
    found = set()
    for combo in itertools.combinations(perp, n):
        if not all(_commute(n, u, v) for u, v in itertools.combinations(combo, 2)):
            continue
        points = _closure(combo)
        if len(points) == (1 << n) - 1 and anchor in points:
            found.add(points)
    return found


# Every anchor for n <= 3 (3 + 15 + 63 words), where brute force is cheap,
# and a few above it.
SMALL_WORDS = [_from_packed(n, v, 1).letters for n in (1, 2, 3) for v in range(1, 1 << (2 * n))]


@pytest.mark.parametrize(
    "word", SMALL_WORDS + ["IXII", "XIIZ", "YYYY", "YIII", "IXIII", "YYYYY", "YIIII"]
)
def test_lagrangians_against_the_count_and_brute_force(word):
    anchor = pt(word)
    n = anchor.n
    subs = maximal_isotropic_through(anchor)
    assert len(subs) == math.prod((1 << i) + 1 for i in range(1, n))
    rows = [s.rows for s in subs]
    assert rows == sorted(rows)
    assert len(set(rows)) == len(rows)
    for s in subs:
        assert s.rank == n
        assert is_isotropic(s)
        assert anchor.value in _closure(s.rows)
    if n <= 3:
        assert {_closure(r) for r in rows} == _brute_force_lagrangians(n, anchor.value)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_lagrangian_rows_and_bitsets_match_rref_and_span(n):
    """At every anchor of n qubits, the pass's rows are the RREF of each
    leaf's span and its bitsets are the span values of those rows, as
    maximal_isotropic_through gives them."""
    for value in range(1, 1 << 2 * n):
        point = SymplecticPoint.from_value(n, value)
        rows, masks = search._lagrangians(point)
        assert len(rows) == len(masks) == math.prod((1 << i) + 1 for i in range(1, n))
        assert list(rows) == sorted(rows)
        assert tuple(sub.rows for sub in maximal_isotropic_through(point)) == rows
        for basis, mask in zip(rows, masks):
            assert rref(_bits(mask)) == basis
            assert mask == sum(1 << v for v in _span_values(basis)[1:])
            assert mask >> value & 1


# The anchors of the benchmark's rect_search pools that square to +identity.
POOL_WORDS = [
    "IXII", "ZXXZ", "XIIZ", "IZZI", "ZIXX", "XIXZ", "XZIX", "ZXXX",
    "YYYY", "XYYX", "YIZY", "YZXY", "YIYI", "XYZY", "IYXY", "YYII",
]


@functools.lru_cache(maxsize=None)
def _commuting(n: int, row: int) -> frozenset:
    return frozenset(v for v in range(1, 1 << 2 * n) if _commute(n, v, row))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_lagrangian_bitsets_are_the_perps_of_their_rows(n):
    """A Lagrangian is its own perp: each bitset is the set of nonzero
    values that commute with every one of its RREF rows.  Every anchor
    for n <= 3; the pool anchors and YIII at four qubits."""
    points = [pt(w) for w in POOL_WORDS + ["YIII"]] if n == 4 else [
        SymplecticPoint.from_value(n, v) for v in range(1, 1 << 2 * n)
    ]
    for point in points:
        for rows, mask in zip(*search._lagrangians(point)):
            assert set(_bits(mask)) == frozenset.intersection(*(_commuting(n, r) for r in rows))


@pytest.mark.parametrize("n", [7, 16])
def test_lagrangian_listing_refuses_seven_qubits_and_more(n):
    """From seven qubits on the listing would hold millions of bitsets of
    2^(2N) bits, so it raises with the count before building any table."""
    count = math.prod((1 << i) + 1 for i in range(1, n))
    built = search._perp_tables.cache_info().currsize
    with pytest.raises(ValueError, match=f"^{count} Lagrangians pass through a point of {n} qubits"):
        maximal_isotropic_through(SymplecticPoint.from_value(n, 1))
    assert search._perp_tables.cache_info().currsize == built
    assert count >= 4_922_775


def test_cold_search_makes_no_rref_call_and_no_subspace(monkeypatch):
    """A cold seedless limit=4 search reads each Lagrangian's RREF rows
    off its greedy basis, never runs the elimination and never wraps
    the rows in a Subspace."""
    calls = {"eliminate": 0, "subspace": 0}
    eliminate, new = geometry._eliminate, geometry.Subspace.__new__

    def counted_eliminate(*args):
        calls["eliminate"] += 1
        return eliminate(*args)

    def counted_new(cls, *args, **kwargs):
        calls["subspace"] += 1
        return new(cls, *args, **kwargs)

    for module in (geometry, classify, _kernels):
        monkeypatch.setattr(module, "_eliminate", counted_eliminate)
    monkeypatch.setattr(geometry.Subspace, "__new__", staticmethod(counted_new))
    search._lagrangians.cache_clear()
    results = find_magic_rectangles(rect_options(limit=4))
    assert len(results) == 4
    assert calls == {"eliminate": 0, "subspace": 0}


def test_pair_meet_rank_by_dimension_formula():
    walk = _RectangleWalk(anchor_point())
    subs = maximal_isotropic_through(anchor_point())
    assert tuple(sub.rows for sub in subs) == walk.lagrangians
    for i, j in itertools.combinations(range(len(subs)), 2):
        a, b = subs[i], subs[j]
        meet = intersect(a, b).rank
        assert a.rank + b.rank - subspace_sum(a, b).rank == meet
        assert walk.pair_ok(i, j) == (meet == 2)


# The per-subspace cap grower and its XOR table, which the one cap
# table of PG(3, 2) replaced; kept here as references.


def _third_table(points: Sequence[SymplecticPoint]) -> List[List[int]]:
    """third[i][j] is the index of points[i] XOR points[j]; the diagonal is -1."""
    index = {p.value: i for i, p in enumerate(points)}
    return [[index.get(p.value ^ q.value, -1) for q in points] for p in points]


def cap_subsets(third, fixed: int = -1) -> list[tuple[int, ...]]:
    """Index 5-tuples forming caps with no coplanar quadruple.

    ``third[i][j]`` must give the index of point_i XOR point_j inside
    the same closed point list (any rank-4 subspace works).  When
    ``fixed`` is non-negative only subsets containing it are returned.
    Rows come back in lexicographic order, each sorted.

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


def _reference_anchored_caps(sub, anchor: int) -> list:
    """Reference for the cap table: enumerate the subspace's points, run
    the cap grower with the anchor fixed, keep canonical sign +1."""
    points = enumerate_points(sub)
    anchor_index = [p.value for p in points].index(anchor)
    good = []
    for row in cap_subsets(_third_table(points), anchor_index):
        vals = tuple(points[j].value for j in row)
        if packed_product(sub.n, vals) == (1, 0):
            good.append(vals)
    return good


def _reference_points(s):
    """The subset loop that enumerate_points ran before the span-value table."""
    values: list[int] = []
    for picks in range(1, 1 << s.rank):
        acc = 0
        for i in range(s.rank):
            if (picks >> i) & 1:
                acc ^= s.rows[i]
        values.append(acc)
    values.sort()
    return [SymplecticPoint.from_value(s.n, v) for v in values]


def test_cap_table_and_points_match_the_grower_and_subset_loop():
    subs = list(magic_rectangle().context_spans()[:4])
    subs.append(span([SymplecticPoint.from_value(2, 1 << i) for i in range(4)]))
    for word in ("IXII", "YYYY"):
        subs += maximal_isotropic_through(pt(word))
    assert len(subs) == 275
    for sub in subs:
        points = _reference_points(sub)
        assert enumerate_points(sub) == points
        rows = cap_subsets(_third_table(points))
        assert enumerate_caps(sub) == [tuple(points[i] for i in row) for row in rows]


def _negative_affine(n: int, values: Sequence[int]) -> bool:
    """Whether the packed points sum to zero, pairwise commute and have
    canonical product sign -1: a valid affine context of sign -1.  The
    reference for the walk's affine sign masks."""
    if packed_product(n, values) != (-1, 0):
        return False
    return not any(packed_form(n, u, v) for u, v in itertools.combinations(values, 2))


# The walk that mapped a 56-row anchored cap table into each Lagrangian
# and bucketed caps into per-pair compatibility masks, which the six
# meet-line picks replaced; kept here as the reference walk.


@functools.lru_cache(maxsize=None)
def _anchored_cap_patterns() -> Tuple[Tuple[int, ...], ...]:
    """The 56 caps of PG(3, 2) through the coordinate point e1 = 0b0001.

    A rank-4 subspace with a basis whose first vector is the anchor maps
    these patterns onto its anchored caps.
    """
    return tuple(row for row in _kernels.cap_subsets() if row[0] == 1)


class _ReferenceWalk:
    """State of the clique walk on packed values: coordinates, caps, compat masks.

    Each Lagrangian's anchored caps are the images of the cap table's 56
    rows through e1 under a basis whose first vector is the anchor.  Two
    Lagrangians meeting in a line share the anchor and two further
    points p and anchor ^ p, and a cap holds at most one of those
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
        # The anchor is the sum of the RREF rows whose pivot bit it has;
        # trading the first of those for it keeps a basis.
        k = next(k for k, row in enumerate(rows) if self.anchor >> (row.bit_length() - 1) & 1)
        return _span_values((self.anchor, *rows[:k], *rows[k + 1 :]))

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


@pytest.mark.parametrize("word", ["IXII", "YYYY", "XIIZ"])
def test_cap_table_matches_the_per_lagrangian_kernel(word):
    walk = _ReferenceWalk(pt(word))
    assert len(walk.lagrangians) == 135
    assert tuple(sub.rows for sub in walk.lagrangians) == _RectangleWalk(pt(word)).lagrangians
    for i, sub in enumerate(walk.lagrangians):
        assert walk.caps(i) == _reference_anchored_caps(sub, pt(word).value)


@pytest.mark.parametrize("word", ["IXII", "YYYY"])
def test_compat_buckets_match_the_popcount_definition(word):
    anchor = pt(word).value
    walk = _ReferenceWalk(pt(word))
    cap_masks = [
        [sum(1 << v for v in cap) for cap in walk.caps(i)]
        for i in range(len(walk.lagrangians))
    ]
    pairs = 0
    for i, j in itertools.combinations(range(len(walk.lagrangians)), 2):
        if not walk.pair_ok(i, j):
            continue
        pairs += 1
        masks, shared = walk.compat(i, j)
        assert len(masks) == len(shared) == len(cap_masks[i])
        for a, cap_a in enumerate(cap_masks[i]):
            mask, extra = 0, set()
            for b, cap_b in enumerate(cap_masks[j]):
                meet = cap_a & cap_b
                if meet.bit_count() == 2:
                    mask |= 1 << b
                    extra.add((meet ^ 1 << anchor).bit_length() - 1)
            assert masks[a] == mask
            if mask:
                assert extra == {shared[a]}
    assert pairs == 3780


def _unpack(walk, ids) -> tuple:
    """The packed contexts of a tuple of the walk's context ids."""
    return tuple(walk.contexts[i] for i in ids)


def _cliques(walk) -> list:
    """Every 4-clique of Lagrangians pairwise meeting in lines, in order."""
    count = len(walk.lagrangians)
    later = [
        [j for j in range(i + 1, count) if walk.pair_ok(i, j)] for i in range(count)
    ]
    return [
        (a, b, c, d)
        for a in range(count)
        for b in later[a]
        for c in later[b]
        if walk.pair_ok(a, c)
        for d in later[c]
        if walk.pair_ok(a, d) and walk.pair_ok(b, d)
    ]


@pytest.mark.parametrize(
    "word, rectangles", [("IXII", 2560), ("YYYY", 2776), ("XIIZ", 3072), ("YIII", 3156)]
)
def test_six_line_walk_matches_the_reference_walk(word, rectangles):
    """The walk's cliques are the reference 4-cliques a < b < c < d whose
    meet lines ab, ac and ad hold, with the anchor, four independent
    points (the cap at a needs them), in order; every clique left out
    carries no rectangle under the reference walk; and rectangles() on
    every 40th reference clique matches the reference walk, order
    included.  At the odd-Y anchor YIII the cap signs carry the
    quadratic term q(p) (ij + ik + jk) in the picks (see
    _RectangleWalk._mask)."""
    walk, reference = _RectangleWalk(pt(word)), _ReferenceWalk(pt(word))
    p, masks = walk.anchor, reference._point_masks

    @functools.lru_cache(maxsize=None)
    def independent(x: int, y: int, z: int) -> bool:
        return len(rref((p, x, y, z))) == 4

    def further(i: int, j: int) -> int:  # a point of the meet line other than the anchor
        return (masks[i] & masks[j] ^ 1 << p).bit_length() - 1

    cliques = _cliques(reference)
    kept, dropped = [], []
    for a, b, c, d in cliques:
        lines = further(a, b), further(a, c), further(a, d)
        (kept if independent(*lines) else dropped).append((a, b, c, d))
    assert list(walk.cliques()) == kept
    assert kept and dropped
    assert not any(True for clique in dropped for _ in reference.rectangles(*clique))
    found = 0
    for clique in cliques[::40]:
        got = [_unpack(walk, ids) for ids in walk.rectangles(*clique)]
        assert got == list(reference.rectangles(*clique)), clique
        found += len(got)
    assert found == rectangles


def _reference_cap(walk, x: int, y: int, z: int):
    """The per-pick cap test that the closed-form pick masks replaced:
    the packed cap {p, x, y, z, p ^ x ^ y ^ z} through the anchor p,
    sorted with sign +1, or None unless its five points are distinct and
    nonzero and their sorted product has sign +1."""
    points = {walk.anchor, x, y, z, walk.anchor ^ x ^ y ^ z}
    if 0 in points or len(points) != 5:
        return None
    values = sorted(points)
    if packed_product(walk.n, values) != (1, 0):
        return None
    return tuple((v, 1) for v in values)


@settings(max_examples=3, deadline=None)
@given(word=st.sampled_from(["IXII", "YYYY", "YIII"]), start=st.integers(0, 999))
@example(word="IXII", start=0)
@example(word="YYYY", start=0)
@example(word="YIII", start=0)
def test_pick_masks_match_the_cap_on_every_pick(word, start):
    """On every 1000th clique: each 8-bit pick mask is the per-pick cap
    test over its eight pick triples, each spread mask is that test over
    the 64 pick combos, the affine mask is _negative_affine on the sorted
    odd points of all 64 combos, and at an even-Y anchor the combos on
    which all four caps are caps are closed under taking the other point
    on every meet line (k -> k ^ 63)."""
    walk = _RectangleWalk(pt(word))
    carried = negative = 0
    for clique in _cliques(walk)[start::1000]:
        lines = [walk._line(i, j) for i, j in itertools.combinations(clique, 2)]
        combos = (1 << 64) - 1
        for cap, slots in enumerate(search._CAP_SLOTS):
            x, y, z = (lines[s] for s in slots)
            mask = walk._mask(x, y, z)
            triples = itertools.product(range(2), repeat=3)
            caps = {4 * i + 2 * j + k: _reference_cap(walk, x[i], y[j], z[k]) for i, j, k in triples}
            assert mask == sum(1 << t for t, cap_t in caps.items() if cap_t)
            for t in _bits(mask):
                assert walk.contexts[walk._cap(x[t >> 2], y[t >> 1 & 1], z[t & 1])] == caps[t]
            spread = search._spread(mask, cap)
            assert spread == sum(
                1 << combo
                for combo in range(64)
                if _reference_cap(walk, *(lines[s][combo >> s & 1] for s in slots))
            )
            combos &= spread
        affine = 0
        for combo in range(64):
            picks = [line[combo >> s & 1] for s, line in enumerate(lines)]
            odd = sorted(walk.anchor ^ picks[i] ^ picks[j] ^ picks[k] for i, j, k in search._CAP_SLOTS)
            affine |= _negative_affine(walk.n, odd) << combo
        assert walk._affine(lines) == affine
        if word.count("Y") % 2 == 0:
            assert combos == sum(1 << (combo ^ 63) for combo in _bits(combos))
        carried += combos != 0
        negative += affine != 0
    assert carried > 0 and negative > 0


@pytest.mark.parametrize(
    "word, products, cliques", [("IXII", 388, 328), ("YYYY", 756, 505), ("XIIZ", 251, 60)]
)
def test_warm_search_rejects_cliques_before_building_caps(monkeypatch, word, products, cliques):
    """A warm limit=1000 call makes one product per pick mask, one per
    clique that keeps a combo after its four masks and one per beta value
    (each memoised per walk), and stops a clique's test at its first
    empty AND.  Testing each of the eight picks of a mask, and each
    surviving combo's affine context, made 4,192, 4,772 and 1,792
    products on the same cliques.  The twin signs of the dedup keys are
    beta values too, and add the few that no mask or affine context read.
    The walk no longer hands rectangles() the cliques whose cap-a lines
    lie in one plane (386, 577 and 93 of the 714, 1,082 and 153 it was
    handed before); their cap-a mask was 0 before any product, so the
    product counts stand."""
    options = rect_options(anchor_point=pt(word), limit=1000)
    find_magic_rectangles(options)
    calls = {"packed_product": 0, "rectangles": 0}

    def counted(name, function):
        def call(*args):
            calls[name] += 1
            return function(*args)

        return call

    monkeypatch.setattr(search, "packed_product", counted("packed_product", packed_product))
    monkeypatch.setattr(
        _RectangleWalk, "rectangles", counted("rectangles", _RectangleWalk.rectangles)
    )
    assert len(find_magic_rectangles(options)) == 1000
    assert calls["packed_product"] == products
    assert calls["rectangles"] == cliques


def _perp(anchor: int, points) -> list:
    return [q for q in points if _commute(4, anchor, q)]


@settings(max_examples=400, deadline=None)
@given(data=st.data(), word=st.sampled_from(["IXII", "YYYY", "YIII"]))
def test_cap_matches_the_shape_and_sign_oracles(data, word):
    """The per-pick cap test on commuting points x, y, z of the anchor's
    perp against classify_set and Context.canonical_sign (a cap comes
    packed with sign +1), and the walk's pick mask on the three lines
    through the anchor and x, y, z against it."""
    walk = _RectangleWalk(pt(word))
    anchor = walk.anchor
    candidates = _perp(anchor, range(1, 256))
    picks = []
    for _ in range(3):
        q = data.draw(st.sampled_from(candidates))
        picks.append(q)
        candidates = _perp(q, candidates)
    values = [anchor, *picks, anchor ^ picks[0] ^ picks[1] ^ picks[2]]
    expected = None
    if 0 not in values and len(set(values)) == 5:
        points = [SymplecticPoint.from_value(4, v) for v in values]
        context = Context(tuple(from_symplectic(q) for q in points))
        if (
            classify_set(points).kind == KIND_ELLIPTIC_QUADRIC
            and context.canonical_sign == 1
        ):
            expected = tuple((v, 1) for v in sorted(values))
    assert _reference_cap(walk, *picks) == expected
    if anchor not in picks:  # the walk's lines hold two points besides the anchor
        lines = [tuple(sorted((q, q ^ anchor))) for q in picks]
        t = sum(line.index(q) << 2 - s for s, (q, line) in enumerate(zip(picks, lines)))
        assert walk._mask(*lines) >> t & 1 == (expected is not None)
        if expected:
            assert walk.contexts[walk._cap(*picks)] == expected


def test_quadrics_are_the_anchor_and_one_point_per_meet_line(twin):
    """On the built-in pair and 50 raw results at IXII: the six span
    meets of the quadric contexts are lines through the anchor, and each
    quadric is the anchor, one further point of each of its three meet
    lines, and their XOR."""
    anchor = anchor_point()
    configs = [magic_rectangle(), twin]
    configs += find_magic_rectangles(rect_options(anchor_point=anchor, limit=50, dedup=False))
    assert len(configs) == 52
    for config in configs:
        quads = [ctx.points() for ctx in config.contexts if len(ctx.observables) == 5]
        assert len(quads) == 4
        spans = [span(q) for q in quads]
        picked: Dict[int, list] = {i: [] for i in range(4)}
        for i, j in itertools.combinations(range(4), 2):
            line = enumerate_points(intersect(spans[i], spans[j]))
            assert len(line) == 3 and anchor in line
            for k in (i, j):
                held = [q for q in line if q != anchor and q in quads[k]]
                assert len(held) == 1
                picked[k].append(held[0].value)
        for k, quad in enumerate(quads):
            x, y, z = picked[k]
            expected = {anchor.value, x, y, z, anchor.value ^ x ^ y ^ z}
            assert {q.value for q in quad} == expected


def test_lagrangians_two_qubits():
    subs = maximal_isotropic_through(pt("XI"))
    assert len(subs) == 3
    for s in subs:
        assert s.rank == 2
        assert is_isotropic(s)


# ---------------------------------------------------------------------------
# mermin squares


def square_options(**kw) -> SearchOptions:
    base = dict(qubit_count=2, shape="mermin_square", limit=50)
    base.update(kw)
    return SearchOptions(**base)


def test_mermin_square_count_and_properties():
    squares = find_mermin_squares(square_options())
    assert len(squares) == 10
    for config in squares:
        assert len(config.contexts) == 6
        assert all(len(c.observables) == 3 for c in config.contexts)
        points = {p for ctx in config.contexts for p in ctx.points()}
        assert len(points) == 9
        assert classify_set(sorted(points)).kind == KIND_GRID
        cert = parity_witness(config)
        assert cert.certified
        negatives = sum(
            1 for ctx in config.contexts if ctx.canonical_sign == -1
        )
        assert negatives in (1, 3)


def test_standard_square_is_found():
    squares = find_mermin_squares(square_options())
    standard = MagicConfiguration.from_words(
        [
            ("XI", "IX", "XX"),
            ("IZ", "ZI", "ZZ"),
            ("XZ", "ZX", "YY"),
            ("XI", "IZ", "XZ"),
            ("IX", "ZI", "ZX"),
            ("XX", "ZZ", "YY"),
        ]
    )
    assert canonical_config(standard) in squares


def test_mermin_search_is_deterministic():
    first = find_mermin_squares(square_options())
    second = find_mermin_squares(square_options())
    assert first == second


def test_mermin_anchor_filter():
    anchored = find_mermin_squares(square_options(anchor_point=pt("XX")))
    assert len(anchored) == 6
    for config in anchored:
        assert pt("XX") in {p for ctx in config.contexts for p in ctx.points()}


def test_two_line_partitions_of_nine_points_form_a_grid():
    """Two different partitions of nine points into isotropic lines share
    no line, so each line of one meets each line of the other in exactly
    one point: the nine points form a 3x3 grid, and the partition search
    of ``reference_geometry`` needs no grid check on them."""
    lines = [
        line
        for line in itertools.combinations(range(1, 16), 3)
        if line[0] ^ line[1] == line[2] and packed_form(2, line[0], line[1]) == 0
    ]
    partitions: Dict[frozenset, list] = {}
    for triple in itertools.combinations(lines, 3):
        union = frozenset(v for line in triple for v in line)
        if len(union) == 9:
            partitions.setdefault(union, []).append(triple)
    grids = [nineset for nineset, parts in partitions.items() if len(parts) > 1]
    assert (len(partitions), len(grids)) == (70, 10)
    for nineset in grids:
        for rows, cols in itertools.combinations(partitions[nineset], 2):
            assert all(len(set(r) & set(c)) == 1 for r in rows for c in cols)
        points = [SymplecticPoint.from_value(2, v) for v in sorted(nineset)]
        assert classify_set(points).kind == KIND_GRID


def test_mermin_squares_are_the_commuting_grids_of_w32():
    """An oracle sharing no code with either search: the point sets of the
    squares are exactly the nine-point sets that ``classify_set`` labels a
    grid and whose six lines (triples of points summing to zero) hold
    mutually commuting words, by their 4x4 real matrices.  Each has an
    odd number of lines whose product is minus the identity."""
    points = [SymplecticPoint.from_value(2, v) for v in range(1, 16)]
    grids = []
    for subset in itertools.combinations(points, 9):
        if classify_set(subset).kind != KIND_GRID:
            continue
        lines = [t for t in itertools.combinations(subset, 3) if t[0].value ^ t[1].value == t[2].value]
        assert len(lines) == 6
        products = []
        for line in lines:
            a, b, c = (word_matrix(point_word(p)) for p in line)
            if not (np.array_equal(a @ b, b @ a) and np.array_equal(a @ c, c @ a)):
                break
            products.append(int((a @ b @ c)[0, 0]))
            assert np.array_equal(a @ b @ c, products[-1] * np.eye(4, dtype=int))
        else:
            assert products.count(-1) % 2 == 1
            grids.append(frozenset(subset))
    squares = find_mermin_squares(square_options())
    found = {frozenset(p for ctx in config.contexts for p in ctx.points()) for config in squares}
    assert len(grids) == 10 and found == set(grids)


@pytest.mark.parametrize("anchor", [None, *range(1, 16)])
def test_mermin_squares_match_the_partition_reference(anchor):
    point = None if anchor is None else SymplecticPoint.from_value(2, anchor)
    for dedup, limit in itertools.product((True, False), (1, 3, 10, 50)):
        options = square_options(anchor_point=point, dedup=dedup, limit=limit)
        assert find_mermin_squares(options) == partition_mermin_squares(options)


def test_mermin_raw_stream_matches_dedup():
    raw = find_mermin_squares(square_options(dedup=False))
    dedup = find_mermin_squares(square_options())
    assert [canonical_config(c) for c in raw] == dedup


def test_mermin_limit_cuts_results():
    assert len(find_mermin_squares(square_options(limit=3))) == 3


def test_mermin_rejects_wrong_size():
    with pytest.raises(ValueError, match="2 qubits"):
        find_mermin_squares(SearchOptions(qubit_count=4, shape="mermin_square"))
    with pytest.raises(ValueError, match="expects shape"):
        find_mermin_squares(SearchOptions(qubit_count=2, shape="hc_rectangle"))


# ---------------------------------------------------------------------------
# rectangles


def rect_options(**kw) -> SearchOptions:
    base = dict(qubit_count=4, shape="hc_rectangle", limit=2)
    base.update(kw)
    return SearchOptions(**base)


def verify_rectangle(config: MagicConfiguration, anchor: SymplecticPoint) -> None:
    """Independent re-verification of the rectangle shape."""
    assert len(config.contexts) == 5
    sizes = sorted(len(c.observables) for c in config.contexts)
    assert sizes == [4, 5, 5, 5, 5]
    quads = [c for c in config.contexts if len(c.observables) == 5]
    (affine,) = [c for c in config.contexts if len(c.observables) == 4]
    for ctx in quads:
        label = classify_set(ctx.points())
        assert label.kind == KIND_ELLIPTIC_QUADRIC
        assert ctx.canonical_sign == 1
        assert anchor in ctx.points()
    assert classify_set(affine.points()).kind == KIND_AFFINE_PLANE
    assert affine.canonical_sign == -1
    assert shared_point(config) == anchor
    cert = parity_witness(config)
    assert cert.certified
    assert cert.nchv_assignment_exists is False


def test_canonical_config_matches_the_object_level_order(twin):
    """Members by observable_key, (value, -sign), then contexts by their
    key lists, as the packed oracle canonical_contexts sorts them; a word
    with both signs decides the context order in the first configuration."""
    configs = [
        MagicConfiguration.from_words([("-XX", "-XX"), ("XX", "-XX"), ("-II",)]),
        MagicConfiguration.from_words([("-ZI", "IZ", "-ZZ"), ("ZZ", "-ZZ"), ("ZI", "-IZ", "-ZZ")]),
    ]
    raw = find_magic_rectangles(rect_options(anchor_point=pt("YYYY"), limit=20, dedup=False))
    configs += raw + [complement_config(config, pt("YYYY")) for config in raw]
    configs += [magic_rectangle(), twin]
    for config in configs:
        canonical = canonical_config(config)
        assert packed_contexts(canonical) == canonical_contexts(packed_contexts(config))
        assert canonical.n == config.n


def test_seeded_search_finds_original_and_twin(twin):
    results = find_magic_rectangles(
        rect_options(seed=True, anchor_point=anchor_point())
    )
    assert len(results) == 2
    assert results[0] == canonical_config(magic_rectangle())
    assert results[1] == canonical_config(twin)


def test_odd_limit_keeps_twin_pairs_whole():
    results = find_magic_rectangles(
        rect_options(seed=True, anchor_point=anchor_point(), limit=3)
    )
    assert len(results) == 2


def test_seeded_raw_stream_emits_seed_verbatim():
    results = find_magic_rectangles(
        rect_options(seed=True, dedup=False, limit=1)
    )
    assert results == [magic_rectangle()]


def test_seed_puts_the_builtin_pair_before_the_walk(twin):
    """The walk reaches the built-in pair at results 7168 and 7169; the
    seed moves it to the front and the walk skips it."""
    pair = [canonical_config(magic_rectangle()), canonical_config(twin)]
    walk = find_magic_rectangles(rect_options(limit=7172))
    assert walk[7168:7170] == pair
    seeded = find_magic_rectangles(rect_options(seed=True, limit=7172))
    assert seeded == pair + [config for config in walk if config not in pair]


def test_seeded_raw_stream_is_the_seed_then_the_raw_walk():
    """Without dedup the walk does not skip the seed: it repeats the
    built-in rectangle, in the walk's member order, as result 7170."""
    seeded = find_magic_rectangles(rect_options(seed=True, dedup=False, limit=7200))
    walk = find_magic_rectangles(rect_options(dedup=False, limit=7199))
    assert seeded == [magic_rectangle()] + walk
    assert canonical_config(seeded[7169]) == canonical_config(magic_rectangle())


@pytest.mark.parametrize("word", ["ZIII", "YYYY"])
def test_seed_away_from_the_builtin_anchor_leaves_the_walk_alone(word):
    for dedup in (True, False):
        options = dict(anchor_point=pt(word), limit=100, dedup=dedup)
        seeded = find_magic_rectangles(rect_options(seed=True, **options))
        assert seeded == find_magic_rectangles(rect_options(**options))


def test_unseeded_search_results_verify_and_close_under_twinning():
    results = find_magic_rectangles(rect_options(limit=4))
    assert len(results) == 4
    keys = {tuple(ctx.words for ctx in config.contexts) for config in results}
    for config in results:
        verify_rectangle(config, anchor_point())
        twin = canonical_config(complement_config(config, anchor_point()))
        assert tuple(ctx.words for ctx in twin.contexts) in keys


def test_rectangle_search_is_deterministic():
    first = find_magic_rectangles(rect_options(limit=6))
    second = find_magic_rectangles(rect_options(limit=6))
    assert first == second


def test_builtin_rectangle_needs_the_seed():
    results = find_magic_rectangles(rect_options(limit=20))
    assert canonical_config(magic_rectangle()) not in results


def test_search_at_another_anchor():
    results = find_magic_rectangles(
        rect_options(anchor_point=pt("ZIII"), limit=2)
    )
    assert len(results) == 2
    for config in results:
        verify_rectangle(config, pt("ZIII"))


def test_rectangle_rejects_wrong_size():
    with pytest.raises(ValueError, match="4 qubits"):
        find_magic_rectangles(SearchOptions(qubit_count=2, shape="hc_rectangle"))
    with pytest.raises(ValueError, match="expects shape"):
        find_magic_rectangles(SearchOptions(qubit_count=4, shape="ovoid_census"))


# Digests of the result words, recorded before the Lagrangian walk and
# the pair tests moved to packed integers; they pin the emission order.
# The two limit-5000 rows were recorded before the dedup keys were built
# from a twin table.
RECTANGLE_DIGESTS = {
    ("IXII", 4): "2c8a0a07f6eb6958ceb0",
    ("IXII", 100): "bcee58b03834f4577bc4",
    ("XIIZ", 4): "33841f0124d8985e78dc",
    ("XIIZ", 100): "33596a1e75911a906755",
    ("XIIZ", 5000): "a7a4908c99f7a4d1dfb1",
    ("YYYY", 4): "5eb9cab41ce913bf585b",
    ("YYYY", 100): "30d8ca9f99d7871c38d2",
    ("YYYY", 5000): "58812878d3d5e897dfac",
}


def _result_digest(results) -> str:
    text = "\n".join(
        " ".join(",".join(ctx.words) for ctx in config.contexts) for config in results
    )
    return hashlib.sha256(text.encode()).hexdigest()[:20]


@pytest.mark.parametrize("anchor, limit", sorted(RECTANGLE_DIGESTS))
def test_rectangle_results_match_recorded_digest(anchor, limit):
    results = find_magic_rectangles(rect_options(anchor_point=pt(anchor), limit=limit))
    assert len(results) == limit
    assert _result_digest(results) == RECTANGLE_DIGESTS[anchor, limit]


# Digests recorded before emission, the cap step and the compatibility
# masks moved to packed integers: a warm call at an anchor whose results
# carry sign variants, the raw (undeduplicated) stream, and a seeded run.
EMISSION_DIGESTS = {
    "YYYY limit 1000": ("4a819d3977fe8e54a405", dict(anchor_point=pt("YYYY"), limit=1000)),
    "IXII raw limit 100": ("b40ff301867b035448ec", dict(anchor_point=pt("IXII"), limit=100, dedup=False)),
    "seeded limit 10": ("0cc9d34e399f153727e5", dict(seed=True, limit=10)),
    # Recorded before cliques that cannot hold cap a were skipped and
    # results were keyed by interned context ids: pruning at an odd-Y
    # anchor, the slowest no-Y pool anchor under dedup, and a raw even-Y run.
    "YIII raw limit 1000": ("3d246e4cc118785bf0fd", dict(anchor_point=pt("YIII"), limit=1000, dedup=False)),
    "ZXXZ limit 1000": ("5c533ca957957ca961b6", dict(anchor_point=pt("ZXXZ"), limit=1000)),
    "YYYY raw limit 300": ("2c22f603b0342f779d30", dict(anchor_point=pt("YYYY"), limit=300, dedup=False)),
}


@pytest.mark.parametrize("name", sorted(EMISSION_DIGESTS))
def test_emission_matches_recorded_digest(name):
    digest, kw = EMISSION_DIGESTS[name]
    results = find_magic_rectangles(rect_options(**kw))
    assert len(results) == kw["limit"]
    assert _result_digest(results) == digest


def test_warm_search_builds_and_validates_each_distinct_context_once(monkeypatch):
    """At YYYY the 1,000 results hold 1,372 signed contexts on 716 point
    tuples: the value check runs once per tuple, each signed context and
    each member is one shared record, and every context's sign is the
    one validate_context gives it."""
    options = rect_options(anchor_point=pt("YYYY"), limit=1000)
    find_magic_rectangles(options)
    calls = []
    check = magic._values_sign
    monkeypatch.setattr(search, "_values_sign", lambda n, values, obs: calls.append(values) or check(n, values, obs))
    results = find_magic_rectangles(options)
    assert len(results) == 1000
    records, members = {}, {}
    for config in results:
        for ctx in config.contexts:
            assert records.setdefault(tuple((o.value, o.sign) for o in ctx.observables), ctx) is ctx
            for obs in ctx.observables:
                assert members.setdefault((obs.value, obs.sign), obs) is obs
    assert len(records) == 1372 and len(members) == 183
    assert len(calls) == len(set(calls)) == len({tuple(v for v, _ in ctx) for ctx in records}) == 716
    for ctx in records.values():
        assert ctx.canonical_sign == magic.validate_context(Context(ctx.observables))


def test_search_raises_on_a_walk_context_that_fails_the_value_check(monkeypatch):
    """No context of a search skips the check: a walk that emits a
    rectangle with two anticommuting members fails as validate_context
    fails on it."""
    bad = ((pt("XIII").value, 1), (pt("ZIII").value, 1), (pt("YIII").value, -1))

    def rectangles(walk, *clique):
        return [(walk.intern(bad),)]

    monkeypatch.setattr(_RectangleWalk, "rectangles", rectangles)
    for dedup in (True, False):
        with pytest.raises(ContextError, match="^observables XIII and ZIII do not commute$"):
            find_magic_rectangles(rect_options(limit=4, dedup=dedup))
    with pytest.raises(ContextError, match="^observables XIII and ZIII do not commute$"):
        magic.validate_context(Context.from_words(("XIII", "ZIII", "-YIII")))


EVEN_Y_WORDS = sorted(
    "".join(letters)
    for letters in itertools.product("IXYZ", repeat=4)
    if "".join(letters) != "IIII" and letters.count("Y") % 2 == 0
)


@pytest.mark.parametrize("word", EVEN_Y_WORDS)
def test_packed_twin_matches_complement_config(word):
    """complement_config against the packed reference twin and the
    object-level map (every member but the anchor multiplied on the left
    by the anchor's positive observable), on the limit=4 results at each
    even-Y anchor; twinning twice gives the configuration back."""
    point = pt(word)
    results = find_magic_rectangles(rect_options(anchor_point=point, limit=4))
    assert len(results) == 4
    p_obs = parse_observable(word)
    for config in results:
        twin = complement_config(config, point)
        reference = tuple(
            tuple(
                (obs.value, obs.sign) if obs.value == point.value else
                (multiply(p_obs, obs).value, multiply(p_obs, obs).sign)
                for obs in ctx.observables
            )
            for ctx in config.contexts
        )
        assert packed_contexts(twin) == reference
        assert twin_contexts(4, point.value, packed_contexts(config)) == reference
        assert complement_config(twin, point) == config


@settings(max_examples=1, deadline=None)
@given(word=st.sampled_from(EVEN_Y_WORDS), start=st.integers(0, 39))
@example(word="IXII", start=0)
@example(word="YYYY", start=0)
@example(word="XIIZ", start=0)
def test_twins_lie_on_the_clique_of_their_rectangle(word, start):
    """On every 40th clique of the walk, each rectangle's twin has five-
    point contexts spanning the rectangle's four Lagrangians, and
    twinning twice is the identity: the dedup keys of a search can live
    for one clique."""
    point = pt(word)
    walk = _RectangleWalk(point)
    subs = maximal_isotropic_through(point)
    assert tuple(sub.rows for sub in subs) == walk.lagrangians
    index = {sub.rows: i for i, sub in enumerate(subs)}

    def spans(contexts):
        return sorted(index[rref(v for v, _ in ctx)] for ctx in contexts if len(ctx) == 5)

    found = 0
    for clique in _cliques(walk)[start::40]:
        for ids in walk.rectangles(*clique):
            contexts = _unpack(walk, ids)
            twin = twin_contexts(4, point.value, contexts)
            assert spans(twin) == spans(contexts) == list(clique)
            assert twin_contexts(4, point.value, twin) == contexts
            found += 1
    assert found > 0


@settings(max_examples=1, deadline=None)
@given(word=st.sampled_from(EVEN_Y_WORDS), start=st.integers(0, 39))
@example(word="IXII", start=0)
@example(word="YYYY", start=0)
@example(word="XIIZ", start=0)
def test_walk_keys_equal_the_canonical_keys(word, start):
    """On every 40th clique, the walk's keys of each rectangle and of its
    twin, with twin signs read from its beta values, are the
    canonical_contexts keys of the rectangle and of the reference
    twin_contexts image."""
    point = pt(word)
    walk = _RectangleWalk(point)
    found = 0
    for clique in _cliques(walk)[start::40]:
        for ids in walk.rectangles(*clique):
            contexts = _unpack(walk, ids)
            twin = twin_contexts(4, point.value, contexts)
            keys = [_unpack(walk, key) for key in walk.keys(ids)]
            assert keys == [canonical_contexts(contexts), canonical_contexts(twin)]
            found += 1
    assert found > 0


@pytest.mark.parametrize("limit", [4, 1000])
def test_dedup_search_at_an_odd_y_anchor_raises(limit):
    """The twin map needs an anchor that squares to +identity; at YIII a
    search under dedup raises."""
    with pytest.raises(ContextError, match="anchor YIII squares to -identity"):
        find_magic_rectangles(rect_options(anchor_point=pt("YIII"), limit=limit))


@pytest.mark.parametrize("word", ["YIII", "XYZI", "YYYI"])
def test_dedup_search_checks_the_anchor_before_listing_lagrangians(word):
    """An odd-Y anchor is rejected before the Lagrangians through it are
    listed or a clique is walked, with the message complement_config gives."""
    search._lagrangians.cache_clear()
    with pytest.raises(ContextError) as raised:
        find_magic_rectangles(rect_options(anchor_point=pt(word)))
    assert search._lagrangians.cache_info().misses == 0
    with pytest.raises(ContextError) as twinned:
        complement_config(magic_rectangle(), pt(word))
    assert str(raised.value) == str(twinned.value) == f"anchor {word} squares to -identity"


def test_raw_search_at_an_odd_y_anchor_returns_walk_rectangles():
    """Without dedup no twin is taken, so YIII still yields the walk's
    rectangles, as yielded."""
    point = pt("YIII")
    results = find_magic_rectangles(rect_options(anchor_point=point, limit=6, dedup=False))
    walk = _RectangleWalk(point)
    expected = list(itertools.islice(
        (_unpack(walk, r) for clique in walk.cliques() for r in walk.rectangles(*clique)), 6
    ))
    assert len(results) == 6
    assert [packed_contexts(config) for config in results] == expected


def test_warm_search_memory_per_result():
    """The traced peak of a warm call at IXII per result: about 0.6 KB,
    where a set of every canonical key of the call took about 2.4 KB."""
    options = rect_options(anchor_point=pt("IXII"), limit=5000)
    maximal_isotropic_through(pt("IXII"))
    tracemalloc.start()
    try:
        results = find_magic_rectangles(options)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(results) == 5000
    assert peak / len(results) < 1500
