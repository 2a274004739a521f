"""Tests for the cap census, square search, and rectangle search."""

import hashlib
import itertools
import math
import random
from collections import namedtuple
from typing import Dict, List, Sequence

import pytest

from bksgeom.classify import (
    KIND_AFFINE_PLANE,
    KIND_ELLIPTIC_QUADRIC,
    KIND_GRID,
    classify_set,
)
from bksgeom.geometry import (
    SymplecticPoint,
    enumerate_points,
    intersect,
    is_totally_isotropic,
    span,
    subspace_sum,
)
from bksgeom.magic import (
    Context,
    ContextError,
    MagicConfiguration,
    canonical_context_sign,
    complement_config,
    config_from_packed,
    observable_key,
    packed_contexts,
    parity_witness,
    shared_point,
    sorted_observables,
    twin_contexts,
)
from bksgeom.pauli import (
    _from_packed,
    from_symplectic,
    multiply,
    packed_product,
    parse_observable,
    to_symplectic,
)
from bksgeom.rectangle import anchor_point, magic_rectangle, twin_rectangle
from bksgeom.search import (
    SearchOptions,
    _RectangleWalk,
    _negative_affine,
    canonical_config,
    cap_census,
    enumerate_caps,
    find_hc_rectangles,
    find_magic_rectangles,
    find_mermin_squares,
    maximal_isotropic_through,
)


def pt(word: str) -> SymplecticPoint:
    return to_symplectic(parse_observable(word))


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
        assert is_totally_isotropic(ambient)
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
        assert is_totally_isotropic(s)
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


@pytest.mark.parametrize(
    "word",
    ["X", "Z", "Y", "XI", "YY", "XIZ", "YYI", "IYI", "IXII", "XIIZ", "YYYY", "YIII"],
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
        assert is_totally_isotropic(s)
        assert anchor.value in _closure(s.rows)
    if n <= 3:
        assert {_closure(r) for r in rows} == _brute_force_lagrangians(n, anchor.value)


def test_pair_meet_rank_by_dimension_formula():
    walk = _RectangleWalk(anchor_point())
    subs = walk.lagrangians
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


@pytest.mark.parametrize("word", ["IXII", "YYYY", "XIIZ"])
def test_cap_table_matches_the_per_lagrangian_kernel(word):
    walk = _RectangleWalk(pt(word))
    assert len(walk.lagrangians) == 135
    for i, sub in enumerate(walk.lagrangians):
        assert walk.caps(i) == _reference_anchored_caps(sub, pt(word).value)


@pytest.mark.parametrize("word", ["IXII", "YYYY"])
def test_compat_buckets_match_the_popcount_definition(word):
    anchor = pt(word).value
    walk = _RectangleWalk(pt(word))
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


def test_lagrangians_two_qubits():
    subs = maximal_isotropic_through(pt("XI"))
    assert len(subs) == 3
    for s in subs:
        assert s.rank == 2
        assert is_totally_isotropic(s)


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
            1 for ctx in config.contexts if canonical_context_sign(ctx) == -1
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
        assert canonical_context_sign(ctx) == 1
        assert anchor in ctx.points()
    assert classify_set(affine.points()).kind == KIND_AFFINE_PLANE
    assert canonical_context_sign(affine) == -1
    assert shared_point(config) == anchor
    cert = parity_witness(config)
    assert cert.certified
    assert cert.nchv_assignment_exists is False


def test_canonical_config_matches_the_object_level_order():
    """Members by observable_key, then contexts by their key lists, as
    sorted on observables; a word with both signs decides the context
    order in the first configuration."""
    configs = [
        MagicConfiguration.from_words([("XX", "-XX"), ("-XX", "-XX"), ("-II",)]),
        MagicConfiguration.from_words([("-ZI", "IZ", "-ZZ"), ("ZZ", "-ZZ"), ("ZI", "-IZ", "-ZZ")]),
    ]
    raw = find_magic_rectangles(rect_options(anchor_point=pt("YYYY"), limit=20, dedup=False))
    configs += raw + [complement_config(config, pt("YYYY")) for config in raw]
    configs += [magic_rectangle(), twin_rectangle()]
    for config in configs:
        contexts = [Context(sorted_observables(ctx)) for ctx in config.contexts]
        contexts.sort(key=lambda ctx: [observable_key(o) for o in ctx.observables])
        assert canonical_config(config) == MagicConfiguration(tuple(contexts))


def test_seeded_search_finds_original_and_twin():
    results = find_magic_rectangles(
        rect_options(seed=magic_rectangle(), anchor_point=anchor_point())
    )
    assert len(results) == 2
    assert results[0] == canonical_config(magic_rectangle())
    assert results[1] == canonical_config(twin_rectangle())


def test_odd_limit_keeps_twin_pairs_whole():
    results = find_magic_rectangles(
        rect_options(seed=magic_rectangle(), anchor_point=anchor_point(), limit=3)
    )
    assert len(results) == 2


def test_seeded_raw_stream_emits_seed_verbatim():
    results = find_magic_rectangles(
        rect_options(seed=magic_rectangle(), dedup=False, limit=1)
    )
    assert results == [magic_rectangle()]


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


def test_invalid_seed_rejected():
    partial = MagicConfiguration(magic_rectangle().contexts[:4])
    with pytest.raises(ValueError, match="seed"):
        find_magic_rectangles(rect_options(seed=partial))
    # A real rectangle offered at the wrong anchor is also rejected.
    with pytest.raises(ValueError, match="seed"):
        find_magic_rectangles(
            rect_options(seed=magic_rectangle(), anchor_point=pt("ZIII"))
        )


def test_seed_with_positive_affine_context_rejected():
    # Four anchored caps of the rectangle shape whose odd points form a
    # commuting affine context of canonical sign +1, not -1.
    caps = (
        ("IIZI", "IIZZ", "ZIII", "IXII", "ZXIZ"),
        ("ZIII", "ZIIX", "ZIXI", "IXII", "ZXXX"),
        ("IIZI", "ZIIX", "IXII", "YIIZ", "XXZY"),
        ("IIZZ", "IXII", "ZXXX", "YIIZ", "XIYX"),
    )
    affine = ("ZIXI", "ZXIZ", "XIYX", "XXZY")
    config = MagicConfiguration.from_words(caps + (affine,))
    assert [canonical_context_sign(ctx) for ctx in config.contexts] == [1, 1, 1, 1, 1]
    with pytest.raises(ValueError, match="seed"):
        find_magic_rectangles(rect_options(seed=config))


def test_rectangle_rejects_wrong_size():
    with pytest.raises(ValueError, match="4 qubits"):
        find_magic_rectangles(SearchOptions(qubit_count=2, shape="hc_rectangle"))
    with pytest.raises(ValueError, match="expects shape"):
        find_magic_rectangles(SearchOptions(qubit_count=4, shape="ovoid_census"))


def test_cli_shape_alias():
    assert find_hc_rectangles is find_magic_rectangles


# ---------------------------------------------------------------------------
# the seed check against the object-level shape test it replaced


def _is_rectangle(config: MagicConfiguration, anchor: SymplecticPoint) -> bool:
    """Structural test of the anchored rectangle shape (any member order)."""
    if len(config.contexts) != 5:
        return False
    quads = []
    affine = None
    for ctx in config.contexts:
        pts = ctx.points()
        if len(set(pts)) != len(ctx.observables):
            return False
        if len(pts) == 5:
            quads.append(pts)
        elif len(pts) == 4:
            if affine is not None:
                return False
            affine = pts
        else:
            return False
    if len(quads) != 4 or affine is None:
        return False
    for pts in quads:
        if anchor not in pts:
            return False
        if classify_set(pts).kind != KIND_ELLIPTIC_QUADRIC:
            return False
        if canonical_context_sign(Context(tuple(from_symplectic(p) for p in pts))) != 1:
            return False
    spans = [span(pts) for pts in quads]
    if len({s.rows for s in spans}) != 4:
        return False
    for a, b in itertools.combinations(range(4), 2):
        shared = set(quads[a]) & set(quads[b])
        if len(shared) != 2 or anchor not in shared:
            return False
        if intersect(spans[a], spans[b]).rank != 2:
            return False
    counts: Dict[SymplecticPoint, int] = {}
    for pts in quads:
        for p in pts:
            counts[p] = counts.get(p, 0) + 1
    odd = sorted((p for p, c in counts.items() if c % 2 == 1), key=lambda p: p.value)
    if odd != sorted(affine, key=lambda p: p.value):
        return False
    return _negative_affine(anchor.n, [p.value for p in affine])


_Raw = namedtuple("_Raw", "contexts")


def _reference_accepts(contexts, anchor: SymplecticPoint) -> bool:
    """_is_rectangle on packed contexts.  A seed is a MagicConfiguration,
    validated before any shape check, so an input that _is_rectangle
    cannot judge without a ContextError is one no seed can be."""
    raw = _Raw(tuple(Context(tuple(_from_packed(4, v, s) for v, s in ctx)) for ctx in contexts))
    try:
        return _is_rectangle(raw, anchor)
    except ContextError:
        return False


def _mutations(contexts, other, rng: random.Random):
    """The contexts and variants: one member's value flipped, a context
    dropped, members and contexts shuffled, a member sign flipped, an
    identity member appended, two contexts swapped, and one context
    exchanged with the same-position context of another result."""
    ctxs = [list(ctx) for ctx in contexts]
    k = rng.randrange(len(ctxs))
    m = rng.randrange(len(ctxs[k]))
    v, s = ctxs[k][m]

    def with_member(member):
        out = [list(ctx) for ctx in ctxs]
        out[k][m] = member
        return out

    shuffled = [rng.sample(ctx, len(ctx)) for ctx in ctxs]
    rng.shuffle(shuffled)
    appended = [list(ctx) for ctx in ctxs]
    appended[k].append((0, 1))
    i, j = rng.sample(range(len(ctxs)), 2)
    swapped = list(ctxs)
    swapped[i], swapped[j] = swapped[j], swapped[i]
    exchanged = list(ctxs)
    exchanged[k] = list(other[k])
    variants = [
        ctxs,
        with_member((v ^ 1 << rng.randrange(8), s)),
        ctxs[:k] + ctxs[k + 1 :],
        shuffled,
        with_member((v, -s)),
        appended,
        swapped,
        exchanged,
    ]
    return [tuple(tuple(ctx) for ctx in variant) for variant in variants]


def test_seed_check_agrees_with_the_object_level_shape_test():
    """walk.holds against _is_rectangle, the object-level shape test it
    replaced, on raw walk results at four even-Y anchors, the built-in
    pair at IXII, and mutations of each."""
    corpus = []
    for word in ("IXII", "ZIII", "XIIZ", "YYYY"):
        results = find_magic_rectangles(rect_options(anchor_point=pt(word), limit=200, dedup=False))
        assert len(results) == 200
        corpus.append((pt(word), [packed_contexts(config) for config in results]))
    corpus.append((anchor_point(), [packed_contexts(c) for c in (magic_rectangle(), twin_rectangle())]))
    checked = accepted = 0
    for anchor, configs in corpus:
        walk = _RectangleWalk(anchor)
        rng = random.Random(anchor.value)
        for index, contexts in enumerate(configs):
            other = configs[index - 1]
            for variant in _mutations(contexts, other, rng):
                expected = _reference_accepts(variant, anchor)
                assert walk.holds(variant) == expected, (anchor, variant)
                checked += 1
                accepted += expected
    assert checked == 8 * 802
    # Originals, shuffles, sign flips and swaps hold; most other variants
    # are rejected.
    assert 4 * 802 <= accepted < 5 * 802


def test_seed_from_another_qubit_count_rejected():
    # At 8 qubits the built-in rectangle's packed values are Z-type words,
    # a valid configuration whose point sets equal the 4-qubit rectangle's.
    lifted = config_from_packed(8, packed_contexts(magic_rectangle()))
    with pytest.raises(ValueError, match="seed"):
        find_magic_rectangles(rect_options(seed=lifted))


# Digests of the result words, recorded before the Lagrangian walk and
# the pair tests moved to packed integers; they pin the emission order.
RECTANGLE_DIGESTS = {
    ("IXII", 4): "2c8a0a07f6eb6958ceb0",
    ("IXII", 100): "bcee58b03834f4577bc4",
    ("XIIZ", 4): "33841f0124d8985e78dc",
    ("XIIZ", 100): "33596a1e75911a906755",
    ("YYYY", 4): "5eb9cab41ce913bf585b",
    ("YYYY", 100): "30d8ca9f99d7871c38d2",
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
    "seeded limit 10": ("0cc9d34e399f153727e5", dict(seed=magic_rectangle(), limit=10)),
}


@pytest.mark.parametrize("name", sorted(EMISSION_DIGESTS))
def test_emission_matches_recorded_digest(name):
    digest, kw = EMISSION_DIGESTS[name]
    results = find_magic_rectangles(rect_options(**kw))
    assert len(results) == kw["limit"]
    assert _result_digest(results) == digest


@pytest.mark.parametrize("word", ["IXII", "XIIZ", "YYYY"])
def test_packed_twin_matches_complement_config(word):
    """The packed twin against the object-level map (every member but the
    anchor multiplied on the left by the anchor's positive observable)
    and against complement_config, on 50 raw walk results."""
    point = pt(word)
    results = find_magic_rectangles(rect_options(anchor_point=point, limit=50, dedup=False))
    assert len(results) == 50
    p_obs = parse_observable(word)
    for config in results:
        twin = twin_contexts(4, point.value, packed_contexts(config))
        reference = tuple(
            tuple(
                (obs.value, obs.sign) if obs.value == point.value else
                (multiply(p_obs, obs).value, multiply(p_obs, obs).sign)
                for obs in ctx.observables
            )
            for ctx in config.contexts
        )
        assert twin == reference
        assert twin == packed_contexts(complement_config(config, point))
