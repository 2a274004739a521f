"""Tests for the binary symplectic geometry layer."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bksgeom.geometry import (
    Subspace,
    SymplecticPoint,
    _rref,
    _span_values,
    contains,
    enumerate_points,
    intersect,
    is_totally_isotropic,
    span,
    symplectic_form,
    third_point,
)
from bksgeom.pauli import parse_observable, to_symplectic

from reference_geometry import all_points, subspace_sum


def pt(word: str) -> SymplecticPoint:
    return to_symplectic(parse_observable(word))


def rand_point(rng: random.Random, n: int) -> SymplecticPoint:
    return SymplecticPoint.from_value(n, rng.randrange(1, 1 << (2 * n)))


# ---------------------------------------------------------------------------
# points


def test_point_validation():
    with pytest.raises(ValueError):
        SymplecticPoint(0, 0, 0)
    with pytest.raises(ValueError):
        SymplecticPoint(2, 0, 0)
    with pytest.raises(ValueError):
        SymplecticPoint(2, 4, 1)
    with pytest.raises(ValueError):
        SymplecticPoint(2, 1, -1)


def test_value_round_trip():
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randint(1, 8)
        p = rand_point(rng, n)
        assert SymplecticPoint.from_value(n, p.value) == p


def test_all_points_counts():
    assert len(list(all_points(1))) == 3
    assert len(list(all_points(2))) == 15
    assert len(list(all_points(4))) == 255


def test_all_points_ascending_and_distinct():
    values = [p.value for p in all_points(3)]
    assert values == sorted(values)
    assert len(set(values)) == len(values)
    assert values[0] == 1


# ---------------------------------------------------------------------------
# the alternating form


def test_form_is_symmetric_over_gf2():
    rng = random.Random(17)
    for _ in range(500):
        n = rng.randint(1, 6)
        a, b = rand_point(rng, n), rand_point(rng, n)
        assert symplectic_form(a, b) == symplectic_form(b, a)
        assert symplectic_form(a, a) == 0


def test_form_is_bilinear():
    rng = random.Random(23)
    for _ in range(300):
        n = rng.randint(2, 6)
        a, b, c = (rand_point(rng, n) for _ in range(3))
        if a.value == b.value:
            continue
        s = third_point(a, b)
        assert symplectic_form(s, c) == symplectic_form(a, c) ^ symplectic_form(b, c)


def test_form_known_values():
    assert symplectic_form(pt("XI"), pt("ZI")) == 1
    assert symplectic_form(pt("XI"), pt("IZ")) == 0
    assert symplectic_form(pt("YI"), pt("XI")) == 1
    assert symplectic_form(pt("YI"), pt("YI")) == 0


def test_form_rejects_mixed_sizes():
    with pytest.raises(ValueError):
        symplectic_form(pt("XI"), pt("X"))


# ---------------------------------------------------------------------------
# third point on a line


def test_third_point_closes_lines():
    rng = random.Random(31)
    for _ in range(300):
        n = rng.randint(1, 6)
        a, b = rand_point(rng, n), rand_point(rng, n)
        if a == b:
            continue
        c = third_point(a, b)
        assert c.value == a.value ^ b.value
        assert third_point(a, c) == b
        assert third_point(b, c) == a


def test_third_point_rejects_equal_points():
    with pytest.raises(ValueError):
        third_point(pt("XI"), pt("XI"))


def test_third_point_examples():
    assert third_point(pt("ZIII"), pt("IXII")) == pt("ZXII")
    assert third_point(pt("ZXZX"), pt("ZXXZ")) == pt("IIYY")


# ---------------------------------------------------------------------------
# spans: canonical form, membership, enumeration


def test_span_is_canonical_under_generator_shuffles():
    rng = random.Random(41)
    words = ["ZIII", "IXII", "IIZI", "IIIX", "ZXZX"]
    points = [pt(w) for w in words]
    base = span(points)
    for _ in range(200):
        shuffled = points[:]
        rng.shuffle(shuffled)
        # Also throw in redundant sums of earlier generators.
        if rng.random() < 0.5:
            shuffled.append(third_point(shuffled[0], shuffled[1]))
        assert span(shuffled) == base
    assert base.rank == 4


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 4), data=st.data())
def test_rref_ignores_generator_order_and_redundant_sums(n, data):
    """_rref of a list of rows equals that of any shuffle of it and of
    the list with the XOR of some of its rows appended."""
    width = 2 * n
    rows = data.draw(st.lists(st.integers(0, (1 << width) - 1), max_size=2 * width))
    base = _rref(rows, width)
    assert _rref(data.draw(st.permutations(rows)), width) == base
    picked = data.draw(st.lists(st.booleans(), min_size=len(rows), max_size=len(rows)))
    redundant = 0
    for row, pick in zip(rows, picked):
        redundant ^= row if pick else 0
    assert _rref([*rows, redundant], width) == base


def test_span_requires_points():
    with pytest.raises(ValueError):
        span([])


def test_span_mixed_sizes_rejected():
    with pytest.raises(ValueError):
        span([pt("XI"), pt("X")])


def test_subspace_rejects_non_canonical_rows():
    # Rows not in reduced form must be refused by the constructor.
    with pytest.raises(ValueError):
        Subspace(2, (3, 1))
    with pytest.raises(ValueError):
        Subspace(2, (1, 2))  # ascending order
    with pytest.raises(ValueError):
        Subspace(2, (2, 2))


@pytest.mark.parametrize("rows", [(64,), (-1,), (0,), (16, 4)])
def test_subspace_rejects_rows_outside_the_space(rows):
    # Rows must be nonzero vectors of GF(2)^(2N): at N = 1, 64 = 2^(2N)
    # and 16 are too wide, although each is already reduced.
    with pytest.raises(ValueError):
        Subspace(1, rows)


@settings(max_examples=400, deadline=None)
@given(n=st.integers(1, 3), data=st.data())
def test_subspace_check_agrees_with_rref(n, data):
    """The constructor accepts exactly the row tuples that lie in the
    space and that _rref leaves as they are.  Half the draws start from
    an RREF and flip a few bits, so both answers occur often."""
    width = 2 * n
    values = st.integers(-2, (1 << width) + 2)
    rows = tuple(data.draw(st.lists(values, max_size=5)))
    if data.draw(st.booleans()):
        rows = list(_rref([v for v in rows if 0 < v < 1 << width], width))
        for _ in range(data.draw(st.integers(0, 2)) if rows else 0):
            i = data.draw(st.integers(0, len(rows) - 1))
            rows[i] ^= 1 << data.draw(st.integers(0, width))
        rows = tuple(rows)
    expected = all(0 < v < 1 << width for v in rows) and _rref(rows, width) == rows
    try:
        Subspace(n, rows)
    except ValueError:
        assert not expected
    else:
        assert expected


def test_contains_and_enumerate():
    rng = random.Random(43)
    for _ in range(50):
        n = rng.randint(2, 5)
        gens = [rand_point(rng, n) for _ in range(rng.randint(1, 4))]
        sub = span(gens)
        pts = enumerate_points(sub)
        assert len(pts) == sub.point_count == (1 << sub.rank) - 1
        values = [p.value for p in pts]
        assert values == sorted(values)
        member_set = set(values)
        for p in pts:
            assert contains(sub, p)
        for _ in range(20):
            q = rand_point(rng, n)
            assert contains(sub, q) == (q.value in member_set)


def test_dimension_formula():
    """rank(A) + rank(B) == rank(A + B) + rank(A meet B)."""
    rng = random.Random(47)
    for _ in range(200):
        n = rng.randint(2, 5)
        a = span([rand_point(rng, n) for _ in range(rng.randint(1, 4))])
        b = span([rand_point(rng, n) for _ in range(rng.randint(1, 4))])
        total = subspace_sum(a, b)
        meet = intersect(a, b)
        assert a.rank + b.rank == total.rank + meet.rank
        for p in enumerate_points(meet):
            assert contains(a, p) and contains(b, p)


def test_intersection_is_exact():
    rng = random.Random(53)
    for _ in range(100):
        n = rng.randint(2, 4)
        a = span([rand_point(rng, n) for _ in range(3)])
        b = span([rand_point(rng, n) for _ in range(3)])
        meet = intersect(a, b)
        expect = {p.value for p in enumerate_points(a)} & {
            p.value for p in enumerate_points(b)
        }
        got = {p.value for p in enumerate_points(meet)}
        assert got == expect


@st.composite
def span_pairs(draw):
    """Two spans of 1 to 5 random points each in one space of n <= 4 qubits."""
    n = draw(st.integers(1, 4))
    points = st.lists(
        st.integers(1, (1 << (2 * n)) - 1).map(lambda v: SymplecticPoint.from_value(n, v)),
        min_size=1,
        max_size=5,
    )
    return span(draw(points)), span(draw(points))


@settings(max_examples=300, deadline=None)
@given(span_pairs())
def test_intersection_has_exactly_the_common_points(pair):
    a, b = pair
    meet = intersect(a, b)
    common = set(_span_values(a.rows)) & set(_span_values(b.rows))
    assert set(_span_values(meet.rows)) == common
    assert len(common) == 1 << meet.rank
    assert a.rank + b.rank == subspace_sum(a, b).rank + meet.rank


def test_empty_intersection_has_rank_zero():
    a = span([pt("XI")])
    b = span([pt("IZ")])
    meet = intersect(a, b)
    assert meet.rank == 0
    assert enumerate_points(meet) == []


# ---------------------------------------------------------------------------
# isotropy


def test_totally_isotropic_examples():
    good = span([pt(w) for w in ("ZIII", "IXII", "IIZI", "IIIX")])
    assert is_totally_isotropic(good)
    bad = span([pt("XI"), pt("ZI")])
    assert not is_totally_isotropic(bad)


def test_context_spans_are_maximal_isotropic():
    """Each rank-4 span from the built-in configuration is maximal: every
    outside point fails the form against some member."""
    groups = [
        ("ZIII", "IXII", "IIZI", "IIIX", "ZXZX"),
        ("ZIII", "IXII", "IIXI", "IIIZ", "ZXXZ"),
        ("XIII", "IXII", "IIZI", "IIIZ", "XXZZ"),
        ("XIII", "IXII", "IIXI", "IIIX", "XXXX"),
    ]
    for words in groups:
        sub = span([pt(w) for w in words])
        assert sub.rank == 4
        assert is_totally_isotropic(sub)
        inside = {p.value for p in enumerate_points(sub)}
        for q in all_points(4):
            if q.value in inside:
                continue
            assert any(
                symplectic_form(q, member) == 1 for member in enumerate_points(sub)
            )


def test_isotropic_rank_bound():
    """No totally isotropic subspace exceeds rank n."""
    rng = random.Random(59)
    for _ in range(200):
        n = rng.randint(1, 4)
        sub = span([rand_point(rng, n) for _ in range(5)])
        if is_totally_isotropic(sub):
            assert sub.rank <= n
