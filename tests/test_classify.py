"""Tests for geometric classification of point sets."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bksgeom.classify import (
    KIND_AFFINE_PLANE,
    KIND_ELLIPTIC_QUADRIC,
    KIND_FANO_PLANE,
    KIND_GENERIC,
    KIND_GRID,
    KIND_LINE,
    KIND_SINGLE_POINT,
    KIND_TRIANGLE,
    classify_set,
)
from bksgeom.geometry import SymplecticPoint, enumerate_points, span
from bksgeom.pauli import point_word

from reference_geometry import brute_classify, closure_rest, collinear_triple, pt

CONTEXT_WORDS = (
    ("ZIII", "IXII", "IIZI", "IIIX", "ZXZX"),
    ("ZIII", "IXII", "IIXI", "IIIZ", "ZXXZ"),
    ("XIII", "IXII", "IIZI", "IIIZ", "XXZZ"),
    ("XIII", "IXII", "IIXI", "IIIX", "XXXX"),
    ("ZXZX", "ZXXZ", "XXZZ", "XXXX"),
)


def pts(*words: str) -> list[SymplecticPoint]:
    return [pt(w) for w in words]


# ---------------------------------------------------------------------------
# the built-in contexts


@pytest.mark.parametrize("words", CONTEXT_WORDS[:4])
def test_five_point_contexts_are_elliptic_quadrics(words):
    label = classify_set(pts(*words))
    assert label.kind == KIND_ELLIPTIC_QUADRIC
    assert label.ambient_rank == 4
    assert label.detail == ""


def test_fifth_context_is_affine_plane():
    label = classify_set(pts(*CONTEXT_WORDS[4]))
    assert label.kind == KIND_AFFINE_PLANE
    assert label.ambient_rank == 3


# ---------------------------------------------------------------------------
# small shapes


def test_single_point():
    label = classify_set(pts("IXII"))
    assert label.kind == KIND_SINGLE_POINT
    assert label.ambient_rank == 1


def test_line_and_triangle():
    line = classify_set(pts("ZIII", "IXII", "ZXII"))
    assert (line.kind, line.ambient_rank) == (KIND_LINE, 2)
    tri = classify_set(pts("ZIII", "IXII", "IIZI"))
    assert (tri.kind, tri.ambient_rank) == (KIND_TRIANGLE, 3)


def test_pair_is_generic():
    label = classify_set(pts("ZIII", "IXII"))
    assert label.kind == KIND_GENERIC
    assert "2 points" in label.detail


def test_fano_plane():
    plane = span(pts(*CONTEXT_WORDS[4]))
    label = classify_set(enumerate_points(plane))
    assert label.kind == KIND_FANO_PLANE
    assert label.ambient_rank == 3


def test_grid_from_two_qubit_square():
    square = pts("XI", "IX", "XX", "IZ", "ZI", "ZZ", "XZ", "ZX", "YY")
    label = classify_set(square)
    assert label.kind == KIND_GRID
    assert label.ambient_rank == 4


# ---------------------------------------------------------------------------
# caps that are not quadrics


def test_cap_with_coplanar_quadruple_is_not_quadric():
    """Over GF(2) the pair test alone is too weak: this five-point set has
    no collinear triple yet contains an affine plane, so it must not be
    classified as an elliptic quadric."""
    sample = [SymplecticPoint.from_value(2, v) for v in (8, 4, 2, 14, 1)]
    assert collinear_triple([p.value for p in sample]) is None
    label = classify_set(sample)
    assert label.kind == KIND_GENERIC
    assert label.detail.startswith("coplanar quadruple:")
    assert label.detail == "coplanar quadruple: XI IX ZI YX"


def test_five_independent_points_are_not_quadric():
    """No collinear triple and no coplanar quadruple, but rank 5: five
    independent points span no PG(3, 2), so they are no elliptic quadric."""
    label = classify_set(pts("XIII", "IXII", "IIXI", "IIIX", "ZIII"))
    assert label.kind == KIND_GENERIC
    assert label.ambient_rank == 5
    assert label.detail == "no recognised shape for 5 points of rank 5"


@pytest.mark.parametrize("size", [3, 4, 5, 9])
def test_every_subset_of_pg32_matches_brute_force(size):
    """Every 3-, 4-, 5- and 9-subset of PG(3, 2), each in a seeded random
    order, gets the label and the witness text of the brute-force loops."""
    rng = random.Random(size)
    for combo in itertools.combinations(range(1, 16), size):
        points = [SymplecticPoint.from_value(2, v) for v in rng.sample(combo, size)]
        assert classify_set(points) == brute_classify(points)


def test_random_sets_match_brute_force():
    """Random sets of 1 to 12 points at N = 3 and 4 agree with the
    brute-force loops in label and witness text."""
    rng = random.Random(73)
    for _ in range(2000):
        n = rng.choice((3, 4))
        values = rng.sample(range(1, 1 << 2 * n), rng.randint(1, 12))
        points = [SymplecticPoint.from_value(n, v) for v in values]
        assert classify_set(points) == brute_classify(points)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_five_points_are_quadric_exactly_when_they_sum_to_zero(data):
    """The rule of the cap table: four independent points and their sum.

    Half the draws close the set with the sum of four points, so both
    sides of the rule are exercised at n = 2 and n = 3."""
    n = data.draw(st.integers(2, 3))
    top = (1 << 2 * n) - 1
    values = data.draw(st.lists(st.integers(1, top), min_size=4, max_size=4, unique=True))
    total = values[0] ^ values[1] ^ values[2] ^ values[3]
    if data.draw(st.booleans()) and total and total not in values:
        values.append(total)
    else:
        values.append(data.draw(st.integers(1, top).filter(lambda v: v not in values)))
    label = classify_set([SymplecticPoint.from_value(n, v) for v in values])
    assert (label.kind == KIND_ELLIPTIC_QUADRIC) == (total == values[4])


def test_collinear_witness():
    label = classify_set(pts("ZIII", "IXII", "ZXII", "IIIX", "IIIZ"))
    assert label.kind == KIND_GENERIC
    assert label.detail == "collinear triple: ZIII IXII ZXII"


def test_four_general_position():
    label = classify_set(pts("ZIII", "IXII", "IIZI", "IIIX"))
    assert label.kind == KIND_GENERIC
    assert label.detail == "four points in general position (XOR sum nonzero)"
    assert label.ambient_rank == 4


# ---------------------------------------------------------------------------
# invariances and errors


def test_classification_is_permutation_invariant():
    rng = random.Random(8191)
    samples = [pts(*w) for w in CONTEXT_WORDS] + [
        pts("XI", "IX", "XX", "IZ", "ZI", "ZZ", "XZ", "ZX", "YY")
    ]
    for sample in samples:
        base = classify_set(sample)
        for _ in range(30):
            shuffled = sample[:]
            rng.shuffle(shuffled)
            got = classify_set(shuffled)
            assert (got.kind, got.ambient_rank) == (base.kind, base.ambient_rank)


def test_duplicates_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        classify_set(pts("ZIII", "ZIII"))


def test_empty_rejected():
    with pytest.raises(ValueError):
        classify_set([])


def test_mixed_sizes_rejected():
    with pytest.raises(ValueError, match="different spaces"):
        classify_set(pts("XI") + pts("X"))


# ---------------------------------------------------------------------------
# what the span adds to a context


def test_closure_of_affine_context_leaves_a_line():
    given = pts(*CONTEXT_WORDS[4])
    assert span(given).rank == 3
    rest = closure_rest(given)
    assert classify_set(rest).kind == KIND_LINE
    assert sorted(point_word(p) for p in rest) == ["IIYY", "YIIY", "YIYI"]


def test_closure_of_quadric_complement_is_generic():
    given = pts(*CONTEXT_WORDS[0])
    assert span(given).rank == 4
    rest = closure_rest(given)
    assert len(rest) == 10
    assert classify_set(rest).kind == KIND_GENERIC
