"""Tests for the valuation solve, the numba kernels and their numpy fallbacks."""

import os
import random
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bksgeom import _kernels
from bksgeom.geometry import SymplecticPoint, enumerate_points, span, symplectic_form
from bksgeom.pauli import parse_observable, to_symplectic
from bksgeom.search import _third_table

needs_numba = pytest.mark.skipif(
    not _kernels.NUMBA_ACTIVE, reason="numba path disabled"
)


def brute_valuation_scan(masks, parities, width):
    """Reference implementation in plain Python."""
    for v in range(1 << width):
        if all(
            bin(v & m).count("1") % 2 == p for m, p in zip(masks, parities)
        ):
            return v
    return -1


def random_instance(rng, width, count):
    masks = np.array([rng.randrange(1 << width) for _ in range(count)], dtype=np.int64)
    parities = np.array([rng.randrange(2) for _ in range(count)], dtype=np.int64)
    return masks, parities


# ---------------------------------------------------------------------------
# valuation solve


def test_valuation_scan_matches_brute_force():
    rng = random.Random(61)
    for _ in range(40):
        width = rng.randint(1, 11)
        masks, parities = random_instance(rng, width, rng.randint(1, 8))
        expect = brute_valuation_scan(masks, parities, width)
        assert _kernels.valuation_scan(masks, parities, width) == expect


@st.composite
def scan_instances(draw):
    width = draw(st.integers(0, 12))
    rows = draw(
        st.lists(
            st.tuples(st.integers(0, (1 << width) - 1), st.integers(0, 1)),
            max_size=10,
        )
    )
    masks = [m for m, _ in rows]
    parities = [p for _, p in rows]
    if draw(st.booleans()):
        # Callers may pass numpy int64 arrays as well as lists.
        masks = np.array(masks, dtype=np.int64)
        parities = np.array(parities, dtype=np.int64)
    return masks, parities, width


@settings(max_examples=300, deadline=None)
@given(scan_instances())
def test_valuation_scan_property_matches_brute_force(instance):
    masks, parities, width = instance
    expect = brute_valuation_scan(masks, parities, width)
    assert _kernels.valuation_scan(masks, parities, width) == expect


def test_valuation_scan_zero_width():
    empty = np.zeros(0, dtype=np.int64)
    assert _kernels.valuation_scan(empty, empty, 0) == 0
    unsat = np.array([0], dtype=np.int64)
    odd = np.array([1], dtype=np.int64)
    assert _kernels.valuation_scan(unsat, odd, 0) == -1


def test_valuation_scan_unsatisfiable():
    # popcount(v & 0) is always even, so parity 1 on a zero mask is hopeless.
    masks = np.array([5, 0], dtype=np.int64)
    parities = np.array([0, 1], dtype=np.int64)
    assert _kernels.valuation_scan(masks, parities, 8) == -1


def test_numpy_scan_crosses_chunk_boundary():
    # A target past 2^20 that an ascending scan in 2^20 chunks would
    # reach only in its second chunk.
    width = 21
    target = (1 << 20) + 12345
    masks = np.array([1 << i for i in range(width)], dtype=np.int64)
    parities = np.array([(target >> i) & 1 for i in range(width)], dtype=np.int64)
    assert _kernels.valuation_scan(masks, parities, width) == target


# ---------------------------------------------------------------------------
# cap subsets


def span_s1_table():
    points = enumerate_points(
        span([to_symplectic(parse_observable(w)) for w in ("ZIII", "IXII", "IIZI", "IIIX")])
    )
    anchor_index = [p.value for p in points].index(64)
    return _third_table(points), anchor_index


def test_cap_subsets_shape_and_order():
    third, anchor_index = span_s1_table()
    rows = _kernels.cap_subsets(third, -1)
    assert rows.shape == (168, 5)
    as_tuples = [tuple(r) for r in rows]
    assert as_tuples == sorted(as_tuples)
    for row in as_tuples:
        assert list(row) == sorted(set(row))
    anchored = _kernels.cap_subsets(third, anchor_index)
    assert anchored.shape == (56, 5)
    assert all(anchor_index in set(r) for r in anchored)


def test_cap_subsets_numpy_path_agrees():
    third, anchor_index = span_s1_table()
    for fixed in (-1, anchor_index, 0):
        np_rows = _kernels._cap_subsets_np(third, fixed)
        rows = _kernels.cap_subsets(third, fixed)
        assert np.array_equal(np_rows, rows)


@needs_numba
def test_cap_subsets_jit_path_agrees():
    third, anchor_index = span_s1_table()
    for fixed in (-1, anchor_index):
        assert np.array_equal(
            _kernels._cap_subsets_jit(third, fixed),
            _kernels._cap_subsets_np(third, fixed),
        )


# ---------------------------------------------------------------------------
# pair parity


def test_pair_parity_matches_symplectic_form():
    rng = random.Random(73)
    n = 16
    pairs = []
    for _ in range(1000):
        a = SymplecticPoint.from_value(n, rng.randrange(1, 1 << (2 * n)))
        b = SymplecticPoint.from_value(n, rng.randrange(1, 1 << (2 * n)))
        pairs.append((a, b))
    x1 = np.array([a.x for a, _ in pairs], dtype=np.int64)
    z1 = np.array([a.z for a, _ in pairs], dtype=np.int64)
    x2 = np.array([b.x for _, b in pairs], dtype=np.int64)
    z2 = np.array([b.z for _, b in pairs], dtype=np.int64)
    got = _kernels.pair_parity(x1, z1, x2, z2)
    expect = np.array([symplectic_form(a, b) for a, b in pairs], dtype=np.uint8)
    assert np.array_equal(got, expect)
    assert np.array_equal(_kernels._pair_parity_np(x1, z1, x2, z2), expect)


@needs_numba
def test_pair_parity_jit_path_agrees():
    rng = random.Random(79)
    x1, z1, x2, z2 = (
        np.array([rng.randrange(1 << 16) for _ in range(500)], dtype=np.int64)
        for _ in range(4)
    )
    assert np.array_equal(
        _kernels._pair_parity_jit(x1, z1, x2, z2),
        _kernels._pair_parity_np(x1, z1, x2, z2),
    )


# ---------------------------------------------------------------------------
# environment flag


def test_warm_up_runs():
    _kernels.warm_up()


def test_disable_flag_forces_fallback():
    code = (
        "from bksgeom import _kernels\n"
        "from bksgeom.rectangle import magic_rectangle\n"
        "from bksgeom.magic import parity_witness\n"
        "cert = parity_witness(magic_rectangle())\n"
        "print(_kernels.NUMBA_ACTIVE, cert.certified, cert.nchv_assignment_exists)\n"
    )
    env = dict(os.environ, BKSGEOM_DISABLE_NUMBA="1")
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False True False"
