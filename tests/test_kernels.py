"""Tests for the integer kernels and the package's runtime dependencies."""

import functools
import itertools
import operator
import random
import subprocess
import sys

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from bksgeom import _kernels


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


def test_cap_subsets_shape_and_order():
    rows = _kernels.cap_subsets()
    assert len(rows) == 168
    assert rows == sorted(rows)
    for row in rows:
        assert list(row) == sorted(set(row))
        assert all(1 <= c <= 15 for c in row)
    assert sum(1 in row for row in rows) == 56


def test_cap_subsets_matches_brute_force():
    # Reference on coordinates: a 5-subset is a cap unless some 3 or 4
    # of its points XOR to zero (a line, or a plane's affine quadruple).
    caps = [
        combo
        for combo in itertools.combinations(range(1, 16), 5)
        if all(
            functools.reduce(operator.xor, sub)
            for size in (3, 4)
            for sub in itertools.combinations(combo, size)
        )
    ]
    assert _kernels.cap_subsets() == caps


# ---------------------------------------------------------------------------
# runtime dependencies


def test_import_loads_no_numpy(child_env):
    code = 'import sys, bksgeom, bksgeom.cli; print("numpy" in sys.modules)'
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=child_env, timeout=120
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"
