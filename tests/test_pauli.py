"""Tests for the sign-tracked real Pauli algebra."""

import functools
import itertools
import operator
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bksgeom.geometry import SymplecticPoint, symplectic_form
from bksgeom.pauli import (
    MAX_QUBITS,
    ParseError,
    PauliObservable,
    commutes,
    format_observable,
    from_symplectic,
    identity,
    multiply,
    packed_product,
    parse_observable,
    point_word,
    product_of_set,
    to_symplectic,
)

# 2x2 real matrices of the four letters; Y = XZ has no imaginary unit.
_I = np.eye(2)
_X = np.array([[0.0, 1.0], [1.0, 0.0]])
_Z = np.array([[1.0, 0.0], [0.0, -1.0]])
_Y = _X @ _Z
_MATRICES = {"I": _I, "X": _X, "Z": _Z, "Y": _Y}


def matrix_of(obs: PauliObservable) -> np.ndarray:
    """Independent oracle: the observable as a dense real matrix."""
    acc = np.array([[float(obs.sign)]])
    for letter in obs.letters:
        acc = np.kron(acc, _MATRICES[letter])
    return acc


# ---------------------------------------------------------------------------
# parsing and formatting


@pytest.mark.parametrize(
    "text,sign,letters",
    [
        ("ZIII", 1, "ZIII"),
        ("+IXII", 1, "IXII"),
        ("-YIZ", -1, "YIZ"),
        ("−XX", -1, "XX"),
        ("  ZXZX ", 1, "ZXZX"),
        ("Y", 1, "Y"),
    ],
)
def test_parse_observable(text, sign, letters):
    obs = parse_observable(text)
    assert obs.sign == sign
    assert obs.letters == letters
    assert obs.n == len(letters)


@pytest.mark.parametrize("text", ["", "+", "-", "QX", "ZIQI", "XY Z", "x"])
def test_parse_rejects_bad_words(text):
    with pytest.raises(ParseError):
        parse_observable(text)


def test_parse_reports_position():
    with pytest.raises(ParseError, match="position 3"):
        parse_observable("ZIQI")


def test_parse_length_limit():
    parse_observable("X" * MAX_QUBITS)
    with pytest.raises(ParseError):
        parse_observable("X" * (MAX_QUBITS + 1))


@settings(max_examples=200, deadline=None)
@given(
    prefix=st.sampled_from(["", "+", "-", "\u2212"]),
    word=st.text(alphabet="IXZY", min_size=1, max_size=MAX_QUBITS),
    pad=st.sampled_from(["", " ", "\t"]),
)
def test_parse_format_round_trip_property(prefix, word, pad):
    """Formatting a parsed word gives the word with a plain "-" exactly
    when it is negative, and parsing that gives the observable back."""
    obs = parse_observable(pad + prefix + word + pad)
    text = format_observable(obs)
    assert text == ("-" if prefix in ("-", "\u2212") else "") + word
    assert parse_observable(text) == obs


def test_format_positive_has_no_prefix():
    assert format_observable(parse_observable("+ZX")) == "ZX"
    assert format_observable(parse_observable("-ZX")) == "-ZX"


def test_constructor_validation():
    with pytest.raises(ValueError):
        PauliObservable(2, 1, 1, 0)
    with pytest.raises(ValueError):
        PauliObservable(0, 0, 0, 1)
    with pytest.raises(ValueError):
        PauliObservable(2, 4, 0, 1)


# ---------------------------------------------------------------------------
# multiplication against the matrix oracle


@pytest.mark.parametrize(
    "a,b,want",
    [
        ("X", "Z", "Y"),
        ("Z", "X", "-Y"),
        ("Y", "Y", "-I"),
        ("X", "Y", "Z"),
        ("Y", "X", "-Z"),
        ("Z", "Y", "-X"),
        ("Y", "Z", "X"),
        ("X", "X", "I"),
        ("Z", "Z", "I"),
    ],
)
def test_single_letter_table(a, b, want):
    got = multiply(parse_observable(a), parse_observable(b))
    assert format_observable(got) == want.replace("+", "")


def test_multiply_matches_matrices_random():
    rng = random.Random(99173)
    for _ in range(300):
        n = rng.randint(1, 3)
        a = PauliObservable(n, rng.randrange(1 << n), rng.randrange(1 << n), rng.choice([1, -1]))
        b = PauliObservable(n, rng.randrange(1 << n), rng.randrange(1 << n), rng.choice([1, -1]))
        got = matrix_of(multiply(a, b))
        want = matrix_of(a) @ matrix_of(b)
        assert np.array_equal(got, want)


def test_multiply_associative():
    rng = random.Random(5511)
    for _ in range(1000):
        obs = [
            PauliObservable(4, rng.randrange(16), rng.randrange(16), rng.choice([1, -1]))
            for _ in range(3)
        ]
        left = multiply(multiply(obs[0], obs[1]), obs[2])
        right = multiply(obs[0], multiply(obs[1], obs[2]))
        assert left == right


def test_square_law():
    """An observable squares to +identity iff its Y count is even."""
    rng = random.Random(314)
    for _ in range(200):
        n = rng.randint(1, 6)
        obs = PauliObservable(n, rng.randrange(1 << n), rng.randrange(1 << n), rng.choice([1, -1]))
        sq = multiply(obs, obs)
        assert sq.is_identity
        y_count = bin(obs.x & obs.z).count("1")
        assert sq.sign == (1 if y_count % 2 == 0 else -1)


def test_commutes_matches_matrices_exhaustive_n2():
    words = [
        PauliObservable(2, x, z, 1) for x in range(4) for z in range(4)
    ]
    for a in words:
        for b in words:
            mats_commute = np.array_equal(
                matrix_of(a) @ matrix_of(b), matrix_of(b) @ matrix_of(a)
            )
            assert commutes(a, b) == mats_commute


def test_commutes_ignores_signs():
    a = parse_observable("XZ")
    b = parse_observable("ZX")
    assert commutes(a, b) == commutes(multiply(identity(2), a), b)
    neg = PauliObservable(a.n, a.x, a.z, -a.sign)
    assert commutes(a, b) == commutes(neg, b)


def test_mixed_sizes_rejected():
    with pytest.raises(ValueError):
        multiply(parse_observable("X"), parse_observable("XX"))
    with pytest.raises(ValueError):
        commutes(parse_observable("X"), parse_observable("XX"))
    with pytest.raises(ValueError):
        product_of_set([parse_observable("X"), parse_observable("Z"), parse_observable("XX")])


# Two letters anticommute exactly when both are non-I and they differ.
_ANTICOMMUTE = {(a, b): a != "I" and b != "I" and a != b for a in "IXZY" for b in "IXZY"}


def _letter_form(u: str, v: str) -> int:
    """The symplectic form of two words, counted letter by letter."""
    return sum(_ANTICOMMUTE[pair] for pair in zip(u, v)) % 2


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=st.integers(1, MAX_QUBITS))
def test_commutes_matches_the_letter_table(data, n):
    """Reference shared with no bitmask code: two words anticommute iff
    the positions where both letters are non-I and differ are odd in number."""
    words = [data.draw(st.text(alphabet="IXZY", min_size=n, max_size=n)) for _ in range(2)]
    a, b = (parse_observable(w) for w in words)
    assert commutes(a, b) == (_letter_form(*words) == 0)
    if not (a.is_identity or b.is_identity):
        assert symplectic_form(to_symplectic(a), to_symplectic(b)) == _letter_form(*words)


# ---------------------------------------------------------------------------
# set products


def test_product_of_set_left_to_right():
    obs = [parse_observable(w) for w in ("Z", "X", "Z")]
    assert format_observable(product_of_set(obs)) == "-X"


def test_product_of_set_order_independent_for_commuting():
    rng = random.Random(2718)
    members = [parse_observable(w) for w in ("ZIII", "IXII", "IIZI", "IIIX", "ZXZX")]
    base = product_of_set(members)
    for _ in range(50):
        shuffled = members[:]
        rng.shuffle(shuffled)
        assert product_of_set(shuffled) == base


def test_product_of_set_matches_matrices_random():
    rng = random.Random(4243)
    for _ in range(300):
        n = rng.randint(1, 3)
        obs = [
            PauliObservable(n, rng.randrange(1 << n), rng.randrange(1 << n), rng.choice([1, -1]))
            for _ in range(rng.randint(2, 5))
        ]
        want = functools.reduce(np.matmul, [matrix_of(o) for o in obs])
        assert np.array_equal(matrix_of(product_of_set(obs)), want)


def _beta(n: int, u: int, v: int) -> int:
    """popcount(z_u & x_v) mod 2: the flips of the packed pair (u, v)."""
    return (u & ((1 << n) - 1) & v >> n).bit_count() & 1


@settings(max_examples=150, deadline=None)
@given(data=st.data(), n=st.integers(1, 3))
def test_commuting_product_sign_is_the_pair_form_in_every_order(data, n):
    """Pairwise-commuting positive words with XOR 0 (any words, then their
    sum) multiply to (-1)^e times the identity, with e the XOR of beta
    over the pairs, in every order; so do their real matrices."""
    observables = [PauliObservable(n, v >> n, v & ((1 << n) - 1)) for v in range(1 << 2 * n)]
    words: list = []
    for _ in range(data.draw(st.integers(1, 4))):
        candidates = [
            v
            for v, obs in enumerate(observables)
            if not any(_letter_form(observables[u].letters, obs.letters) for u in words)
        ]
        words.append(data.draw(st.sampled_from(candidates)))
    words.append(functools.reduce(operator.xor, words))
    exponent = functools.reduce(
        operator.xor, (_beta(n, u, v) for u, v in itertools.combinations(words, 2)), 0
    )
    for order in itertools.permutations(words):
        assert packed_product(n, order) == ((-1) ** exponent, 0)
    matrices = [matrix_of(observables[v]) for v in words]
    assert np.array_equal(functools.reduce(np.matmul, matrices), (-1) ** exponent * np.eye(1 << n))


def test_product_of_set_empty_rejected():
    with pytest.raises(ValueError):
        product_of_set([])


# ---------------------------------------------------------------------------
# symplectic round trip


def test_to_from_symplectic_round_trip():
    rng = random.Random(404)
    for _ in range(200):
        n = rng.randint(1, 8)
        x = rng.randrange(1 << n)
        z = rng.randrange(1 << n)
        if x == 0 and z == 0:
            continue
        obs = PauliObservable(n, x, z, 1)
        assert from_symplectic(to_symplectic(obs)) == obs


def test_to_symplectic_rejects_identity():
    with pytest.raises(ValueError):
        to_symplectic(identity(3))
    with pytest.raises(ValueError):
        to_symplectic(PauliObservable(3, 0, 0, -1))


def test_from_symplectic_is_positive():
    p = SymplecticPoint(4, 4, 0)
    assert from_symplectic(p).sign == 1
    assert point_word(p) == "IXII"


def test_point_values_match_expected_encoding():
    assert to_symplectic(parse_observable("XIII")).value == 128
    assert to_symplectic(parse_observable("IXII")).value == 64
    assert to_symplectic(parse_observable("ZIII")).value == 8
    assert to_symplectic(parse_observable("IIIZ")).value == 1
