"""Exact sign-tracked algebra of the real N-qubit Pauli group.

Observables are tensor words over the letters I, X, Z, Y together with a
global sign in {+1, -1}.  The real convention Y = XZ is used throughout,
so no imaginary phase ever appears and Y * Y = -I.  Each letter is the
bit pair (a, b) of X^a Z^b; a whole word is two bitmasks with qubit 1 at
the most significant bit, matching the point encoding in
:mod:`bksgeom.geometry`.

Multiplication is per qubit: (X^a Z^b)(X^a' Z^b') = (-1)^(b a') X^(a+a') Z^(b+b'),
so the sign flips once for every qubit where the left factor has a Z
crossing an X of the right factor.  :func:`packed_product` is the one
implementation of that fold; it works on packed 2N-bit values.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable

from .geometry import MAX_QUBITS, SymplecticPoint, _check_qubits, _check_same_space, packed_form

_LETTER_BITS = {"I": (0, 0), "X": (1, 0), "Z": (0, 1), "Y": (1, 1)}
_BITS_LETTER = {bits: letter for letter, bits in _LETTER_BITS.items()}

# Unicode minus is accepted on input so words copied from typeset text parse.
_MINUS_CHARS = "-\u2212"


class ParseError(ValueError):
    """Raised when a Pauli word cannot be parsed."""


class PauliObservable(namedtuple("PauliObservable", "n x z sign")):
    """A signed real Pauli word sign * (letter_1 x ... x letter_N).

    Attributes:
        n: number of qubits.
        x: N-bit mask of X components, qubit 1 at the MSB.
        z: N-bit mask of Z components, qubit 1 at the MSB.
        sign: +1 or -1.
    """

    __slots__ = ()

    def __new__(cls, n: int, x: int, z: int, sign: int = 1) -> "PauliObservable":
        if sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {sign}")
        _check_qubits(n, x, z)
        return tuple.__new__(cls, (n, x, z, sign))

    @property
    def is_identity(self) -> bool:
        """True for +I...I and -I...I alike."""
        return self.x == 0 and self.z == 0

    @property
    def value(self) -> int:
        """Packed 2N-bit word, x block high, z block low; the sign is dropped."""
        return (self.x << self.n) | self.z

    @property
    def letters(self) -> str:
        """The unsigned word, e.g. "ZXII"."""
        out = []
        for k in range(self.n - 1, -1, -1):
            out.append(_BITS_LETTER[(self.x >> k) & 1, (self.z >> k) & 1])
        return "".join(out)


def parse_observable(text: str) -> PauliObservable:
    """Parse a word like "ZXII", "-YIZ" or "+XX" into an observable.

    An optional leading + or - (ASCII or Unicode minus) gives the sign;
    the rest must be letters from {I, X, Z, Y}.  Raises ParseError with
    the offending position on bad input.
    """
    if not isinstance(text, str):
        raise ParseError(f"expected a string, got {type(text).__name__}")
    word = text.strip()
    sign = 1
    if word and (word[0] == "+" or word[0] in _MINUS_CHARS):
        if word[0] in _MINUS_CHARS:
            sign = -1
        word = word[1:]
    if not word:
        raise ParseError(f"empty observable word in {text!r}")
    if len(word) > MAX_QUBITS:
        raise ParseError(f"word {word!r} has {len(word)} letters, maximum is {MAX_QUBITS}")
    x = z = 0
    for pos, letter in enumerate(word, start=1):
        bits = _LETTER_BITS.get(letter)
        if bits is None:
            raise ParseError(f"invalid letter {letter!r} at position {pos} in {text!r}")
        x = (x << 1) | bits[0]
        z = (z << 1) | bits[1]
    return PauliObservable(len(word), x, z, sign)


def format_observable(obs: PauliObservable) -> str:
    """Render an observable; positive words carry no sign prefix."""
    prefix = "-" if obs.sign < 0 else ""
    return prefix + obs.letters


def packed_product(n: int, values: Iterable[int]) -> tuple[int, int]:
    """Sign and packed word of the left-to-right product of positive words.

    Each factor's X letters move past the Z letters accumulated so far,
    one sign flip per crossing: (-1)^popcount(z_acc & x_v).  Shifting a
    value right by N leaves its x block, aligned with the z block.
    """
    acc = flips = 0
    for v in values:
        flips += (acc & (v >> n)).bit_count()
        acc ^= v
    return (-1 if flips & 1 else 1), acc


def _from_packed(n: int, word: int, sign: int) -> PauliObservable:
    return PauliObservable(n, word >> n, word & ((1 << n) - 1), sign)


def multiply(a: PauliObservable, b: PauliObservable) -> PauliObservable:
    """The product a * b in the real Pauli group (order matters)."""
    _check_same_space(a, b)
    sign, word = packed_product(a.n, (a.value, b.value))
    return _from_packed(a.n, word, sign * a.sign * b.sign)


def commutes(a: PauliObservable, b: PauliObservable) -> bool:
    """Whether a and b commute; signs never matter for commutation."""
    _check_same_space(a, b)
    return packed_form(a.n, a.value, b.value) == 0


def product_of_set(observables: Iterable[PauliObservable]) -> PauliObservable:
    """Left-to-right product of a non-empty sequence of observables.

    For mutually commuting inputs the result does not depend on the
    order of the sequence.
    """
    obs_list = list(observables)
    if not obs_list:
        raise ValueError("product of an empty collection is ambiguous; give at least one observable")
    n = obs_list[0].n
    sign = 1
    for obs in obs_list:
        _check_same_space(obs_list[0], obs)
        sign *= obs.sign
    product_sign, word = packed_product(n, [obs.value for obs in obs_list])
    return _from_packed(n, word, sign * product_sign)


def to_symplectic(obs: PauliObservable) -> SymplecticPoint:
    """Forget the sign and view the word as a point of PG(2N-1, 2).

    Identity words map to the zero vector, which is not a projective
    point, so they are rejected.
    """
    if obs.is_identity:
        raise ValueError(f"{format_observable(obs)!r} is an identity word, not a point")
    return SymplecticPoint(obs.n, obs.x, obs.z)


def from_symplectic(point: SymplecticPoint) -> PauliObservable:
    """The positive-sign observable for a symplectic point."""
    return PauliObservable(point.n, point.x, point.z, 1)


def point_word(point: SymplecticPoint) -> str:
    """The unsigned Pauli word naming a point, e.g. "IXII"."""
    return from_symplectic(point).letters
