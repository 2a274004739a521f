"""The built-in four-qubit magic rectangle and its twin.

Eleven four-qubit observables arranged in five contexts: four contexts
of five observables whose products are +IIII and one context of four
observables whose product is -IIII.  Every observable except IXII sits
in exactly two contexts, IXII sits in four, so the parity argument
certifies a Bell-Kochen-Specker contradiction.

The twin configuration is the image of the original under left
multiplication by IXII with the point IXII held fixed; it is magic in
exactly the same way.
"""

from __future__ import annotations

import functools

from .geometry import SymplecticPoint
from .magic import MagicConfiguration
from .pauli import parse_observable, to_symplectic

CONTEXT_NAMES = ("S1", "S2", "S3", "S4", "S5")

CONTEXT_WORDS = (
    ("ZIII", "IXII", "IIZI", "IIIX", "ZXZX"),
    ("ZIII", "IXII", "IIXI", "IIIZ", "ZXXZ"),
    ("XIII", "IXII", "IIZI", "IIIZ", "XXZZ"),
    ("XIII", "IXII", "IIXI", "IIIX", "XXXX"),
    ("ZXZX", "ZXXZ", "XXZZ", "XXXX"),
)

TWIN_CONTEXT_WORDS = (
    ("IXII", "ZXII", "IXZI", "IXIX", "ZIZX"),
    ("IXII", "ZXII", "IXIZ", "IXXI", "ZIXZ"),
    ("IXII", "IXZI", "IXIZ", "XXII", "XIZZ"),
    ("IXII", "IXIX", "IXXI", "XXII", "XIXX"),
    ("ZIZX", "ZIXZ", "XIZZ", "XIXX"),
)

ANCHOR_WORD = "IXII"


@functools.cache
def anchor_point() -> SymplecticPoint:
    """The perspectivity point IXII, parsed on the first call only."""
    return to_symplectic(parse_observable(ANCHOR_WORD))


def magic_rectangle() -> MagicConfiguration:
    """The built-in rectangle with contexts in the order S1..S5."""
    return MagicConfiguration.from_words(CONTEXT_WORDS)


def twin_rectangle() -> MagicConfiguration:
    """The complementary rectangle with contexts in the order S1'..S5'."""
    return MagicConfiguration.from_words(TWIN_CONTEXT_WORDS)
