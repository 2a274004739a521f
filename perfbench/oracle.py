"""Correctness checks that share no code with bksgeom.

Points of the n-qubit space are integers ``(x << n) | z`` with qubit 1 at
the most significant bit of each mask, and every sign follows the real
convention Y = XZ.  The checks re-derive everything they need from the
Pauli words themselves:

* ``solve``: Gaussian elimination over GF(2) on the context-incidence
  system, deciding whether a noncontextual +-1 valuation exists.
* ``witness_ok``: a claimed valuation against every context constraint.
* ``rectangle_error``: the anchored rectangle shape, checked point by
  point.
* ``result_list_error``: duplicates and closure under twinning, both on
  signed words.
"""

from __future__ import annotations

import hashlib
import itertools
import json

LETTER_BITS = {"I": (0, 0), "X": (1, 0), "Z": (0, 1), "Y": (1, 1)}
BITS_LETTER = {bits: letter for letter, bits in LETTER_BITS.items()}


def parse_word(word: str) -> tuple[int, int, int, int]:
    """(n, sign, x, z) of a word like "-ZXII"."""
    sign = 1
    if word[0] in "+-−":
        sign = 1 if word[0] == "+" else -1
        word = word[1:]
    x = z = 0
    for letter in word:
        bx, bz = LETTER_BITS[letter]
        x = (x << 1) | bx
        z = (z << 1) | bz
    return len(word), sign, x, z


def point_of(word: str) -> int:
    n, _, x, z = parse_word(word)
    return (x << n) | z


def word_of(n: int, value: int, sign: int = 1) -> str:
    x, z = value >> n, value & ((1 << n) - 1)
    letters = "".join(
        BITS_LETTER[(x >> k) & 1, (z >> k) & 1] for k in range(n - 1, -1, -1)
    )
    return ("-" if sign < 0 else "") + letters


def anticommute(n: int, u: int, v: int) -> bool:
    low = (1 << n) - 1
    return ((u >> n) & v & low).bit_count() % 2 != ((u & low) & (v >> n)).bit_count() % 2


def product(n: int, values) -> tuple[int, int]:
    """(sign, residual point) of the left-to-right product of positive words.

    Moving a right factor's X past the accumulated Z flips the sign once
    per qubit where both are present.
    """
    low = (1 << n) - 1
    x = z = 0
    sign = 1
    for v in values:
        vx, vz = v >> n, v & low
        if (z & vx).bit_count() % 2:
            sign = -sign
        x ^= vx
        z ^= vz
    return sign, (x << n) | z


def context_error(n: int, values) -> str | None:
    """Why a list of points is not a context, or None."""
    for u, v in itertools.combinations(values, 2):
        if anticommute(n, u, v):
            return f"{word_of(n, u)} and {word_of(n, v)} anticommute"
    if product(n, values)[1] != 0:
        return "product is not proportional to the identity"
    return None


def canonical_sign(n: int, values) -> int:
    return product(n, values)[0]


# ---------------------------------------------------------------------------
# the valuation system


def solve(n: int, contexts) -> bool:
    """Whether v: points -> {+1, -1} exists with prod_{p in c} v(p) equal to
    the canonical sign of c for every context c.

    Each context is one GF(2) equation sum_{p in c} bit(p) = [sign = -1];
    the system is inconsistent exactly when elimination leaves 0 = 1.
    """
    index: dict[int, int] = {}
    pivots: dict[int, int] = {}
    for ctx in contexts:
        row = 1 if canonical_sign(n, ctx) < 0 else 0
        for v in ctx:
            row ^= 2 << index.setdefault(v, len(index))
        while row > 1:
            top = row.bit_length() - 1
            if top not in pivots:
                pivots[top] = row
                break
            row ^= pivots[top]
        if row == 1:
            return False
    return True


def witness_ok(n: int, contexts, witness: dict[str, int]) -> bool:
    """Whether a word -> +-1 valuation satisfies every context constraint."""
    values = {point_of(word): value for word, value in witness.items()}
    universe = {v for ctx in contexts for v in ctx}
    if set(values) != universe or any(s not in (1, -1) for s in values.values()):
        return False
    for ctx in contexts:
        acc = 1
        for v in ctx:
            acc *= values[v]
        if acc != canonical_sign(n, ctx):
            return False
    return True


# ---------------------------------------------------------------------------
# rectangles


def _is_elliptic_quadric(values) -> bool:
    """Five points, no three collinear and no four coplanar (XOR tests)."""
    present = set(values)
    if len(present) != 5:
        return False
    for a, b in itertools.combinations(values, 2):
        if a ^ b in present:
            return False
    for a, b, c in itertools.combinations(values, 3):
        if a ^ b ^ c in present:
            return False
    return True


def rectangle_error(n: int, anchor: int, contexts) -> str | None:
    """Why a configuration is not an anchored rectangle, or None.

    Required: four five-point elliptic quadric contexts through the
    anchor with canonical sign +1, one four-point affine context
    (points XOR to zero), every point in an even number of contexts,
    and canonical sign product -1.
    """
    quads = [c for c in contexts if len(c) == 5]
    affine = [c for c in contexts if len(c) == 4]
    if len(contexts) != 5 or len(quads) != 4 or len(affine) != 1:
        return f"context sizes {sorted(len(c) for c in contexts)}"
    for ctx in contexts:
        err = context_error(n, ctx)
        if err:
            return err
    for cap in quads:
        if anchor not in cap:
            return f"cap {[word_of(n, v) for v in cap]} misses the anchor"
        if not _is_elliptic_quadric(cap):
            return f"{[word_of(n, v) for v in cap]} is not an elliptic quadric"
        if canonical_sign(n, cap) != 1:
            return "cap with canonical sign -1"
    (plane,) = affine
    if len(set(plane)) != 4 or plane[0] ^ plane[1] ^ plane[2] ^ plane[3]:
        return "fifth context is not an affine plane"
    counts: dict[int, int] = {}
    for ctx in contexts:
        for v in ctx:
            counts[v] = counts.get(v, 0) + 1
    if any(c % 2 for c in counts.values()):
        return "odd multiplicity"
    sign = 1
    for ctx in contexts:
        sign *= canonical_sign(n, ctx)
    if sign != -1:
        return "sign product +1"
    return None


def config_key(contexts) -> tuple:
    """Order-free key of a configuration given as contexts of (point, sign)."""
    return tuple(sorted(tuple(sorted(c)) for c in contexts))


def twin(n: int, anchor: int, contexts):
    """Every member but the anchor multiplied on the left by the anchor's word.

    (X^a Z^b)(X^c Z^d) picks up (-1)^(b.c), so the sign flips with the
    overlap of the anchor's Z mask and the member's X mask.
    """
    low = (1 << n) - 1
    flip = lambda v: -1 if ((anchor & low) & (v >> n)).bit_count() % 2 else 1  # noqa: E731
    return [[(v, s) if v == anchor else (v ^ anchor, s * flip(v)) for v, s in c] for c in contexts]


def result_list_error(n: int, anchor: int, results) -> str | None:
    """Duplicate observables configurations, and closure under twinning."""
    keys = [config_key(r) for r in results]
    if len(set(keys)) != len(keys):
        return "duplicate rectangle"
    seen = set(keys)
    for r in results:
        if config_key(twin(n, anchor, r)) not in seen:
            return "result list is not closed under twinning"
    return None


def sign_variants(results) -> int:
    """Results whose points and contexts repeat an earlier one up to word signs."""
    unsigned = {tuple(sorted(tuple(sorted(v for v, _ in c)) for c in r)) for r in results}
    return len(results) - len(unsigned)


def digest(obj) -> str:
    """Short stable digest of a JSON-serialisable object or of bytes."""
    data = obj if isinstance(obj, bytes) else json.dumps(obj, separators=(",", ":")).encode()
    return hashlib.sha256(data).hexdigest()[:20]
