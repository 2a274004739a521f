"""Seeded inputs for the three workloads.  bksgeom sees only what these build."""

from __future__ import annotations

import random
from dataclasses import dataclass

from oracle import anticommute, point_of, solve, word_of

# Known magic cores, as Pauli words: the 2-qubit Mermin square and the
# 4-qubit rectangle of the paper.
MERMIN = (
    ("XI", "IX", "XX"),
    ("IZ", "ZI", "ZZ"),
    ("XZ", "ZX", "YY"),
    ("XI", "IZ", "XZ"),
    ("IX", "ZI", "ZX"),
    ("XX", "ZZ", "YY"),
)
RECTANGLE = (
    ("ZIII", "IXII", "IIZI", "IIIX", "ZXZX"),
    ("ZIII", "IXII", "IIXI", "IIIZ", "ZXXZ"),
    ("XIII", "IXII", "IIZI", "IIIZ", "XXZZ"),
    ("XIII", "IXII", "IIXI", "IIIX", "XXXX"),
    ("ZXZX", "ZXXZ", "XXZZ", "XXXX"),
)

# ---------------------------------------------------------------------------
# certify: one batch is 40 configuration texts in a fixed mix of groups,
# shuffled.  Whole batches keep the mix identical from run to run.
#   (group, count, qubit counts, universe size range, verdict wanted)
# "tail" universes of exactly 22 points with no valuation make the
# exhaustive scan walk all 2^22 candidates; "large" universes sit above
# the 30-point scan limit.
CERTIFY_MIX = (
    ("small", 20, (2, 3, 4, 5), (6, 16), True),
    ("small_magic", 10, (4, 5), (9, 16), False),
    ("medium", 6, (4, 5, 6), (17, 22), True),
    ("tail", 2, (5, 6), (22, 22), False),
    ("large", 2, (5, 6), (31, 40), None),
)
SCAN_LIMIT = 30


@dataclass(frozen=True)
class CertifyItem:
    group: str
    n: int
    contexts: tuple[tuple[int, ...], ...]
    sat: bool
    text: str

    @property
    def universe(self) -> int:
        return len({v for ctx in self.contexts for v in ctx})


def _in_span(v: int, basis: list[int]) -> bool:
    rows: list[int] = []
    for b in basis:
        for r in rows:
            b = min(b, b ^ r)
        if b:
            rows.append(b)
    for r in sorted(rows, reverse=True):
        v = min(v, v ^ r)
    return v == 0


def _random_context(rng: random.Random, n: int, universe: set[int]) -> tuple[int, ...]:
    """Three to six commuting points of a random isotropic subspace, XOR zero."""
    while True:
        rank = rng.randint(2, min(n, 4))
        basis = [rng.choice(sorted(universe))] if universe and rng.random() < 0.6 else []
        while len(basis) < rank:
            v = rng.randrange(1, 1 << (2 * n))
            if not any(anticommute(n, v, b) for b in basis) and not _in_span(v, basis):
                basis.append(v)
        space = []
        for picks in range(1, 1 << rank):
            acc = 0
            for i in range(rank):
                if picks >> i & 1:
                    acc ^= basis[i]
            space.append(acc)
        size = rng.randint(3, min(6, len(space)))
        members = rng.sample(space, size - 1)
        last = 0
        for v in members:
            last ^= v
        if last and last not in members:
            return tuple(members + [last])


def _embed(rng: random.Random, n: int, core) -> list[tuple[int, ...]]:
    """A core placed on random qubits, with X and Z swapped on some of them."""
    width = len(core[0][0])
    places = rng.sample(range(n), width)
    swap = [rng.random() < 0.5 for _ in range(width)]
    swapped = {"X": "Z", "Z": "X", "Y": "Y", "I": "I"}
    out = []
    for ctx in core:
        values = []
        for word in ctx:
            letters = ["I"] * n
            for k, letter in enumerate(word):
                letters[places[k]] = swapped[letter] if swap[k] else letter
            values.append(point_of("".join(letters)))
        out.append(tuple(values))
    return out


def _render(rng: random.Random, n: int, contexts) -> str:
    lines = ["# generated configuration"] if rng.random() < 0.3 else []
    for i, ctx in enumerate(contexts):
        if i:
            lines.append("")
        if rng.random() < 0.5:
            lines.append(f"name: C{i + 1}")
        for v in rng.sample(ctx, len(ctx)):
            lines.append(word_of(n, v, -1 if rng.random() < 0.15 else 1))
    return "\n".join(lines) + "\n"


def _certify_item(rng: random.Random, group: str, qubits, sizes, want) -> CertifyItem:
    lo, hi = sizes
    while True:
        n = rng.choice(qubits)
        contexts: list[tuple[int, ...]] = []
        if want is False or (want is None and rng.random() < 0.5):
            core = RECTANGLE if n >= 4 and rng.random() < 0.5 else MERMIN
            contexts = _embed(rng, n, core)
        universe = {v for ctx in contexts for v in ctx}
        while len(universe) < lo or len(contexts) < 3:
            ctx = _random_context(rng, n, universe)
            contexts.append(ctx)
            universe.update(ctx)
        sat = solve(n, contexts)
        if len(universe) <= hi and (want is None or sat == want):
            rng.shuffle(contexts)
            return CertifyItem(group, n, tuple(contexts), sat, _render(rng, n, contexts))


def certify_batch(rng: random.Random) -> list[CertifyItem]:
    items = [
        _certify_item(rng, group, qubits, sizes, want)
        for group, count, qubits, sizes, want in CERTIFY_MIX
        for _ in range(count)
    ]
    rng.shuffle(items)
    return items


# ---------------------------------------------------------------------------
# rect_search: anchors in cycles of three, one per class.  The classes
# split the 255 four-qubit points by their number of Y letters: none
# (like IXII), even and nonzero (like YYYY), odd (like YIII); odd-Y
# anchors square to -identity.  Each class contributes a fixed pool of
# POOL_SIZE anchors: the named one plus a fixed sample of the rest.  A
# run covers most of each pool, so runs with different seeds differ in
# order and in the last few anchors only, and per-anchor cost
# differences add little to the run-to-run spread.  The first cycle is always
# IXII, YYYY, YIII; no anchor repeats within a run, so every first call
# at an anchor is cold.
RECT_QUBITS = 4
FIRST_CYCLE = ("IXII", "YYYY", "YIII")
POOL_SIZE = 8


def anchor_classes() -> tuple[list[str], list[str], list[str]]:
    words = [word_of(RECT_QUBITS, v) for v in range(1, 1 << (2 * RECT_QUBITS))]
    counts = {w: w.count("Y") for w in words}
    return (
        [w for w in words if counts[w] == 0],
        [w for w in words if counts[w] and counts[w] % 2 == 0],
        [w for w in words if counts[w] % 2],
    )


def anchor_pools() -> list[list[str]]:
    pick = random.Random(0)
    return [
        [first] + pick.sample([w for w in pool if w != first], POOL_SIZE - 1)
        for pool, first in zip(anchor_classes(), FIRST_CYCLE)
    ]


def anchor_cycles(seed: int) -> list[tuple[str, str, str]]:
    rng = random.Random(seed)
    orders = [[pool[0]] + rng.sample(pool[1:], len(pool) - 1) for pool in anchor_pools()]
    return list(zip(*orders))


# ---------------------------------------------------------------------------
# cli_cold: the README commands.  "FILE" is the rectangle written out in
# the block format.  The seed shuffles the order within each round.
LIGHT_COMMANDS = (
    ("reproduce",),
    ("reproduce", "--json"),
    ("verify", "FILE"),
    ("classify", "FILE"),
    ("complement", "FILE", "--point", "IXII"),
    ("search", "--qubits", "2", "--shape", "mermin_square", "--limit", "10"),
    ("search", "--qubits", "4", "--shape", "ovoid_census", "--anchor", "IXII"),
)
RECT_COMMANDS = (
    ("search", "--qubits", "4", "--shape", "hc_rectangle", "--limit", "4"),
    ("search", "--qubits", "4", "--shape", "hc_rectangle", "--limit", "4", "--json"),
)


def rectangle_file_text() -> str:
    blocks = []
    for i, ctx in enumerate(RECTANGLE, start=1):
        blocks.append("\n".join([f"name: S{i}", *ctx]))
    return "\n\n".join(blocks) + "\n"


def cli_rounds(seed: int):
    """An endless sequence of rounds, each every command once in seeded order."""
    rng = random.Random(seed)
    commands = LIGHT_COMMANDS + RECT_COMMANDS
    while True:
        yield rng.sample(commands, len(commands))
