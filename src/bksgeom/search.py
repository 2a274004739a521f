"""Search for magic configurations in the symplectic polar space.

Three searches are offered, selected by SearchOptions.shape:

* ``mermin_square``: 3x3 grids of two-qubit observables whose six line
  contexts certify a contradiction (ten exist, all magic).
* ``hc_rectangle``: the anchored four-qubit rectangle shape: four
  five-point elliptic quadric contexts through a common anchor point,
  each with canonical sign +1, spans pairwise meeting in lines through
  the anchor, every pair of contexts sharing exactly one further point,
  completed by the four odd-multiplicity points forming an affine plane
  context with canonical sign -1.
* ``ovoid_census``: no configurations, just the census of elliptic
  quadrics inside rank-4 ambient spaces (see :func:`cap_census`).

The census maps the 168 caps of PG(3, 2) in coordinates
(``_kernels.cap_subsets``) into a rank-4 subspace through its RREF basis
with ``geometry._span_values``.

Rectangle search walks 4-cliques of maximal totally isotropic subspaces
through the anchor (pairwise meeting in lines) on packed integers.  One
pass per anchor lists those Lagrangians by their greedy bases, as RREF
rows and as the bitsets of their bases' perps (:func:`_lagrangians`).  A
rectangle on a clique is fixed by one further point on each of the six
meet lines: each cap is the anchor, its three picks and their sum, so
cliques with coplanar lines at their first Lagrangian are skipped.  The
sign of a product of commuting words summing to zero is a quadratic form
over GF(2) in the picks, so one product per three meet lines gives the
8-bit mask of their caps, and one per clique the 64-bit mask of negative
affine contexts; the AND of these masks rejects most cliques.  Each
search is one stream of groups of context-id tuples read up to ``limit``
by one collector, which builds a MagicConfiguration only for a result
that enters the list and each distinct member and context once, and
checks each point tuple once.  Under dedup a rectangle and its twin form
one group, so truncation by ``limit`` never separates them (an odd limit
stops one pair earlier); their keys live for one clique.  The ``seed``
flag puts the built-in rectangle first at IXII; under dedup its twin
follows and the walk skips the pair, without dedup the walk repeats it.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import namedtuple
from collections.abc import Iterable, Iterator, Sequence

from . import _kernels
from .geometry import (
    Subspace,
    SymplecticPoint,
    _check_qubits,
    _span_values,
    packed_form,
)
from .magic import (
    SHAPES,
    Context,
    MagicConfiguration,
    _values_sign,
    check_twin_anchor,
    observable_key,
    sorted_observables,
)
from .pauli import PauliObservable, _from_packed, packed_product
from .rectangle import anchor_point, magic_rectangle


class SearchOptions(
    namedtuple("SearchOptions", "qubit_count anchor_point shape limit dedup seed")
):
    """Parameters of a search run.

    Attributes:
        qubit_count: qubit count of the target space.
        anchor_point: common point required of rectangle contexts, or a
            membership filter for squares and the census; None picks the
            shape default (IXII for rectangles, no filter otherwise).
        shape: one of SHAPES.
        limit: maximum number of results to return (at least 1).
        dedup: canonicalise results and drop repeats; rectangles come
            with their twins only in this mode.
        seed: emit the built-in rectangle (and under dedup its twin)
            before the systematic walk, which skips them under dedup
            only; rectangle search at IXII only, ignored elsewhere.
    """

    __slots__ = ()

    def __new__(
        cls,
        qubit_count: int,
        anchor_point: SymplecticPoint | None = None,
        shape: str = "hc_rectangle",
        limit: int = 4,
        dedup: bool = True,
        seed: bool = False,
    ) -> "SearchOptions":
        if shape not in SHAPES:
            raise ValueError(f"unknown shape {shape!r}; expected one of {SHAPES}")
        _check_qubits(qubit_count)
        if limit < 1:
            raise ValueError("limit must be at least 1")
        if anchor_point is not None and anchor_point.n != qubit_count:
            raise ValueError(
                f"anchor lives in n={anchor_point.n}, "
                f"search space has n={qubit_count}"
            )
        return tuple.__new__(cls, (qubit_count, anchor_point, shape, limit, dedup, seed))


# ---------------------------------------------------------------------------
# shared helpers


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# A context as (packed value, sign) members: the search's working form
# until a result is built as a MagicConfiguration.
PackedContext = tuple[tuple[int, int], ...]


def canonical_config(config: MagicConfiguration) -> MagicConfiguration:
    """Sort members within contexts (:func:`magic.sorted_observables`) and
    contexts by their lists of :func:`magic.observable_key` values."""
    members = [sorted_observables(ctx) for ctx in config.contexts]
    members.sort(key=lambda obs: [observable_key(o) for o in obs])
    return MagicConfiguration([Context(obs) for obs in members])


def _collect(
    n: int, limit: int, groups: Iterable[Sequence[Sequence[int]]], table: Sequence[PackedContext]
) -> list[MagicConfiguration]:
    """Up to limit results of a stream of groups of tuples of ids into
    ``table``, the packed contexts (it may grow as the stream runs).

    The stream stops at the first group that would pass the limit, so a
    group is never split.  A MagicConfiguration is built only for a
    result that enters the list, and each distinct (value, sign) member
    and each id becomes one record, shared by every result holding it.
    A record's sign is :func:`magic._values_sign` of its values, run once per tuple.
    """
    members: dict[tuple[int, int], PauliObservable] = {}
    records: dict[int, Context] = {}
    signs: dict[tuple[int, ...], int] = {}

    def new_context(i: int) -> Context:
        packed = table[i]
        made = records[i] = Context(
            [members.get(m) or members.setdefault(m, _from_packed(n, *m)) for m in packed]
        )
        values = tuple([v for v, _ in packed])
        if values not in signs:
            signs[values] = _values_sign(n, values, made.observables)
        vars(made)["canonical_sign"] = signs[values]  # the slot Context.canonical_sign caches
        return made

    results: list[MagicConfiguration] = []
    for group in groups:
        if len(results) + len(group) > limit:
            break
        for ids in group:  # one dict lookup per slot; a Context is truthy
            results.append(MagicConfiguration([records.get(i) or new_context(i) for i in ids]))
        if len(results) == limit:
            break
    return results


# ---------------------------------------------------------------------------
# caps


def enumerate_caps(subspace: Subspace) -> list[tuple[SymplecticPoint, ...]]:
    """All elliptic quadrics (5 points, no 3 collinear, no 4 coplanar)
    inside a rank-4 subspace, in lexicographic point order: the images
    of the 168 caps of PG(3, 2) under the subspace's RREF basis, since a
    linear bijection keeps collinear triples and coplanar quadruples.
    """
    if subspace.rank != 4:
        raise ValueError(
            f"cap enumeration needs a rank-4 ambient space, got rank {subspace.rank}"
        )
    image = _span_values(subspace.rows)
    point = {v: SymplecticPoint.from_value(subspace.n, v) for v in image[1:]}
    caps = sorted(tuple(sorted(image[c] for c in row)) for row in _kernels.cap_subsets())
    return [tuple(point[v] for v in cap) for cap in caps]


def maximal_isotropic_through(point: SymplecticPoint) -> tuple[Subspace, ...]:
    """Every maximal totally isotropic subspace containing the point, at
    most six qubits, as Subspaces from the cached :func:`_lagrangians`."""
    return tuple(Subspace(point.n, rows) for rows in _lagrangians(point)[0])


@functools.cache
def _perp_tables(n: int) -> tuple[int, list[int], list[int]]:
    """Bitsets over the 2^(2N) packed values for :func:`_lagrangians`: the
    nonzero values, anti[v] (those anticommuting with v) and blocked[v]
    (those, and those with v's top bit set).  top[b], the values with
    bit b set, is the upper half of each run of 2^(b+1) values; anti is
    linear in v, and unit vector i anticommutes with top[(i + N) mod 2N]."""
    width = 2 * n
    full = (1 << (1 << width)) - 1
    top = [full // ((1 << (2 << b)) - 1) * ((1 << (1 << b)) - 1 << (1 << b)) for b in range(width)]
    anti = _span_values([top[(i + n) % width] for i in range(width)])
    return full ^ 1, anti, [0, *(anti[v] | top[v.bit_length() - 1] for v in range(1, 1 << width))]


@functools.lru_cache(maxsize=8)
def _lagrangians(point: SymplecticPoint) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """The sorted RREF rows of the Lagrangians through the point, and their point bitsets.

    These have rank N; through any point of W(2N-1, 2) there are
    (2 + 1)(4 + 1)...(2^(N-1) + 1) = 1, 3, 15, 135 for N = 1..4, and
    4,922,775 at N = 7, so N is at most 6.

    Each one S is reached once, through its greedy basis p, q1 < q2 < ...,
    where qi is the least point of S outside span(p, q1 ... qi-1).  That
    point is the least of its coset of the span, so it has a 0 at every
    pivot; the picks' top bits are those pivots.  So a point can be the
    next pick exactly when it commutes with p and the earlier picks,
    exceeds the last pick and has a 0 at the top bit of p and of each
    earlier pick, and any picks meeting those conditions are the greedy
    basis of their span.  The candidates are a bitset over the 2^(2N)
    packed values.  A pick has a 0 at the earlier picks' top bits and a
    higher one, so the RREF rows are the picks and p reduced by them
    pick by pick, each pick q taking p to min(p, p ^ q).  A Lagrangian is
    its own perp, so its bitset is the nonzero values outside the OR of
    anti on its basis.
    """
    n, p = point.n, point.value
    if n > 6:
        count = math.prod((1 << i) + 1 for i in range(1, n))
        raise ValueError(f"{count} Lagrangians pass through a point of {n} qubits; at most 6 qubits")
    if n == 1:
        return ((p,),), (1 << p,)
    nonzero, anti, blocked = _perp_tables(n)
    stack = [((), p, anti[p], nonzero & ~blocked[p])]  # picks, p reduced, OR of anti, candidates
    found = []
    while stack:
        picks, row, perp, candidates = stack.pop()
        last = len(picks) == n - 2  # the next pick completes a basis
        while candidates:  # ascending, so what remains exceeds q
            low = candidates & -candidates
            candidates ^= low
            q = low.bit_length() - 1
            if last:
                rows = tuple(sorted((*picks, q, min(row, row ^ q)), reverse=True))
                found.append((rows, nonzero ^ (perp | anti[q])))
            elif narrowed := candidates & ~blocked[q]:  # else a dead end
                stack.append(((*picks, q), min(row, row ^ q), perp | anti[q], narrowed))
    return tuple(zip(*sorted(found)))


def cap_census(options: SearchOptions) -> list[tuple[Subspace, list[tuple[SymplecticPoint, ...]]]]:
    """Elliptic quadric census for the ovoid_census shape.

    Two qubits: the single ambient PG(3, 2) is the whole space.  Four
    qubits: the four maximal totally isotropic subspaces spanned by the
    built-in rectangle contexts.  An anchor filters caps by membership.
    Other qubit counts have no rank-4 ambient space singled out and are
    rejected.
    """
    if options.shape != "ovoid_census":
        raise ValueError("cap_census expects shape 'ovoid_census'")
    n = options.qubit_count
    if n == 2:
        ambients = [Subspace(2, (8, 4, 2, 1))]
    elif n == 4:
        ambients = magic_rectangle().context_spans()[:4]
    else:
        raise ValueError(
            "ovoid census supports 2 qubits (the full PG(3,2)) or 4 qubits "
            "(the built-in ambient spaces); got "
            f"{n}"
        )
    out = []
    for amb in ambients:
        caps = enumerate_caps(amb)
        if options.anchor_point is not None:
            caps = [c for c in caps if options.anchor_point in c]
        out.append((amb, caps))
    return out


# ---------------------------------------------------------------------------
# mermin squares


def find_mermin_squares(options: SearchOptions) -> list[MagicConfiguration]:
    """All 3x3 observable grids at two qubits whose row and column
    contexts form a certified magic configuration.

    A grid is three pairwise disjoint lines, its rows, whose nine points
    hold three more lines, its columns; as lines are point bitmasks, the
    rows are disjoint when their union has nine bits.  Each grid's six
    lines split into rows and columns in one way only, so it is taken
    once, with the lexicographically smaller triple as rows.  No sign
    test is needed: each of the ten grids of W(3, 2) has an odd number
    of lines whose product is -I, so all ten are magic.
    Deterministic: grids come in ascending order of their point sets,
    canonicalised under dedup (sorted line indices, as lines ascend).
    """
    if options.shape != "mermin_square":
        raise ValueError("find_mermin_squares expects shape 'mermin_square'")
    if options.qubit_count != 2:
        raise ValueError("mermin square search is defined for 2 qubits")
    n = 2
    pairs = itertools.combinations(range(1, 1 << (2 * n)), 2)
    lines = sorted((a, b, a ^ b) for a, b in pairs if a ^ b > b and not packed_form(n, a, b))
    masks = [sum(1 << v for v in line) for line in lines]
    grids = []
    for rows in itertools.combinations(range(len(lines)), 3):
        union = masks[rows[0]] | masks[rows[1]] | masks[rows[2]]
        if union.bit_count() == 9:
            cols = tuple(i for i, m in enumerate(masks) if m & union == m and i not in rows)
            if len(cols) == 3 and rows < cols:
                grids.append((list(_bits(union)), rows + cols))
    anchor = options.anchor_point

    def squares() -> Iterator[list[tuple[int, ...]]]:
        for points, grid in sorted(grids):
            if anchor is not None and anchor.value not in points:
                continue
            yield [tuple(sorted(grid)) if options.dedup else grid]

    return _collect(n, options.limit, squares(), [tuple([(v, 1) for v in line]) for line in lines])


# ---------------------------------------------------------------------------
# rectangles


# The meet lines ab, ac, ad, bc, bd, cd of a 4-clique a < b < c < d are
# slots 0-5 of a pick combo; these are the slots of caps a, b, c and d.
_CAP_SLOTS = ((0, 1, 2), (0, 3, 4), (1, 3, 5), (2, 4, 5))


@functools.cache
def _zeros(sign: int, linear: int, q: int, width: int) -> int:
    """The mask of the t < 2^width where sign + <linear, t> + q C(|t|, 2)
    is 0 over GF(2); C(m, 2) is odd when bit 1 of m is set."""
    forms = (sign ^ (linear & t).bit_count() ^ q & t.bit_count() >> 1 for t in range(1 << width))
    return sum(1 << t for t, form in enumerate(forms) if not form & 1)


@functools.cache
def _spread(mask: int, cap: int) -> int:
    """The 64-bit mask of the pick combos (bit s picks a point of meet
    line s) whose index t is in ``mask``: for cap 0-3 a combo's bits on
    the cap's slots i, j, k as 4i + 2j + k, for cap 4 with bit a their
    XOR on cap a's slots."""
    slots = _CAP_SLOTS if cap == 4 else [(s,) for s in _CAP_SLOTS[cap][::-1]]
    rows = [sum(1 << s for s in row) for row in slots]  # bit r of t is a parity on rows[r]
    indices = [sum((c & row).bit_count() % 2 << r for r, row in enumerate(rows)) for c in range(64)]
    return sum(1 << c for c, t in enumerate(indices) if mask >> t & 1)


class _RectangleWalk:
    """State of the clique walk on packed values: Lagrangians, meet lines, caps.

    Two Lagrangians meeting in a line share the anchor p and two further
    points x and p ^ x.  A cap holds at most one of those (it has no
    collinear triple), and a cap of PG(3, 2) is four independent points
    plus their sum, so an anchored cap of a Lagrangian holding a point
    of each of three meet lines is p, those three points and their sum.
    """

    def __init__(self, anchor: SymplecticPoint):
        self.anchor = anchor.value
        self.n = anchor.n
        self.lagrangians, self._point_masks = _lagrangians(anchor)
        self.contexts: list[PackedContext] = []
        self._ids: dict[PackedContext, int] = {}
        self._lines: dict[tuple[int, int], tuple[int, ...]] = {}
        self._betas: dict[int, int] = {}
        self._masks: dict[tuple[int, int, int], int] = {}
        self._caps: dict[tuple[int, int, int], int] = {}
        self._images: dict[int, int] = {}

    def intern(self, packed: PackedContext) -> int:
        """The id of a packed context (cap, affine context or twin image),
        its index in :attr:`contexts`, where it is added on first sight."""
        made = self._ids.get(packed)
        if made is None:
            made = self._ids[packed] = len(self.contexts)
            self.contexts.append(packed)
        return made

    def pair_ok(self, i: int, j: int) -> bool:
        """Spans must meet in a line: exactly three common points."""
        return (self._point_masks[i] & self._point_masks[j]).bit_count() == 3

    def cliques(self) -> Iterator[tuple[int, int, int, int]]:
        """Every 4-clique a < b < c < d of Lagrangians pairwise meeting in
        lines, in lexicographic order, but those where no cap at a holds
        independent points of ab, ac and ad (see :meth:`_mask`): ac is ab, or
        ad is ab, ac or their plane's third line through p and x_ab ^ x_ac.
        ``top`` names a line through p by its larger further point; b, c and
        d come from the later Lagrangians meeting each earlier pick in a line."""
        ok, masks, count, p = self.pair_ok, self._point_masks, len(self.lagrangians), self.anchor
        for a in range(count):
            near_a = [b for b in range(a + 1, count) if ok(a, b)]
            top = {b: (masks[a] & masks[b] ^ 1 << p).bit_length() - 1 for b in near_a}
            for i, b in enumerate(near_a, 1):
                near_ab = [c for c in near_a[i:] if top[c] != top[b] and ok(b, c)]
                for j, c in enumerate(near_ab, 1):
                    plane = (top[c], top[b] ^ top[c], top[b] ^ top[c] ^ p)
                    for d in near_ab[j:]:
                        if top[d] not in plane and ok(c, d):
                            yield a, b, c, d

    def _line(self, i: int, j: int) -> tuple[int, ...]:
        """The two points other than the anchor of the line that
        Lagrangians i and j meet in (see :meth:`pair_ok`), memoised per walk."""
        line = self._lines.get((i, j))
        if line is None:
            meet = self._point_masks[i] & self._point_masks[j] ^ 1 << self.anchor
            line = self._lines[i, j] = tuple(_bits(meet))
        return line

    def _beta(self, v: int) -> int:
        """beta(p, v) = popcount(z_p & x_v) % 2, the sign bit of packed_product on (p, v)."""
        if v not in self._betas:
            self._betas[v] = int(packed_product(self.n, (self.anchor, v))[0] < 0)
        return self._betas[v]

    def _mask(self, x: tuple[int, ...], y: tuple[int, ...], z: tuple[int, ...]) -> int:
        """The 8-bit mask of the caps on three meet lines, memoised per walk:
        bit 4i + 2j + k is set when p, a = x[i], b = y[j], c = z[k] and
        p ^ a ^ b ^ c are distinct and nonzero with canonical sign +1.

        As a = x0 ^ i p, b = y0 ^ j p, c = z0 ^ k p, the points are distinct
        and nonzero for all picks if p, x0, y0, z0 are independent, else for
        none.  Commuting words summing to zero have sign exponent the XOR of
        beta (:meth:`_beta`) over their pairs in any order (beta is bilinear
        and symmetric on commuting pairs), so E(i, j, k) = E(0, 0, 0) +
        i (b_y + b_z) + j (b_x + b_z) + k (b_x + b_y) + q (ij + ik + jk),
        with b_v = beta(p, v0) and q = beta(p, p), 1 at odd-Y anchors.
        """
        key = (x[0], y[0], z[0])
        mask = self._masks.get(key)
        if mask is None:
            (x, y, z), p = key, self.anchor
            mask = 0
            if not {x ^ y, x ^ z, y ^ z, x ^ y ^ z} & {0, p}:
                sign = int(packed_product(self.n, (p, x, y, z, p ^ x ^ y ^ z))[0] < 0)
                bx, by, bz = map(self._beta, key)
                mask = _zeros(sign, (by ^ bz) << 2 | (bx ^ bz) << 1 | bx ^ by, self._beta(p), 3)
            self._masks[key] = mask
        return mask

    def _cap(self, x: int, y: int, z: int) -> int:
        """The id of the sorted packed cap {p, x, y, z, p ^ x ^ y ^ z}, signs +1."""
        if (x, y, z) not in self._caps:
            points = sorted((self.anchor, x, y, z, self.anchor ^ x ^ y ^ z))
            self._caps[x, y, z] = self.intern(tuple([(v, 1) for v in points]))
        return self._caps[x, y, z]

    def _affine(self, lines: Sequence[tuple[int, ...]]) -> int:
        """The 64-bit mask of the pick combos on a clique's six meet lines
        whose odd points have product sign -1.

        Cap i's odd point is b_i ^ e_i p, with b_i that of combo 0 and e_i
        the XOR of the combo's bits on the cap's slots.  They commute: for
        caps a, b the form is w(s_ad, s_bc) + w(s_ac, s_bd), s_xy on line
        xy, and as Lagrangians are maximal both terms are 1 if p, s_ab,
        s_ac, s_ad are independent, else 0.  So (see :meth:`_mask`) their
        sign exponent is E_0 + sum_i e_i (B + beta(p, b_i)) + q sum_{i<j}
        e_i e_j, where B = sum_i beta(p, b_i) is 0 as each line is in two caps.
        """
        base = [self.anchor ^ lines[i][0] ^ lines[j][0] ^ lines[k][0] for i, j, k in _CAP_SLOTS]
        sign = int(packed_product(self.n, base)[0] < 0)
        linear = sum(self._beta(b) << a for a, b in enumerate(base))
        return _spread(_zeros(sign ^ 1, linear, self._beta(self.anchor), 4), 4)  # exponent 1

    def rectangles(self, a: int, b: int, c: int, d: int) -> list[tuple[int, ...]]:
        """Context ids of every rectangle on the 4-clique a < b < c < d,
        sorted by the packed contexts of their four caps.

        Each pair of caps shares the anchor and one point of its pair's
        meet line, so one point on each of the six lines fixes the
        rectangle.  Each cap's mask (:meth:`_mask`), spread over the 64
        pick combos, leaves those on which it is a cap; most cliques lose
        every combo before the fourth.  The anchor and the six shared
        points each lie in an even number of caps, so the points of odd
        multiplicity are each cap's fifth point, the anchor plus its three
        picks, kept where they form an affine context of sign -1 (:meth:`_affine`).
        """
        meet = self._line
        lines = [meet(a, b), meet(a, c), meet(a, d)]
        combos = _spread(self._mask(*lines), 0)
        if not combos:
            return []
        lines += meet(b, c), meet(b, d), meet(c, d)
        for cap, (i, j, k) in enumerate(_CAP_SLOTS[1:], 1):
            combos &= _spread(self._mask(lines[i], lines[j], lines[k]), cap)
            if not combos:
                return []
        p, found = self.anchor, []
        for combo in _bits(combos & self._affine(lines)):
            picks = [line[combo >> i & 1] for i, line in enumerate(lines)]
            quads = [self._cap(picks[i], picks[j], picks[k]) for i, j, k in _CAP_SLOTS]
            odd = sorted([p ^ picks[i] ^ picks[j] ^ picks[k] for i, j, k in _CAP_SLOTS])
            found.append((*quads, self.intern(tuple([(v, 1) for v in odd]))))
        found.sort(key=lambda ids: [self.contexts[i] for i in ids])
        return found

    def keys(self, ids: tuple[int, ...]) -> list[tuple[int, ...]]:
        """The canonical keys (see :func:`canonical_config`), as ids, of a
        rectangle whose members ascend with sign +1 and of its twin (see
        :func:`magic.complement_config`): the anchor p stays, and a member
        (v, +1) becomes (p ^ v, -1 if beta(p, v) else +1).  Members are
        distinct, and a twin sign depends only on the value: sorting by
        content suffices.  Each id's image is made once per walk."""
        p, contexts, twin = self.anchor, self.contexts, []
        for i in ids:
            image = self._images.get(i)
            if image is None:
                image = self._images[i] = self.intern(tuple(sorted(
                    (v, 1) if v == p else (p ^ v, -1 if self._beta(v) else 1) for v, _ in contexts[i]
                )))
            twin.append(image)
        return [tuple(sorted(ids, key=contexts.__getitem__)), tuple(sorted(twin, key=contexts.__getitem__))]


def _rectangle_groups(
    walk: _RectangleWalk, seed: bool, dedup: bool
) -> Iterator[list[tuple[int, ...]]]:
    """The result stream of a rectangle search, in groups not to be split.

    With seed set the built-in rectangle comes first, verbatim without
    dedup (the walk repeats it), else with its twin.  Without dedup each
    rectangle of the walk is a group of its own, as yielded.  Under dedup
    each gives the new ones of its and its twin's keys
    (:meth:`_RectangleWalk.keys`, the built-in pair's too).  A key set
    that lives for one clique suffices: each cap {p, x, y, z, p^x^y^z}
    spans its Lagrangian, and so does the twin cap {p, p^x, p^y, p^z,
    x^y^z}, so every key made on a clique has that clique's four cap
    spans.  The built-in pair's two keys lie on a clique the walk
    reaches, and join every clique's set.
    """
    first = []
    if seed:
        contexts = [sorted_observables(ctx) if dedup else ctx.observables for ctx in magic_rectangle().contexts]
        ids = tuple([walk.intern(tuple([(obs.value, obs.sign) for obs in ctx])) for ctx in contexts])
        first = walk.keys(ids) if dedup else [ids]
        yield first
    for clique in walk.cliques():
        keys = None
        for ids in walk.rectangles(*clique):
            if not dedup:
                yield [ids]
                continue
            if keys is None:  # most cliques carry no rectangle
                keys = set(first)
            fresh = [key for key in walk.keys(ids) if key not in keys]
            keys.update(fresh)
            if fresh:
                yield fresh


def find_magic_rectangles(options: SearchOptions) -> list[MagicConfiguration]:
    """Anchored rectangle search at four qubits.

    Walks 4-cliques of maximal totally isotropic subspaces through the
    anchor in canonical order and yields the rectangles on each (see
    :meth:`_RectangleWalk.rectangles`).  Under dedup every found
    configuration is emitted together with its complement, so the
    result list is closed under twinning at any even limit.
    """
    if options.shape != "hc_rectangle":
        raise ValueError("find_magic_rectangles expects shape 'hc_rectangle'")
    if options.qubit_count != 4:
        raise ValueError("rectangle search is defined for 4 qubits")
    anchor = options.anchor_point or anchor_point()
    if options.dedup:  # the twins need an anchor that squares to +identity
        check_twin_anchor(anchor)
    seed = options.seed and anchor == anchor_point()
    walk = _RectangleWalk(anchor)
    return _collect(anchor.n, options.limit, _rectangle_groups(walk, seed, options.dedup), walk.contexts)
