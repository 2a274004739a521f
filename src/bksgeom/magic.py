"""Magic configurations of real Pauli observables and their certificates.

A context is a set of mutually commuting observables whose product is
plus or minus the identity; the product sign is what a noncontextual
value assignment must reproduce.  A configuration (a list of contexts)
admits no assignment v: points -> {+1, -1} exactly when the parity
argument applies: if every point appears in an even number of contexts
while the product of the context signs is -1, multiplying all context
constraints together gives +1 = -1.

Certification runs both directions: the parity certificate (structural,
instant) and an exact GF(2) elimination of the context constraints, one
equation per context and one unknown per universe point (the oracle).
Assignments act on sign-stripped observables, so the sign a context
constrains against is the canonical sign: the sign of the product of the
sign-stripped representatives.  For configurations written with
all-positive words the two notions coincide.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import Counter, namedtuple
from collections.abc import Iterable, Sequence
from functools import cached_property, reduce

from . import _kernels
from .geometry import Subspace, SymplecticPoint, _span_values, intersect, packed_form, span
from .pauli import (
    PauliObservable,
    format_observable,
    from_symplectic,
    multiply,
    packed_product,
    parse_observable,
    point_word,
    product_of_set,
    to_symplectic,
)

# The shapes a search looks for (``search.SearchOptions.shape``).  They
# live here, in a module that every command loads, so that the command
# line offers them without loading the search.
SHAPES = ("mermin_square", "hc_rectangle", "ovoid_census")


class ContextError(ValueError):
    """Raised when a context or configuration violates a structural rule."""


class Context(namedtuple("Context", "observables")):
    """One measurement context.

    Attributes:
        observables: the members, in the order given.  Valid contexts
            have mutually commuting members whose product is plus or
            minus the identity.  Validity is not checked at
            construction but by :func:`validate_context` on the first
            read of :attr:`canonical_sign`, once per object.
    """

    # No __slots__: the cached canonical_sign lives in __dict__.
    def __new__(cls, observables: Iterable[PauliObservable]) -> "Context":
        return tuple.__new__(cls, (tuple(observables),))

    @cached_property
    def canonical_sign(self) -> int:
        """The product sign with every member stripped to its +1 form: the
        sign a noncontextual assignment of the points is constrained against,
        from :func:`validate_context` on the first read (or its value check in
        a search's collector); a context that fails raises ContextError on every read."""
        return validate_context(self)

    @classmethod
    def from_words(cls, words: Iterable[str]) -> "Context":
        return cls(tuple(parse_observable(w) for w in words))

    @property
    def words(self) -> tuple[str, ...]:
        return tuple(format_observable(o) for o in self.observables)

    def points(self) -> tuple[SymplecticPoint, ...]:
        """Sign-stripped members as projective points, identities skipped."""
        return tuple(to_symplectic(o) for o in self.observables if not o.is_identity)


def validate_context(ctx: Context) -> int:
    """Raise ContextError unless the context is structurally valid, else
    return its canonical sign (see :attr:`Context.canonical_sign`).

    Every call checks again; :attr:`Context.canonical_sign` keeps the
    result, so a context is validated once per object, on its first use
    by a configuration.  Past the object checks, :func:`_values_sign`
    checks the packed values; words are formatted only for the error message.
    """
    observables = ctx.observables
    if not observables:
        raise ContextError("context has no observables")
    n = observables[0].n
    for obs in observables:
        if obs.n != n:
            raise ContextError(
                f"context mixes qubit counts ({n} and {obs.n})"
            )
    return _values_sign(n, [obs.value for obs in observables], observables)


def _values_sign(n: int, values: Sequence[int], observables: Sequence[PauliObservable]) -> int:
    """The canonical sign of members with these packed values, or ContextError unless
    they pairwise commute with product +-I; ``observables`` only name culprits."""
    sign, rest = packed_product(n, values)
    # At product +-I the last member is the others' sum, so by bilinearity pairs among them decide.
    for i, j in itertools.combinations(range(len(values) - (not rest)), 2):
        if packed_form(n, values[i], values[j]):
            raise ContextError(
                f"observables {format_observable(observables[i])} and "
                f"{format_observable(observables[j])} do not commute"
            )
    if rest:
        raise ContextError(
            f"context product is {format_observable(product_of_set(observables))}, "
            "not proportional to the identity"
        )
    return sign


def context_sign(ctx: Context) -> int:
    """The sign of the product of the context members (+1 or -1): the
    canonical sign times the member signs."""
    return math.prod((o.sign for o in ctx.observables), start=ctx.canonical_sign)


def observable_key(obs: PauliObservable) -> tuple[int, int]:
    """Canonical member order: by packed value (identities first), + before -."""
    return (obs.value, -obs.sign)


def sorted_observables(ctx: Context) -> tuple[PauliObservable, ...]:
    """Members in canonical order (see :func:`observable_key`)."""
    return tuple(sorted(ctx.observables, key=observable_key))


class MagicConfiguration(namedtuple("MagicConfiguration", "contexts")):
    """A list of contexts over a common qubit count.

    Every context is validated at construction by reading its
    :attr:`Context.canonical_sign`, so a context object shared by several
    configurations is validated once, by the first of them.  The signs
    are kept in ``canonical_signs``, a plain attribute outside equality,
    hashing and repr.  An instance that exists is structurally sound;
    the interesting question is whether it admits a noncontextual
    assignment, answered by :func:`parity_witness` and
    :func:`exhaustive_nchv_check`.
    """

    # No __slots__: canonical_signs and the cached properties live in __dict__.

    def __new__(cls, contexts: Iterable[Context]) -> "MagicConfiguration":
        contexts = tuple(contexts)
        self = tuple.__new__(cls, (contexts,))
        self.canonical_signs = tuple([ctx.canonical_sign for ctx in contexts])
        counts = {ctx.observables[0].n for ctx in contexts}
        if len(counts) > 1:
            raise ContextError(f"contexts mix qubit counts {sorted(counts)}")
        return self

    @classmethod
    def from_words(cls, groups: Iterable[Iterable[str]]) -> "MagicConfiguration":
        return cls(tuple(Context.from_words(g) for g in groups))

    @property
    def n(self) -> int | None:
        return self.contexts[0].observables[0].n if self.contexts else None

    @cached_property
    def universe(self) -> tuple[SymplecticPoint, ...]:
        """Distinct points of the contexts, ascending: the sorted keys of :attr:`multiplicities`."""
        return tuple(sorted(self.multiplicities))

    @cached_property
    def multiplicities(self) -> dict[SymplecticPoint, int]:
        """How many context slots each point occupies (occurrences counted)."""
        counts: dict[SymplecticPoint, int] = {}
        for ctx in self.contexts:
            for p in ctx.points():
                counts[p] = counts.get(p, 0) + 1
        return counts

    def context_spans(self) -> tuple[Subspace, ...]:
        """Span of each context's point set; the zero subspace for an
        identity-only context."""
        points = (ctx.points() for ctx in self.contexts)
        return tuple(span(pts) if pts else Subspace(self.n, ()) for pts in points)


class ContradictionCertificate(
    namedtuple(
        "ContradictionCertificate",
        "sign_product all_multiplicities_even nchv_assignment_exists witness",
    )
):
    """Outcome of certifying a configuration.

    Attributes:
        sign_product: product of the canonical context signs.
        all_multiplicities_even: whether every universe point sits in an
            even number of context slots.
        nchv_assignment_exists: oracle verdict.
        witness: a satisfying assignment as (point, value) pairs in
            ascending point order, when one exists.
    """

    __slots__ = ()

    @property
    def certified(self) -> bool:
        """True when the parity argument proves no assignment can exist."""
        return self.all_multiplicities_even and self.sign_product == -1


def exhaustive_nchv_check(
    config: MagicConfiguration,
) -> tuple[bool, dict[SymplecticPoint, int] | None]:
    """Decide whether the k-point universe has a noncontextual assignment.

    Solves one GF(2) equation per context, on the universe points it
    holds an odd number of times, exactly for any k.  Returns (True,
    witness) with the least satisfying assignment in an ascending binary
    enumeration of the universe (bit i set means point i gets -1, so all
    +1 comes first), in universe order, or (False, None) when every
    assignment violates some context constraint.
    """
    universe = config.universe
    bit = {p: 1 << i for i, p in enumerate(universe)}
    masks = [reduce(operator.xor, map(bit.get, ctx.points()), 0) for ctx in config.contexts]
    parities = [sign == -1 for sign in config.canonical_signs]
    v = _kernels.valuation_scan(masks, parities, len(universe))
    if v < 0:
        return False, None
    return True, {p: (-1 if (v >> i) & 1 else 1) for i, p in enumerate(universe)}


def parity_witness(config: MagicConfiguration) -> ContradictionCertificate:
    """Build the full certificate for a configuration.

    The parity fields and the oracle verdict are always filled.  A
    certified certificate implies the oracle finds no assignment; the
    converse need not hold.
    """
    sign_product = math.prod(config.canonical_signs)
    all_even = all(m % 2 == 0 for m in config.multiplicities.values())
    exists, assignment = exhaustive_nchv_check(config)
    witness = None if assignment is None else tuple(assignment.items())
    return ContradictionCertificate(sign_product, all_even, exists, witness)


def _meets(config: MagicConfiguration, shared: int) -> dict[tuple[int, int], Subspace]:
    """Meets of the context spans i < j that share at least ``shared``
    points, in ascending pair order.  An index from each closure point to
    the ascending spans that hold it counts the points every pair shares,
    so a pair that shares none is never intersected."""
    spans = config.context_spans()
    holders: dict[int, list[int]] = {}
    for i, sub in enumerate(spans):
        for value in _span_values(sub.rows)[1:]:
            holders.setdefault(value, []).append(i)
    counts = Counter(pair for held in holders.values() for pair in itertools.combinations(held, 2))
    return {
        (i, j): intersect(spans[i], spans[j]) for i, j in sorted(counts) if counts[i, j] >= shared
    }


def intersection_lines(config: MagicConfiguration) -> dict[tuple[int, int], Subspace]:
    """Nonzero pairwise intersections of context spans.

    Keys are index pairs (i, j) with i < j into config.contexts; values
    are the intersection subspaces, included whenever their rank is at
    least 1.  The meets are found through an index from closure points to
    the spans that hold them: only pairs that share a point are
    intersected, since any other pair meets in the zero subspace.  An
    identity-only context spans the zero subspace, so it holds no point
    and takes part in no pair.
    """
    return _meets(config, 1)


def shared_point(config: MagicConfiguration) -> SymplecticPoint:
    """The unique point on every pairwise intersection line of context spans.

    Only pairs whose spans meet in rank >= 2 (a line or more) take part;
    they are found through the closure-point index of
    :func:`intersection_lines` as the pairs that share at least three
    points.  Raises ContextError when no pair meets in a line or when the
    common intersection of those meets is not a single point.
    """
    lines = list(_meets(config, 3).values())
    if not lines:
        raise ContextError("no pair of context spans meets in a line")
    common = lines[0]
    for sub in lines[1:]:
        common = intersect(common, sub)
    if common.rank != 1:
        raise ContextError(
            f"no unique shared point; common intersection has rank {common.rank}"
        )
    return SymplecticPoint.from_value(config.n, common.rows[0])


def check_twin_anchor(point: SymplecticPoint) -> None:
    """Raise ContextError unless the anchor's positive observable squares
    to +identity (an even number of Y letters), as the twin map needs."""
    if packed_product(point.n, (point.value, point.value))[0] != 1:
        raise ContextError(f"anchor {point_word(point)} squares to -identity")


def complement_config(
    config: MagicConfiguration, point: SymplecticPoint
) -> MagicConfiguration:
    """The twin configuration through an anchor point: every member other
    than the anchor itself and the identity is multiplied on the left by
    the anchor's positive observable, and those two stay fixed.

    Raises ContextError at an anchor :func:`check_twin_anchor` rejects;
    at any other the map is an involution.  The result is validated on
    construction, so an anchor that breaks commutation somewhere raises
    ContextError.
    """
    if config.n is not None and point.n != config.n:
        raise ContextError(
            f"anchor lives in n={point.n} but configuration has n={config.n}"
        )
    check_twin_anchor(point)
    anchor, fixed = from_symplectic(point), (0, point.value)
    return MagicConfiguration(
        Context(obs if obs.value in fixed else multiply(anchor, obs) for obs in ctx.observables)
        for ctx in config.contexts
    )
