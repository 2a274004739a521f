"""Tests for contexts, configurations, certificates, and the twin map."""

import functools
import itertools
import json
import operator

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bksgeom import magic
from bksgeom.classify import KIND_LINE, classify_set, projective_closure
from bksgeom.cli import build_report, main
from bksgeom.geometry import (
    Subspace,
    SymplecticPoint,
    enumerate_points,
    intersect,
    is_totally_isotropic,
    packed_form,
)
from bksgeom.magic import (
    Context,
    ContextError,
    MagicConfiguration,
    complement_config,
    context_sign,
    exhaustive_nchv_check,
    intersection_lines,
    parity_witness,
    shared_point,
    sorted_observables,
    validate_context,
)
from bksgeom.pauli import (
    PauliObservable,
    _from_packed,
    commutes,
    format_observable,
    point_word,
    product_of_set,
)
from bksgeom.rectangle import (
    CONTEXT_WORDS,
    TWIN_CONTEXT_WORDS,
    anchor_point,
    magic_rectangle,
    twin_rectangle,
)
from bksgeom.search import SearchOptions, find_magic_rectangles

from reference_geometry import brute_valuation_scan, pt, word_matrix


MERMIN_SQUARE = (
    ("XI", "IX", "XX"),
    ("IZ", "ZI", "ZZ"),
    ("XZ", "ZX", "YY"),
    ("XI", "IZ", "XZ"),
    ("IX", "ZI", "ZX"),
    ("XX", "ZZ", "YY"),
)


# ---------------------------------------------------------------------------
# context validation and signs


def test_builtin_context_signs():
    rect = magic_rectangle()
    assert [context_sign(c) for c in rect.contexts] == [1, 1, 1, 1, -1]
    assert [c.canonical_sign for c in rect.contexts] == [1, 1, 1, 1, -1]


def test_validate_rejects_noncommuting():
    ctx = Context.from_words(("XIII", "ZIII", "YIII"))
    with pytest.raises(ContextError, match="XIII and ZIII do not commute"):
        validate_context(ctx)


def test_validate_rejects_non_identity_product():
    ctx = Context.from_words(("ZIII", "IXII"))
    with pytest.raises(ContextError, match="product is ZXII"):
        validate_context(ctx)


def test_validate_rejects_empty():
    with pytest.raises(ContextError, match="no observables"):
        validate_context(Context(()))


def test_validate_rejects_mixed_sizes():
    ctx = Context.from_words(("XI", "X"))
    with pytest.raises(ContextError, match="mixes qubit counts"):
        validate_context(ctx)


def _reference_validate(ctx: Context) -> None:
    """validate_context on observables: commutes and product_of_set."""
    if not ctx.observables:
        raise ContextError("context has no observables")
    n = ctx.observables[0].n
    for obs in ctx.observables:
        if obs.n != n:
            raise ContextError(f"context mixes qubit counts ({n} and {obs.n})")
    for i, a in enumerate(ctx.observables):
        for b in ctx.observables[i + 1 :]:
            if not commutes(a, b):
                raise ContextError(
                    f"observables {format_observable(a)} and "
                    f"{format_observable(b)} do not commute"
                )
    prod = product_of_set(ctx.observables)
    if not prod.is_identity:
        raise ContextError(
            f"context product is {format_observable(prod)}, "
            "not proportional to the identity"
        )


def _outcome(check, ctx: Context):
    try:
        check(ctx)
    except Exception as exc:  # the type and text are compared
        return type(exc).__name__, str(exc)
    return None


# The strategies below draw one integer per member where they can, and
# build each strategy once per qubit count: hypothesis spends far more
# time per drawn primitive and per new strategy than bksgeom spends on a
# context.


@functools.cache
def _observables(n: int):
    """Signed words on n qubits, identities included; the low bit of the
    drawn integer is the sign."""
    codes = st.integers(0, (2 << 2 * n) - 1)
    return codes.map(lambda code: _from_packed(n, code >> 1, -1 if code & 1 else 1))


def _commuting(n: int, picks: list, value: int) -> int:
    """The first value from value on that commutes with every pick,
    wrapping round to 1, so that only value 0 gives the identity."""
    candidates = itertools.chain(range(value, 1 << 2 * n), range(1, value))
    return next(w for w in candidates if not any(packed_form(n, w, p) for p in picks))


@functools.cache
def _valid_contexts(n: int):
    """Contexts that validate_context accepts: one to five pairwise
    commuting words (repeats and identities allowed, so some contexts are
    identity-only), their sum, which may be the identity, and up to two
    more identities, each put at a drawn place, with drawn signs."""

    @st.composite
    def valid_context(draw) -> Context:
        picks: list = []
        for _ in range(draw(st.integers(1, 5))):
            picks.append(_commuting(n, picks, draw(st.integers(0, (1 << 2 * n) - 1))))
        values = list(picks)
        for value in [functools.reduce(operator.xor, picks)] + [0] * draw(st.integers(0, 2)):
            values.insert(draw(st.integers(0, len(values))), value)
        signs = draw(st.integers(0, (1 << len(values)) - 1))
        members = (_from_packed(n, v, -1 if signs >> i & 1 else 1) for i, v in enumerate(values))
        return Context(tuple(members))

    return valid_context()


@st.composite
def _context(draw) -> Context:
    """Signed members with identities; mostly one qubit count, some mixed.
    Half the draws are valid contexts, so that those occur at every n."""
    n = draw(st.integers(1, 4))
    if draw(st.booleans()):
        members = draw(st.lists(_observables(n), max_size=6))
    else:
        members = list(draw(_valid_contexts(n)).observables)
    if members and draw(st.integers(0, 4)) == 0:
        other = draw(st.integers(1, 4))
        members.insert(draw(st.integers(0, len(members))), draw(_observables(other)))
    return Context(tuple(members))


@settings(max_examples=400, deadline=None)
@given(_context())
def test_validate_context_matches_the_object_level_reference(ctx):
    outcome = _outcome(validate_context, ctx)
    assert outcome == _outcome(_reference_validate, ctx)
    assert _outcome(lambda c: c.canonical_sign, ctx) == outcome
    if outcome is None:
        stripped = [PauliObservable(o.n, o.x, o.z) for o in ctx.observables]
        assert validate_context(ctx) == ctx.canonical_sign == product_of_set(stripped).sign


@settings(max_examples=400, deadline=None)
@given(st.integers(1, 4).flatmap(_valid_contexts))
@example(Context.from_words(("II", "-II")))
def test_accepted_contexts_span_totally_isotropic_subspaces(ctx):
    """A context validate_context accepts has pairwise commuting members,
    so its span, the zero subspace for an identity-only context, is
    totally isotropic: the report states it without a check."""
    assert _outcome(validate_context, ctx) is None
    (sub,) = MagicConfiguration((ctx,)).context_spans()
    assert is_totally_isotropic(sub)
    assert set(ctx.points()) <= set(enumerate_points(sub))


def _small_contexts():
    """(n, values): every context of up to 5 one-qubit or up to 3 two-qubit
    members, and every two-qubit one of 2 to 4 members whose last is the
    XOR of the others, so that its product is +-I."""
    for n, size in ((1, 5), (2, 3)):
        for k in range(1, size + 1):
            for values in itertools.product(range(1 << 2 * n), repeat=k):
                yield n, values
    for k in range(1, 4):
        for values in itertools.product(range(16), repeat=k):
            yield 2, values + (functools.reduce(operator.xor, values),)


def test_product_first_validation_keeps_every_pairs_first_outcome():
    """validate_context checks the product first and, when it is +-I, only
    the pairs among all members but the last.  Its outcome, error text
    included, equals the pairs-first reference on every small context
    with either sign on the last member, and on one whose last member
    alone anticommutes while the product is not +-I."""
    last_alone = Context.from_words(("XI", "IX", "ZZ"))
    assert _outcome(validate_context, last_alone) == (
        "ContextError", "observables XI and ZZ do not commute"
    )
    assert _outcome(_reference_validate, last_alone) == _outcome(validate_context, last_alone)
    outcomes = set()
    for n, values in _small_contexts():
        members = [_from_packed(n, v, 1) for v in values]
        for sign in (1, -1):
            members[-1] = _from_packed(n, values[-1], sign)
            ctx = Context(tuple(members))
            outcome = _outcome(validate_context, ctx)
            assert outcome == _outcome(_reference_validate, ctx), (n, values, sign)
            outcomes.add(outcome and outcome[1].split()[-1])
    assert outcomes == {None, "commute", "identity"}


def test_negative_identity_context_is_valid():
    ctx = Context.from_words(("-II",))
    validate_context(ctx)
    assert context_sign(ctx) == -1
    assert ctx.canonical_sign == 1
    assert ctx.points() == ()


def test_canonical_sign_ignores_member_signs():
    plain = Context.from_words(("ZXZX", "ZXXZ", "XXZZ", "XXXX"))
    flipped = Context.from_words(("-ZXZX", "ZXXZ", "-XXZZ", "XXXX"))
    assert context_sign(plain) == -1
    assert context_sign(flipped) == -1 * (-1) * (-1)
    assert plain.canonical_sign == flipped.canonical_sign == -1


def test_sorted_observables_order():
    ctx = Context.from_words(("ZIII", "-IIII", "IIIZ"))
    ordered = sorted_observables(ctx)
    assert [o.letters for o in ordered] == ["IIII", "IIIZ", "ZIII"]


def test_context_words_round_trip():
    ctx = Context.from_words(("-ZXZX", "XXXX"))
    assert ctx.words == ("-ZXZX", "XXXX")
    assert Context.from_words(ctx.words) == ctx


# ---------------------------------------------------------------------------
# configurations


def test_configuration_validates_contexts_on_construction():
    with pytest.raises(ContextError):
        MagicConfiguration.from_words([("XIII", "ZIII", "YIII")])
    with pytest.raises(ContextError, match="contexts mix qubit counts"):
        MagicConfiguration.from_words([("XI", "XI"), ("X", "X")])


def test_context_is_validated_once_and_a_failure_is_never_kept(monkeypatch):
    calls = []
    validate = magic.validate_context
    monkeypatch.setattr(magic, "validate_context", lambda ctx: calls.append(ctx) or validate(ctx))
    bad = Context.from_words(("XIII", "ZIII", "YIII"))
    for _ in range(2):
        with pytest.raises(ContextError, match="do not commute"):
            MagicConfiguration((bad,))
    assert len(calls) == 2
    good = Context.from_words(CONTEXT_WORDS[4])
    first, second = MagicConfiguration((good,)), MagicConfiguration((good, good))
    assert len(calls) == 3 and calls[2] is good
    assert first.canonical_signs == (-1,) and second.canonical_signs == (-1, -1)
    assert good.canonical_sign == -1 and context_sign(good) == -1
    assert len(calls) == 3


def test_universe_is_sorted_and_deduplicated():
    rect = magic_rectangle()
    values = [p.value for p in rect.universe]
    assert values == sorted(values)
    assert len(values) == 11
    words = [point_word(p) for p in rect.universe]
    assert words == [
        "IIIZ",
        "IIZI",
        "ZIII",
        "IIIX",
        "IIXI",
        "IXII",
        "ZXZX",
        "ZXXZ",
        "XIII",
        "XXZZ",
        "XXXX",
    ]


def test_multiplicities():
    rect = magic_rectangle()
    mults = {point_word(p): m for p, m in rect.multiplicities.items()}
    assert mults["IXII"] == 4
    assert all(m == 2 for w, m in mults.items() if w != "IXII")
    assert sum(mults.values()) == 24


@st.composite
def _configuration(draw) -> MagicConfiguration:
    """One to five valid contexts at one n <= 4."""
    n = draw(st.integers(1, 4))
    return MagicConfiguration([draw(_valid_contexts(n)) for _ in range(draw(st.integers(1, 5)))])


@settings(max_examples=300, deadline=None)
@given(_configuration())
def test_universe_and_witness_follow_the_sorted_distinct_points(config):
    """The universe is the sorted distinct non-identity points of the
    contexts, and a witness lists exactly those points in that order."""
    values = sorted({o.value for ctx in config.contexts for o in ctx.observables} - {0})
    assert [p.value for p in config.universe] == values
    assert set(config.universe) == set(config.multiplicities)
    cert = parity_witness(config)
    if cert.nchv_assignment_exists:
        assert tuple(p for p, _ in cert.witness) == config.universe
    else:
        assert cert.witness is None


def test_empty_configuration():
    config = MagicConfiguration(())
    assert config.n is None
    assert config.universe == ()
    cert = parity_witness(config)
    assert cert.sign_product == 1
    assert cert.all_multiplicities_even
    assert cert.nchv_assignment_exists is True
    assert cert.witness == ()
    assert not cert.certified
    with pytest.raises(ContextError):
        shared_point(config)


# ---------------------------------------------------------------------------
# certificates


def test_rectangle_certificate():
    cert = parity_witness(magic_rectangle())
    assert cert.sign_product == -1
    assert cert.all_multiplicities_even
    assert cert.nchv_assignment_exists is False
    assert cert.witness is None
    assert cert.certified


def test_twin_certificate():
    cert = parity_witness(twin_rectangle())
    assert cert.certified
    assert cert.nchv_assignment_exists is False


def test_partial_configuration_is_satisfiable():
    partial = MagicConfiguration.from_words(CONTEXT_WORDS[:4])
    exists, witness = exhaustive_nchv_check(partial)
    assert exists
    assert witness is not None
    # The all-plus assignment is the first one scanned and satisfies the
    # four positive contexts.
    assert all(v == 1 for v in witness.values())
    cert = parity_witness(partial)
    assert not cert.certified
    assert cert.sign_product == 1
    assert cert.witness is not None


def test_odd_multiplicities_break_the_parity_argument():
    mixed = MagicConfiguration.from_words(
        list(CONTEXT_WORDS[:4]) + [TWIN_CONTEXT_WORDS[4]]
    )
    cert = parity_witness(mixed)
    assert cert.sign_product == -1
    assert not cert.all_multiplicities_even
    assert not cert.certified
    assert cert.nchv_assignment_exists is True


def test_mermin_square_certificate():
    config = MagicConfiguration.from_words(MERMIN_SQUARE)
    cert = parity_witness(config)
    assert cert.certified
    assert cert.sign_product == -1
    assert cert.nchv_assignment_exists is False


def test_parity_soundness_on_mutated_configurations():
    """Certified implies the oracle finds nothing; not certified with all
    multiplicities even implies the oracle finds an assignment.  Checked
    on 100 mutations of the built-in rectangle: context drops, member
    negations, and member or context reorderings."""
    import random

    rng = random.Random(170223)
    base = [list(words) for words in CONTEXT_WORDS]
    for _ in range(100):
        kept = [ctx[:] for ctx in base if rng.random() < 0.8]
        for ctx in kept:
            for i in range(len(ctx)):
                if rng.random() < 0.25:
                    word = ctx[i]
                    ctx[i] = word[1:] if word.startswith("-") else "-" + word
            rng.shuffle(ctx)
        rng.shuffle(kept)
        config = MagicConfiguration.from_words(kept)
        cert = parity_witness(config)
        assert cert.nchv_assignment_exists is not None
        if cert.certified:
            assert cert.nchv_assignment_exists is False
        elif cert.all_multiplicities_even:
            assert cert.nchv_assignment_exists is True
        exists, witness = exhaustive_nchv_check(config)
        assert exists == cert.nchv_assignment_exists
        assert witness == brute_least_witness(config)
        if witness is not None:
            for ctx in config.contexts:
                prod = 1
                for p in ctx.points():
                    prod *= witness[p]
                assert prod == ctx.canonical_sign


def brute_least_witness(config):
    """The first satisfying assignment of an ascending scan, or None."""
    universe, contexts = config.universe, config.contexts
    index = {p: i for i, p in enumerate(universe)}
    masks = [functools.reduce(operator.xor, (1 << index[p] for p in ctx.points()), 0) for ctx in contexts]
    parities = [int(ctx.canonical_sign == -1) for ctx in contexts]
    v = brute_valuation_scan(masks, parities, len(universe))
    return None if v < 0 else {p: -1 if (v >> i) & 1 else 1 for i, p in enumerate(universe)}


def qubit_word(n, letters):
    return "".join(letters.get(q, "I") for q in range(n))


def chain_contexts(n, first):
    """Lines {A_q, B_q+1, A_q B_q+1} for AB in XX, ZZ, XZ on qubits first..n-1.

    For m = n - first qubits they hold 2m + 3(m - 1) points.  Each line
    has product sign +1, and some points (Z on the first qubit) have odd
    multiplicity, so no parity argument covers a configuration they join.
    """
    return [
        (
            qubit_word(n, {q: a}),
            qubit_word(n, {q + 1: b}),
            qubit_word(n, {q: a, q + 1: b}),
        )
        for a, b in ("XX", "ZZ", "XZ")
        for q in range(first, n - 1)
    ]


def test_large_universe_is_decided(tmp_path, capsys):
    # 31 points, one trivial context each: the all +1 witness.
    n = 16
    words = [qubit_word(n, {q: letter}) for letter in "XZ" for q in range(n)]
    config = MagicConfiguration.from_words([(w, w) for w in words[:31]])
    assert len(config.universe) == 31
    exists, witness = exhaustive_nchv_check(config)
    assert exists and set(witness.values()) == {1}
    cert = parity_witness(config)
    assert cert.nchv_assignment_exists is True
    assert len(cert.witness) == 31
    assert not cert.certified

    # 81 points, so masks need more than 64 bits: the affine context of
    # the rectangle forces one -1, on its least point.
    n = 16
    affine = [w + "I" * (n - 4) for w in CONTEXT_WORDS[4]]
    config = MagicConfiguration.from_words(chain_contexts(n, 0) + [affine])
    assert len(config.universe) == 81
    cert = parity_witness(config)
    assert cert.nchv_assignment_exists is True
    negative = [p for p, v in cert.witness if v == -1]
    assert negative == [min((pt(w) for w in affine), key=lambda p: p.value)]

    # 48 points with the rectangle embedded: the parity argument does not
    # apply to the whole configuration, but the solve finds no assignment.
    n = 12
    padded = [[w + "I" * (n - 4) for w in ctx] for ctx in CONTEXT_WORDS]
    groups = padded + chain_contexts(n, 4)
    config = MagicConfiguration.from_words(groups)
    assert len(config.universe) == 48
    assert not parity_witness(config).certified
    path = tmp_path / "embedded.txt"
    path.write_text("\n\n".join("\n".join(g) for g in groups) + "\n", encoding="utf-8")
    code = main(["verify", str(path), "--json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["verdict"] == "contradiction"
    assert report["witness"] is None


# ---------------------------------------------------------------------------
# intersection geometry


EXPECTED_LINES = {
    (0, 1): {"ZIII", "IXII", "ZXII"},
    (0, 2): {"IIZI", "IXII", "IXZI"},
    (0, 3): {"IIIX", "IXII", "IXIX"},
    (1, 2): {"IIIZ", "IXII", "IXIZ"},
    (1, 3): {"IIXI", "IXII", "IXXI"},
    (2, 3): {"XIII", "IXII", "XXII"},
}

EXPECTED_POINT_MEETS = {
    (0, 4): {"ZXZX"},
    (1, 4): {"ZXXZ"},
    (2, 4): {"XXZZ"},
    (3, 4): {"XXXX"},
}


def test_intersection_lines_of_rectangle():
    lines = intersection_lines(magic_rectangle())
    assert set(lines) == set(EXPECTED_LINES) | set(EXPECTED_POINT_MEETS)
    for pair, words in EXPECTED_LINES.items():
        sub = lines[pair]
        assert sub.rank == 2
        assert {point_word(p) for p in enumerate_points(sub)} == words
    for pair, words in EXPECTED_POINT_MEETS.items():
        sub = lines[pair]
        assert sub.rank == 1
        assert {point_word(p) for p in enumerate_points(sub)} == words


def test_identity_only_contexts_span_the_zero_subspace():
    """An identity-only context spans the zero subspace, which meets no
    other span, so intersection_lines lists no pair with it."""
    config = MagicConfiguration.from_words(
        [("IIII", "-IIII"), ("ZIII", "IZII", "ZZII"), ("IIII",), ("ZIII", "IIZI", "ZIZI")]
    )
    spans = config.context_spans()
    assert spans[0] == spans[2] == Subspace(4, ())
    assert [s.rank for s in spans] == [0, 2, 0, 2]
    lines = intersection_lines(config)
    assert list(lines) == [(1, 3)]
    assert [point_word(p) for p in enumerate_points(lines[1, 3])] == ["ZIII"]


def test_shared_point_is_the_anchor():
    assert shared_point(magic_rectangle()) == anchor_point()
    assert point_word(anchor_point()) == "IXII"
    assert shared_point(twin_rectangle()) == anchor_point()


def test_shared_point_absent_for_mermin_square():
    config = MagicConfiguration.from_words(MERMIN_SQUARE)
    with pytest.raises(ContextError, match="no pair of context spans meets in a line"):
        shared_point(config)


def test_shared_point_absent_when_the_meets_share_a_line():
    """One line context given twice: its two spans meet in that line, so
    the common intersection has rank 2 and names no single point; the
    report lists the line and gives no shared point and no twin."""
    config = MagicConfiguration.from_words([["XI", "IX", "XX"], ["XI", "IX", "XX"]])
    with pytest.raises(ContextError) as raised:
        shared_point(config)
    assert str(raised.value) == "no unique shared point; common intersection has rank 2"
    report, code = build_report(config, [None, None])
    assert code == 1
    assert report["shared_point"] is None and report["twin"] is None
    assert report["lines"] == [{"contexts": [0, 1], "points": ["IX", "XI", "XX"]}]


def _brute_meets(config: MagicConfiguration) -> dict:
    """Every pair i < j of context spans intersected, the nonzero meets kept."""
    spans = config.context_spans()
    pairs = itertools.combinations(range(len(spans)), 2)
    meets = {(i, j): intersect(spans[i], spans[j]) for i, j in pairs}
    return {pair: meet for pair, meet in meets.items() if meet.rank >= 1}


def _reference_shared_point(config: MagicConfiguration) -> SymplecticPoint:
    """shared_point as it was defined before the closure-point index: the
    common intersection of the brute-force meets of rank >= 2."""
    lines = [sub for sub in _brute_meets(config).values() if sub.rank >= 2]
    if not lines:
        raise ContextError("no pair of context spans meets in a line")
    common = functools.reduce(intersect, lines)
    if common.rank != 1:
        raise ContextError(f"no unique shared point; common intersection has rank {common.rank}")
    return SymplecticPoint.from_value(config.n, common.rows[0])


def _point_or_error(find, config: MagicConfiguration):
    try:
        return find(config)
    except ContextError as exc:
        return str(exc)


@st.composite
def _configuration_with_repeats(draw) -> MagicConfiguration:
    """A drawn configuration with up to three of its contexts given again,
    each as the same object or with its members reversed (the same span)."""
    contexts = list(draw(_configuration()).contexts)
    for _ in range(draw(st.integers(0, 3))):
        ctx = contexts[draw(st.integers(0, len(contexts) - 1))]
        copy = Context(ctx.observables[::-1]) if draw(st.booleans()) else ctx
        contexts.insert(draw(st.integers(0, len(contexts))), copy)
    return MagicConfiguration(contexts)


@settings(max_examples=400, deadline=None)
@given(_configuration_with_repeats())
@example(magic_rectangle())
@example(twin_rectangle())
@example(MagicConfiguration.from_words([("II", "-II"), ("XI", "IX", "XX"), ("XI", "IZ", "XZ"), ("II",)]))
@example(MagicConfiguration.from_words([("XI", "IX", "XX"), ("ZI", "IZ", "ZZ"), ("XI", "IX", "XX")]))
@example(
    # Two contexts with one span of rank 3 and different points.
    MagicConfiguration.from_words(
        [("ZII", "IZI", "IIZ", "ZZZ"), ("ZZI", "IZZ", "ZII", "IIZ"), ("ZII", "IXI", "ZXI")]
    )
)
def test_meets_through_the_closure_point_index_match_every_pair(config):
    """intersection_lines lists the brute-force nonzero meets of all pairs,
    in the same order, and shared_point finds the same point or raises the
    same message as the common intersection of the rank >= 2 meets."""
    assert list(intersection_lines(config).items()) == list(_brute_meets(config).items())
    assert _point_or_error(shared_point, config) == _point_or_error(_reference_shared_point, config)


# ---------------------------------------------------------------------------
# the complement (twin) map


def canon(config: MagicConfiguration):
    """Configuration up to member order: signed word sets plus signs."""
    return tuple(
        (frozenset(ctx.words), context_sign(ctx)) for ctx in config.contexts
    )


def test_complement_matches_builtin_twin():
    twin = complement_config(magic_rectangle(), anchor_point())
    assert canon(twin) == canon(twin_rectangle())
    for ctx, words in zip(twin.contexts, TWIN_CONTEXT_WORDS):
        assert {o.letters for o in ctx.observables} == set(words)
        assert all(o.sign == 1 for o in ctx.observables)


def test_complement_is_an_involution():
    rect = magic_rectangle()
    back = complement_config(complement_config(rect, anchor_point()), anchor_point())
    assert back == rect


def test_twin_signs_flip_only_the_affine_context():
    twin = twin_rectangle()
    assert [context_sign(c) for c in twin.contexts] == [1, 1, 1, 1, -1]


def test_twin_preserves_quadric_spans():
    rect_spans = magic_rectangle().context_spans()
    twin_spans = twin_rectangle().context_spans()
    for i in range(4):
        assert rect_spans[i] == twin_spans[i]
    # The affine contexts span different planes through the same line.
    assert rect_spans[4] != twin_spans[4]
    for config in (magic_rectangle(), twin_rectangle()):
        _, rest = projective_closure(list(config.contexts[4].points()))
        assert rest is not None and rest.kind == KIND_LINE


def test_complement_rejects_imaginary_anchor():
    with pytest.raises(ContextError, match="squares to -identity"):
        complement_config(magic_rectangle(), pt("YIII"))


def test_complement_rejects_anchor_breaking_commutation():
    with pytest.raises(ContextError):
        complement_config(magic_rectangle(), pt("ZIII"))


def test_complement_rejects_wrong_size_anchor():
    with pytest.raises(ContextError, match="anchor lives in n=2"):
        complement_config(magic_rectangle(), pt("IX"))


def test_no_anchor_preserves_a_full_grid():
    """Projecting a two-qubit square through any point breaks commutation:
    a line context forces the anchor to commute with all three of its
    points, which no point manages against a rank-4 span."""
    config = MagicConfiguration.from_words(MERMIN_SQUARE)
    for value in range(1, 16):
        with pytest.raises(ContextError):
            complement_config(config, SymplecticPoint.from_value(2, value))


def test_complement_fixes_a_line_context_through_its_own_point():
    config = MagicConfiguration.from_words([("XI", "IX", "XX")])
    twin = complement_config(config, pt("XX"))
    assert canon(twin) == canon(config)
    assert canon(complement_config(twin, pt("XX"))) == canon(config)


def test_quadric_contexts_share_two_points_pairwise():
    rect = magic_rectangle()
    anchor = anchor_point()
    for i in range(4):
        for j in range(i + 1, 4):
            common = set(rect.contexts[i].points()) & set(rect.contexts[j].points())
            assert len(common) == 2
            assert anchor in common


# ---------------------------------------------------------------------------
# invariance under qubit permutations, Hadamards and sign gauges

# H maps X <-> Z and Y (= XZ) to ZX = -Y: each letter's image and sign factor.
HADAMARD_LETTERS = {"I": ("I", 1), "X": ("Z", 1), "Y": ("Y", -1), "Z": ("X", 1)}


@functools.cache
def _invariance_configs() -> tuple:
    """Word lists of the built-in shapes, two satisfiable variants of the
    rectangle, and raw search results at anchors holding Y letters."""
    configs = [
        CONTEXT_WORDS,
        TWIN_CONTEXT_WORDS,
        MERMIN_SQUARE,
        CONTEXT_WORDS[:4],
        (*CONTEXT_WORDS[:4], TWIN_CONTEXT_WORDS[4]),
    ]
    for word in ("YYYY", "XYYX"):
        options = SearchOptions(4, anchor_point=pt(word), limit=3, dedup=False)
        configs += [[ctx.words for ctx in c.contexts] for c in find_magic_rectangles(options)]
    return tuple(tuple(tuple(words) for words in config) for config in configs)


def _image(word: str, order, hadamards, gauge) -> str:
    """A signed word negated when its letters are in gauge, with image
    letter i taken from letter order[i], then H applied on each qubit in
    hadamards."""
    sign, letters = (-1, word[1:]) if word.startswith("-") else (1, word)
    if letters in gauge:
        sign = -sign
    letters = [letters[i] for i in order]
    for q in hadamards:
        letters[q], factor = HADAMARD_LETTERS[letters[q]]
        sign *= factor
    return ("-" if sign < 0 else "") + "".join(letters)


@functools.cache
def _words_by_matrix(n: int) -> dict:
    """Every signed n-qubit word, keyed by the bytes of its matrix."""
    table = {}
    for letters in itertools.product("IXYZ", repeat=n):
        word = "".join(letters)
        table[word_matrix(word).tobytes()] = word
        table[word_matrix("-" + word).tobytes()] = "-" + word
    return table


def _cnot_image(word: str, control: int, target: int) -> str:
    """The word conjugated by CNOT with the given control and target
    qubits (qubit 0 is the leftmost letter, the most significant bit of
    a basis index); CNOT is a real permutation and its own inverse."""
    n = len(word.lstrip("-"))
    flip = 1 << n - 1 - target
    gate = np.zeros((1 << n, 1 << n), dtype=int)
    for b in range(1 << n):
        gate[b ^ flip if b >> n - 1 - control & 1 else b, b] = 1
    return _words_by_matrix(n)[(gate @ word_matrix(word) @ gate).tobytes()]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_verdict_and_kinds_survive_permutations_hadamards_and_gauge_flips(data):
    """A qubit permutation, Hadamards and CNOTs conjugate every context,
    and a gauge flip negates a word wherever it occurs: none may change
    the verify verdict or the shape (kind and rank) of any context."""
    config = data.draw(st.sampled_from(_invariance_configs()))
    n = len(config[0][0].lstrip("-"))
    letters = sorted({word.lstrip("-") for words in config for word in words})
    order = data.draw(st.permutations(range(n)))
    hadamards = data.draw(st.sets(st.integers(0, n - 1)))
    gauge = data.draw(st.sets(st.sampled_from(letters)))
    cnots = data.draw(st.lists(st.permutations(range(n)).map(lambda qubits: qubits[:2]), max_size=2))
    image = [[_image(word, order, hadamards, gauge) for word in words] for words in config]
    for control, target in cnots:
        image = [[_cnot_image(word, control, target) for word in words] for words in image]

    before, after = (MagicConfiguration.from_words(c) for c in (config, image))
    verdict = parity_witness(before).nchv_assignment_exists
    assert parity_witness(after).nchv_assignment_exists == verdict
    for ctx, ctx_image in zip(before.contexts, after.contexts):
        label, label_image = classify_set(ctx.points()), classify_set(ctx_image.points())
        assert (label_image.kind, label_image.ambient_rank) == (label.kind, label.ambient_rank)
