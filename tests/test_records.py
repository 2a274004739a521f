"""Value semantics of the eight records: repr, equality and hashing,
keyword construction and defaults, every validation message, and that
fields cannot be assigned."""

import pytest

from bksgeom.classify import ClassificationLabel, classify_set
from bksgeom.geometry import (
    MAX_QUBITS,
    Subspace,
    SymplecticPoint,
    intersect,
    span,
    symplectic_form,
)
from bksgeom.magic import (
    Context,
    ContextError,
    ContradictionCertificate,
    MagicConfiguration,
)
from bksgeom.pauli import PauliObservable, commutes, multiply, product_of_set
from bksgeom.search import SHAPES, SearchOptions

POINT = SymplecticPoint(2, 1, 2)
LINE = ("XI", "IX", "XX")
XI, IX, XX = (PauliObservable(2, x, 0) for x in (2, 1, 3))


def records():
    """One instance of each record, its repr and its fields."""
    ctx = Context((XI, IX, XX))
    certificate = ContradictionCertificate(1, False, True, ((POINT, -1),))
    options = SearchOptions(2, POINT, "mermin_square", 3, False, True)
    return [
        (POINT, "SymplecticPoint(n=2, x=1, z=2)", (2, 1, 2)),
        (Subspace(2, (9, 6)), "Subspace(n=2, rows=(9, 6))", (2, (9, 6))),
        (PauliObservable(2, 1, 2, -1), "PauliObservable(n=2, x=1, z=2, sign=-1)", (2, 1, 2, -1)),
        (
            ctx,
            "Context(observables=(PauliObservable(n=2, x=2, z=0, sign=1), "
            "PauliObservable(n=2, x=1, z=0, sign=1), PauliObservable(n=2, x=3, z=0, sign=1)))",
            ((XI, IX, XX),),
        ),
        (
            MagicConfiguration((ctx,)),
            "MagicConfiguration(contexts=(Context(observables=(PauliObservable(n=2, x=2, z=0, sign=1), "
            "PauliObservable(n=2, x=1, z=0, sign=1), PauliObservable(n=2, x=3, z=0, sign=1))),))",
            ((ctx,),),
        ),
        (
            certificate,
            "ContradictionCertificate(sign_product=1, all_multiplicities_even=False, "
            "nchv_assignment_exists=True, witness=((SymplecticPoint(n=2, x=1, z=2), -1),))",
            (1, False, True, ((POINT, -1),)),
        ),
        (
            ClassificationLabel("generic", 3, "why"),
            "ClassificationLabel(kind='generic', ambient_rank=3, detail='why')",
            ("generic", 3, "why"),
        ),
        (
            options,
            "SearchOptions(qubit_count=2, anchor_point=SymplecticPoint(n=2, x=1, z=2), "
            "shape='mermin_square', limit=3, dedup=False, seed=True)",
            (2, POINT, "mermin_square", 3, False, True),
        ),
    ]


IDS = [type(r).__name__ for r, _, _ in records()]


@pytest.mark.parametrize("index", range(8), ids=IDS)
def test_repr_text(index):
    record, text, _ = records()[index]
    assert repr(record) == text


@pytest.mark.parametrize("index", range(8), ids=IDS)
def test_equality_and_hash_follow_the_fields(index):
    record, _, fields = records()[index]
    again = records()[index][0]
    assert record == again and not record != again
    assert hash(record) == hash(again) == hash(fields)


@pytest.mark.parametrize("index", range(8), ids=IDS)
def test_fields_cannot_be_assigned(index):
    record, _, fields = records()[index]
    name = repr(record).split("(", 1)[1].split("=", 1)[0]
    with pytest.raises(AttributeError):
        setattr(record, name, fields[0])
    assert getattr(record, name) == fields[0]


def test_records_of_different_fields_differ():
    assert SymplecticPoint(2, 1, 2) != SymplecticPoint(2, 2, 1)
    assert Subspace(2, (9,)) != Subspace(3, (9,))
    assert PauliObservable(2, 1, 2, 1) != PauliObservable(2, 1, 2, -1)
    assert ClassificationLabel("line", 2) != ClassificationLabel("line", 2, "x")


def test_keyword_construction_and_defaults():
    assert SymplecticPoint(n=2, z=2, x=1) == POINT
    assert Subspace(rows=(9, 6), n=2) == Subspace(2, (9, 6))
    assert PauliObservable(n=2, x=1, z=2) == PauliObservable(2, 1, 2, 1)
    assert PauliObservable(2, 1, 2).sign == 1
    assert Context(observables=[XI, IX, XX]).observables == (XI, IX, XX)
    ctx = Context((XI, IX, XX))
    assert MagicConfiguration(contexts=[ctx]).contexts == (ctx,)
    certificate = ContradictionCertificate(
        witness=None, nchv_assignment_exists=False, all_multiplicities_even=True, sign_product=-1
    )
    assert certificate.certified
    assert ClassificationLabel(kind="line", ambient_rank=2).detail == ""
    options = SearchOptions(qubit_count=4)
    assert (options.anchor_point, options.shape, options.limit, options.dedup, options.seed) == (
        None, "hc_rectangle", 4, True, False,
    )
    assert SearchOptions(qubit_count=4, limit=9, seed=True) == SearchOptions(4, None, "hc_rectangle", 9, True, True)


def _message(build) -> str:
    with pytest.raises(ValueError) as excinfo:
        build()
    return str(excinfo.value)


def test_point_validation_messages():
    bound = f"qubit count must be in [1, {MAX_QUBITS}], got"
    assert _message(lambda: SymplecticPoint(0, 0, 1)) == f"{bound} 0"
    assert _message(lambda: SymplecticPoint(MAX_QUBITS + 1, 0, 1)) == f"{bound} {MAX_QUBITS + 1}"
    assert _message(lambda: SymplecticPoint(2, 4, 1)) == "component masks out of range for n=2"
    assert _message(lambda: SymplecticPoint(2, 1, -1)) == "component masks out of range for n=2"
    assert _message(lambda: SymplecticPoint(2, 0, 0)) == "the zero vector is not a projective point"
    assert _message(lambda: SymplecticPoint.from_value(2, 16)) == "value 16 out of range for n=2"


def test_subspace_validation_messages():
    assert _message(lambda: Subspace(0, ())) == f"qubit count must be in [1, {MAX_QUBITS}], got 0"
    echelon = "rows are not in canonical reduced echelon form"
    for rows in [(0,), (16,), (6, 9), (9, 9), (12, 4)]:
        assert _message(lambda: Subspace(2, rows)) == echelon
    assert Subspace(2, ()).rank == 0


def test_observable_validation_messages():
    assert _message(lambda: PauliObservable(2, 1, 0, 0)) == "sign must be +1 or -1, got 0"
    assert _message(lambda: PauliObservable(0, 0, 0, 2)) == "sign must be +1 or -1, got 2"
    bound = f"qubit count must be in [1, {MAX_QUBITS}], got"
    assert _message(lambda: PauliObservable(MAX_QUBITS + 1, 0, 0)) == f"{bound} {MAX_QUBITS + 1}"
    assert _message(lambda: PauliObservable(2, 0, 4)) == "component masks out of range for n=2"
    assert PauliObservable(2, 0, 0).is_identity


def _context_message(words) -> str:
    with pytest.raises(ContextError) as excinfo:
        MagicConfiguration((Context(tuple(words)),))
    return str(excinfo.value)


def test_context_and_configuration_validation_messages():
    assert _context_message(()) == "context has no observables"
    mixed = (XI, PauliObservable(3, 4, 0))
    assert _context_message(mixed) == "context mixes qubit counts (2 and 3)"
    zi = PauliObservable(2, 0, 2)
    assert _context_message((XI, zi, PauliObservable(2, 2, 2))) == "observables XI and ZI do not commute"
    assert _context_message((XI, IX)) == "context product is XX, not proportional to the identity"
    other = Context.from_words(("XII", "IXI", "XXI"))
    with pytest.raises(ContextError) as excinfo:
        MagicConfiguration((Context((XI, IX, XX)), other))
    assert str(excinfo.value) == "contexts mix qubit counts [2, 3]"
    assert MagicConfiguration(()).n is None


def test_search_options_validation_messages():
    assert _message(lambda: SearchOptions(4, shape="square")) == (
        f"unknown shape 'square'; expected one of {SHAPES}"
    )
    bound = f"qubit count must be in [1, {MAX_QUBITS}], got"
    for count in (0, MAX_QUBITS + 1):
        assert _message(lambda: SearchOptions(count)) == f"{bound} {count}"
    assert _message(lambda: SearchOptions(4, limit=0)) == "limit must be at least 1"
    assert _message(lambda: SearchOptions(4, anchor_point=POINT)) == (
        "anchor lives in n=2, search space has n=4"
    )


P2, P3 = SymplecticPoint(2, 1, 0), SymplecticPoint(3, 1, 0)
O2, O3 = PauliObservable(2, 1, 0), PauliObservable(3, 1, 0)
S2, S3 = Subspace(2, (4,)), Subspace(3, (8,))


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: symplectic_form(P2, P3), id="points-form"),
        pytest.param(lambda: span((P2, P3)), id="points-span"),
        pytest.param(lambda: classify_set((P2, P3)), id="points-classify"),
        pytest.param(lambda: multiply(O2, O3), id="observables-multiply"),
        pytest.param(lambda: commutes(O2, O3), id="observables-commute"),
        pytest.param(lambda: product_of_set((O2, O3)), id="observables-product"),
        pytest.param(lambda: intersect(S2, S3), id="subspaces"),
    ],
)
def test_records_from_different_spaces_share_one_message(call):
    assert _message(call) == "operands live in different spaces (n=2 vs n=3)"


def test_configuration_equality_ignores_canonical_signs():
    config = MagicConfiguration.from_words([LINE, ("ZI", "IZ", "ZZ")])
    assert config.canonical_signs == (1, 1)
    flipped = MagicConfiguration.from_words([LINE, ("ZI", "IZ", "ZZ")])
    object.__setattr__(flipped, "canonical_signs", (-1, -1))
    assert config == flipped and hash(config) == hash(flipped)
    assert "canonical_signs" not in repr(config)


def test_points_order_by_qubit_count_then_x_then_z():
    points = [SymplecticPoint(n, x, z) for n in (1, 2) for x in range(1 << n) for z in range(1 << n) if x or z]
    assert sorted(reversed(points)) == points
    assert SymplecticPoint(1, 1, 1) < SymplecticPoint(2, 0, 1) < SymplecticPoint(2, 1, 0)
    assert max(SymplecticPoint(2, 1, 3), SymplecticPoint(2, 2, 0)) == SymplecticPoint(2, 2, 0)
