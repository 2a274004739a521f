"""Acceptance gate: seven criteria, each printing its own verdict line.

Every criterion times its body against a fixed budget and prints

    [acceptance] criterion N: PASS (0.12s / 1s budget) description

directly to the terminal, bypassing pytest capture, so the gate's
per-criterion outcome is visible in any test run.
"""

import itertools
import json
import random
import time

import numpy as np

from bksgeom.classify import (
    KIND_AFFINE_PLANE,
    KIND_ELLIPTIC_QUADRIC,
    KIND_LINE,
    classify_set,
)
from bksgeom.cli import main
from bksgeom.geometry import (
    SymplecticPoint,
    enumerate_points,
    intersect,
    span,
    symplectic_form,
)
from bksgeom.magic import (
    complement_config,
    context_sign,
    exhaustive_nchv_check,
    intersection_lines,
    parity_witness,
    shared_point,
)
from bksgeom.pauli import (
    PauliObservable,
    commutes,
    multiply,
    parse_observable,
    point_word,
)
from bksgeom.rectangle import CONTEXT_WORDS, anchor_point, magic_rectangle
from bksgeom.search import (
    SearchOptions,
    canonical_config,
    enumerate_caps,
    find_magic_rectangles,
    find_mermin_squares,
)

from reference_geometry import TWIN_CONTEXT_WORDS, all_points, closure_rest, is_isotropic, subspace_sum, word_matrix

# ---------------------------------------------------------------------------
# frozen expected values for the built-in configuration

EXPECTED_SIGNS = (1, 1, 1, 1, -1)

EXPECTED_AMBIENTS = (
    {
        "ZIII", "IXII", "IIZI", "IIIX", "ZXZX", "ZXII", "ZIZI", "ZIIX",
        "IXZX", "IXZI", "IXIX", "ZIZX", "IIZX", "ZXIX", "ZXZI",
    },
    {
        "ZIII", "IXII", "IIXI", "IIIZ", "ZXXZ", "ZXII", "ZIXI", "ZIIZ",
        "IXXZ", "IXXI", "IXIZ", "ZIXZ", "IIXZ", "ZXIZ", "ZXXI",
    },
    {
        "XIII", "IXII", "IIZI", "IIIZ", "XXZZ", "XXII", "XIZI", "XIIZ",
        "IXZZ", "IXZI", "IXIZ", "XIZZ", "IIZZ", "XXIZ", "XXZI",
    },
    {
        "XIII", "IXII", "IIXI", "IIIX", "XXXX", "XXII", "XIXI", "XIIX",
        "IXXX", "IXXI", "IXIX", "XIXX", "IIXX", "XXIX", "XXXI",
    },
)

EXPECTED_FANO = {"ZXZX", "ZXXZ", "XXZZ", "XXXX", "IIYY", "YIIY", "YIYI"}

EXPECTED_CLOSURE_LINE = {"IIYY", "YIIY", "YIYI"}

EXPECTED_LINES = {
    (0, 1): {"IXII", "ZIII", "ZXII"},
    (0, 2): {"IXII", "IIZI", "IXZI"},
    (0, 3): {"IXII", "IIIX", "IXIX"},
    (1, 2): {"IXII", "IIIZ", "IXIZ"},
    (1, 3): {"IXII", "IIXI", "IXXI"},
    (2, 3): {"IXII", "XIII", "XXII"},
}

def run_criterion(capsys, number, budget, description, body):
    """Time a criterion body and print a visible verdict line."""
    start = time.perf_counter()
    try:
        body()
    except BaseException:
        elapsed = time.perf_counter() - start
        with capsys.disabled():
            print(
                f"[acceptance] criterion {number}: FAIL "
                f"({elapsed:.2f}s / {budget:g}s budget) {description}"
            )
        raise
    elapsed = time.perf_counter() - start
    within = elapsed < budget
    verdict = "PASS" if within else "FAIL (over budget)"
    with capsys.disabled():
        print(
            f"[acceptance] criterion {number}: {verdict} "
            f"({elapsed:.2f}s / {budget:g}s budget) {description}"
        )
    assert within, (
        f"criterion {number} exceeded its {budget}s budget: {elapsed:.2f}s"
    )


# ---------------------------------------------------------------------------


def test_criterion_1_reproduction(capsys):
    def body():
        code = main(["reproduce", "--json"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0

        contexts = report["contexts"]
        assert [set(e["observables"]) for e in contexts] == [
            set(words) for words in CONTEXT_WORDS
        ]
        assert tuple(e["sign"] for e in contexts) == EXPECTED_SIGNS
        for i in range(4):
            assert set(contexts[i]["closure_points"]) == EXPECTED_AMBIENTS[i]
        assert set(contexts[4]["closure_points"]) == EXPECTED_FANO

        got_lines = {
            tuple(line["contexts"]): set(line["points"])
            for line in report["lines"]
        }
        assert got_lines == EXPECTED_LINES
        assert report["shared_point"] == "IXII"
        assert [set(e["observables"]) for e in report["twin"]] == [set(w) for w in TWIN_CONTEXT_WORDS]

    run_criterion(
        capsys, 1, 1.0, "reproduce emits every built-in listing exactly", body
    )


def test_criterion_2_classification(capsys):
    def body():
        rect = magic_rectangle()
        for ctx in rect.contexts[:4]:
            pts = ctx.points()
            label = classify_set(pts)
            assert label.kind == KIND_ELLIPTIC_QUADRIC
            closure = span(pts)
            assert closure.rank == 4
            assert is_isotropic(closure)
        affine = rect.contexts[4].points()
        label = classify_set(affine)
        assert label.kind == KIND_AFFINE_PLANE
        assert span(affine).rank == 3
        rest = closure_rest(affine)
        assert classify_set(rest).kind == KIND_LINE
        assert {point_word(p) for p in rest} == EXPECTED_CLOSURE_LINE

    run_criterion(
        capsys,
        2,
        1.0,
        "four elliptic quadrics, one affine plane, closure line IIYY YIIY YIYI",
        body,
    )


def test_criterion_3_contradiction(capsys, tmp_path):
    def body():
        rect = magic_rectangle()
        cert = parity_witness(rect)
        mults = {point_word(p): m for p, m in rect.multiplicities.items()}
        assert mults.pop("IXII") == 4
        assert set(mults.values()) == {2} and len(mults) == 10
        assert cert.sign_product == -1
        assert cert.all_multiplicities_even
        assert cert.certified
        assert len(rect.universe) == 11
        exists, witness = exhaustive_nchv_check(rect)
        assert exists is False and witness is None

        partial = tmp_path / "partial.txt"
        partial.write_text(
            "\n\n".join("\n".join(words) for words in CONTEXT_WORDS[:4]) + "\n",
            encoding="utf-8",
        )
        code = main(["verify", str(partial)])
        out = capsys.readouterr().out
        assert code == 1
        assert "consistent (satisfying assignment exists)" in out
        assert "witness:" in out

    run_criterion(
        capsys,
        3,
        1.0,
        "parity certificate, 2048-valuation scan, satisfiable without S5",
        body,
    )


def test_criterion_4_twin(capsys, twin):
    def body():
        rect = magic_rectangle()
        rect_spans = rect.context_spans()
        twin_spans = twin.context_spans()
        for i in range(4):
            assert rect_spans[i] == twin_spans[i]
        # The two affine planes share their closure line rather than
        # their full span; see the closure checks below.
        meet = intersect(rect_spans[4], twin_spans[4])
        assert {point_word(p) for p in enumerate_points(meet)} == EXPECTED_CLOSURE_LINE
        for config in (rect, twin):
            rest = closure_rest(config.contexts[4].points())
            assert classify_set(rest).kind == KIND_LINE
            assert {point_word(p) for p in rest} == EXPECTED_CLOSURE_LINE

        twin_cert = parity_witness(twin)
        assert twin_cert.certified
        assert tuple(context_sign(c) for c in twin.contexts) == EXPECTED_SIGNS
        twice = complement_config(
            complement_config(rect, anchor_point()), anchor_point()
        )
        assert twice == rect

    run_criterion(
        capsys,
        4,
        1.0,
        "twin spans, shared closure line, same signs, involution",
        body,
    )


def test_criterion_5_oracles(capsys):
    def body():
        observables = [
            parse_observable(w)
            for words in CONTEXT_WORDS + TWIN_CONTEXT_WORDS
            for w in words
        ]
        seen = set()
        distinct = []
        for obs in observables:
            if obs not in seen:
                seen.add(obs)
                distinct.append(obs)
        assert len(distinct) == 21  # 22 slots, IXII listed in both halves
        mats = {obs: word_matrix(obs) for obs in distinct}
        for a in distinct:
            for b in distinct:
                got = word_matrix(multiply(a, b))
                assert np.array_equal(got, mats[a] @ mats[b])

        # commutes vs the symplectic form: exhaustively at 2 qubits ...
        pts2 = list(all_points(2))
        for p in pts2:
            for q in pts2:
                a = PauliObservable(2, p.x, p.z, 1)
                b = PauliObservable(2, q.x, q.z, 1)
                assert commutes(a, b) == (symplectic_form(p, q) == 0)
        # ... exhaustively over all 255x255 point pairs at 4 qubits ...
        pts4 = list(all_points(4))
        for p in pts4:
            a = PauliObservable(4, p.x, p.z, 1)
            for q in pts4:
                b = PauliObservable(4, q.x, q.z, 1)
                assert commutes(a, b) == (symplectic_form(p, q) == 0)
        # ... and on 10^4 random 4-qubit pairs with random signs.
        rng = random.Random(45061)
        for _ in range(10_000):
            p = SymplecticPoint.from_value(4, rng.randrange(1, 256))
            q = SymplecticPoint.from_value(4, rng.randrange(1, 256))
            a = PauliObservable(4, p.x, p.z, rng.choice([1, -1]))
            b = PauliObservable(4, q.x, q.z, rng.choice([1, -1]))
            assert commutes(a, b) == (symplectic_form(p, q) == 0)

        # cap census equals brute force and is equal across all four
        # ambient spaces.
        ambients = magic_rectangle().context_spans()[:4]
        counts = []
        for ambient in ambients:
            caps = enumerate_caps(ambient)
            counts.append(len(caps))
        assert len(set(counts)) == 1
        brute = 0
        for combo in itertools.combinations(enumerate_points(ambients[0]), 5):
            if classify_set(combo).kind == KIND_ELLIPTIC_QUADRIC:
                brute += 1
        assert counts[0] == brute == 168

    run_criterion(
        capsys,
        5,
        10.0,
        "matrix oracle, commutation vs form, census vs brute force",
        body,
    )


def test_criterion_6_search(capsys, twin):
    def body():
        square_options = SearchOptions(qubit_count=2, shape="mermin_square")
        squares = find_mermin_squares(square_options)
        assert squares
        assert squares == find_mermin_squares(square_options)
        from bksgeom.classify import KIND_GRID

        for config in squares:
            points = sorted(
                {p for ctx in config.contexts for p in ctx.points()},
                key=lambda p: p.value,
            )
            assert classify_set(points).kind == KIND_GRID
            assert parity_witness(config).certified

        options = SearchOptions(
            qubit_count=4,
            shape="hc_rectangle",
            anchor_point=anchor_point(),
            seed=True,
        )
        results = find_magic_rectangles(options)
        assert results == find_magic_rectangles(options)
        keys = {tuple(ctx.words for ctx in config.contexts) for config in results}
        for config in (magic_rectangle(), twin):
            assert tuple(ctx.words for ctx in canonical_config(config).contexts) in keys
        for config in results:
            assert parity_witness(config).certified
            assert shared_point(config) == anchor_point()
            image = canonical_config(complement_config(config, anchor_point()))
            assert tuple(ctx.words for ctx in image.contexts) in keys
        with capsys.disabled():
            print(
                f"[acceptance]   counts: {len(squares)} squares, "
                f"{len(results)} rectangles at default limits"
            )

    run_criterion(
        capsys,
        6,
        60.0,
        "square and rectangle searches verify, reproduce, and close under twinning",
        body,
    )


def test_criterion_7_subspace_algebra(capsys):
    def body():
        rng = random.Random(9241)
        for _ in range(500):
            n = rng.randint(2, 5)
            gens_a = [
                SymplecticPoint.from_value(n, rng.randrange(1, 1 << (2 * n)))
                for _ in range(rng.randint(1, 4))
            ]
            gens_b = [
                SymplecticPoint.from_value(n, rng.randrange(1, 1 << (2 * n)))
                for _ in range(rng.randint(1, 4))
            ]
            a, b = span(gens_a), span(gens_b)
            assert (
                a.rank + b.rank
                == subspace_sum(a, b).rank + intersect(a, b).rank
            )

        rect = magic_rectangle()
        lines = intersection_lines(rect)
        quad_pairs = {
            pair: sub for pair, sub in lines.items() if pair[1] <= 3
        }
        assert set(quad_pairs) == set(EXPECTED_LINES)
        for pair, sub in quad_pairs.items():
            assert sub.rank == 2
            words = {point_word(p) for p in enumerate_points(sub)}
            assert words == EXPECTED_LINES[pair]
            assert "IXII" in words

        for i, j in itertools.combinations(range(4), 2):
            common = set(rect.contexts[i].points()) & set(
                rect.contexts[j].points()
            )
            assert len(common) == 2
            assert anchor_point() in common

    run_criterion(
        capsys,
        7,
        5.0,
        "dimension formula, six rank-2 lines through IXII, pairwise sharing",
        body,
    )
