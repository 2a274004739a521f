"""End-to-end tests of the command line interface."""

import contextlib
import hashlib
import importlib.metadata
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bksgeom.cli
import bksgeom.magic
import bksgeom.rectangle
from bksgeom.classify import classify_set
from bksgeom.cli import (
    _block_text,
    _named_contexts,
    build_report,
    main,
    parse_config_text,
    read_config_file,
    render_report,
)
from bksgeom.magic import Context, MagicConfiguration
from bksgeom.geometry import MAX_QUBITS, SymplecticPoint, _span_values, packed_form, reduce_row
from bksgeom.pauli import ParseError, format_observable, parse_observable, point_word, to_symplectic
from bksgeom.rectangle import CONTEXT_NAMES, CONTEXT_WORDS, TWIN_CONTEXT_WORDS, magic_rectangle
from bksgeom.search import find_magic_rectangles

from reference_geometry import rref


RECT_FILE = """\
# four-qubit rectangle
name: S1
ZIII
IXII
IIZI
IIIX
ZXZX

name: S2
ZIII
IXII
IIXI
IIIZ
ZXXZ

name: S3
XIII
IXII
IIZI
IIIZ
XXZZ

name: S4
XIII  # inline comment
IXII
IIXI
IIIX
XXXX

name: S5
ZXZX
ZXXZ
XXZZ
XXXX
"""


def all_lines_text(n: int) -> str:
    """Every line of W(2n-1, 2) as a context: a, b, a ^ b for commuting
    a < b < a ^ b, in ascending order of (a, b)."""
    values = range(1, 1 << 2 * n)
    lines = [(a, b, a ^ b) for a in values for b in values if a < b < a ^ b and not packed_form(n, a, b)]
    words = [[point_word(SymplecticPoint.from_value(n, v)) for v in line] for line in lines]
    return "\n\n".join("\n".join(line) for line in words) + "\n"


# Files that the pinned commands below read, by name; missing.txt is
# absent on purpose.  w32.txt holds the 15 lines of W(3, 2), w52.txt
# the 315 lines of W(5, 2); identity.txt has two identity-only contexts.
CONFIG_FILES = {
    "rect.txt": RECT_FILE,
    "partial.txt": "\n\n".join("\n".join(words) for words in CONTEXT_WORDS[:4]) + "\n",
    "noncommuting.txt": "ZIII\nXIII\n",
    "badword.txt": "ZIII\nZQII\n",
    "w32.txt": all_lines_text(2),
    "w52.txt": all_lines_text(3),
    "identity.txt": "IIII\n-IIII\n\nZIII\nIZII\nZZII\n\nIIII\n",
}


def emit_config_text(config: MagicConfiguration, names) -> str:
    """A configuration in the block file format, as complement prints it."""
    return _block_text(_named_contexts(config.contexts, names))


@pytest.fixture
def rect_path(tmp_path):
    path = tmp_path / "rect.txt"
    path.write_text(RECT_FILE, encoding="utf-8")
    return str(path)


@pytest.fixture
def partial_path(tmp_path):
    path = tmp_path / "partial.txt"
    path.write_text(CONFIG_FILES["partial.txt"], encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# file format


def test_parse_config_text_names_and_comments():
    blocks = parse_config_text(RECT_FILE)
    assert [name for name, _ in blocks] == list(CONTEXT_NAMES)
    assert [len(members) for _, members in blocks] == [5, 5, 5, 5, 4]
    words = tuple(tuple(o.letters for o in members) for _, members in blocks)
    assert words == CONTEXT_WORDS


def test_parse_config_rejects_empty():
    with pytest.raises(ParseError, match="no contexts"):
        parse_config_text("# nothing here\n\n")


def test_parse_config_rejects_named_empty_block():
    with pytest.raises(ParseError, match="has no observables"):
        parse_config_text("name: S1\n\nZIII\nIXII\nZXII\n")


def test_second_name_header_before_a_member_exits_3(tmp_path, capsys):
    """A header may not replace the name of a block with no members."""
    path = tmp_path / "two_names.txt"
    path.write_text("name: A\nname: B\nXX\nZZ\nYY\n", encoding="utf-8")
    assert main(["verify", str(path)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert "line 2: context 'A' has no observables" in err


def test_parse_config_rejects_late_name_header():
    with pytest.raises(ParseError, match="line 2: name header"):
        parse_config_text("ZIII\nname: S1\n")


def test_parse_config_reports_line_numbers():
    with pytest.raises(ParseError, match="line 3"):
        parse_config_text("ZIII\nIXII\nZQII\n")


def test_emit_parse_round_trip(rect_path):
    config, names = read_config_file(rect_path)
    text = emit_config_text(config, names)
    blocks = parse_config_text(text)
    assert [n for n, _ in blocks] == names
    again = MagicConfiguration(tuple(Context(tuple(m)) for _, m in blocks))
    assert emit_config_text(again, names) == text


@pytest.mark.parametrize("command", [["verify"], ["classify"], ["complement", "--point", "IXII"]])
def test_byte_order_mark_is_dropped_only_at_the_start(command, tmp_path, capsys):
    """A file that starts with a UTF-8 byte-order mark reads as the same
    file without one (stdout, stderr and exit code); a mark anywhere
    later is an invalid letter."""

    def run(text):
        path = tmp_path / "config.txt"
        path.write_text(text, encoding="utf-8")
        return (main([command[0], str(path), *command[1:]]), *capsys.readouterr())

    plain = run(RECT_FILE)
    assert plain[0] == 0
    assert run("\ufeff" + RECT_FILE) == plain
    for text in ("\ufeff\ufeff" + RECT_FILE, RECT_FILE.replace("ZIII", "\ufeffZIII", 1)):
        code, out, err = run(text)
        assert (code, out) == (3, "")
        assert "invalid letter '\\ufeff'" in err


# ---------------------------------------------------------------------------
# reproduce


def test_reproduce_text(capsys):
    code = main(["reproduce"])
    out = capsys.readouterr().out
    assert code == 0
    assert "BKS contradiction certified" in out
    assert "shared point: IXII" in out
    assert "contexts (1, 2): ZIII IXII ZXII" in out
    assert "S5': ZIZX ZIXZ XIZZ XIXX" in out


def test_reproduce_json_schema(capsys):
    code = main(["reproduce", "--json"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    for key in ("contexts", "verdict", "lines", "shared_point", "twin"):
        assert key in report
    assert report["verdict"] == "contradiction"
    assert report["shared_point"] == "IXII"
    assert len(report["contexts"]) == 5
    assert len(report["contexts"][0]["closure_points"]) == 15
    assert report["contexts"][0]["classification"] == "cap_elliptic_quadric"
    assert report["contexts"][4]["classification"] == "affine_plane_order_2"
    assert len(report["lines"]) == 6
    for line in report["lines"]:
        assert "IXII" in line["points"]
        assert len(line["points"]) == 3
    assert [entry["name"] for entry in report["twin"]] == [
        "S1'",
        "S2'",
        "S3'",
        "S4'",
        "S5'",
    ]
    for entry, words in zip(report["twin"], TWIN_CONTEXT_WORDS):
        assert set(entry["observables"]) == set(words)


def test_reproduce_is_deterministic(capsys):
    main(["reproduce", "--json"])
    first = capsys.readouterr().out
    main(["reproduce", "--json"])
    second = capsys.readouterr().out
    assert first == second


# ---------------------------------------------------------------------------
# verify


def test_verify_rectangle(rect_path, capsys):
    code = main(["verify", rect_path])
    out = capsys.readouterr().out
    assert code == 0
    assert "BKS contradiction certified" in out
    assert "sign product: -1" in out
    # Members print in canonical value order, context sequence preserved.
    assert "S1: IIZI ZIII IIIX IXII ZXZX" in out


def test_verify_partial_prints_witness(partial_path, capsys):
    code = main(["verify", partial_path])
    out = capsys.readouterr().out
    assert code == 1
    assert "consistent (satisfying assignment exists)" in out
    assert "witness:" in out
    assert "IXII -> +1" in out


def test_report_validates_each_context_once(monkeypatch):
    """The built-in rectangle and its twin are validated once per context:
    5 calls to construct it and 5 for the twin that build_report makes."""
    calls = []
    validate = bksgeom.magic.validate_context

    def counting(ctx):
        calls.append(ctx)
        return validate(ctx)

    monkeypatch.setattr(bksgeom.magic, "validate_context", counting)
    build_report(magic_rectangle(), CONTEXT_NAMES)
    assert len(calls) == 10


def test_verify_noncommuting_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("ZIII\nXIII\n", encoding="utf-8")
    code = main(["verify", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "ZIII and XIII do not commute" in err


def test_verify_bad_word_exits_3(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("ZIII\nZQII\n", encoding="utf-8")
    code = main(["verify", str(path)])
    err = capsys.readouterr().err
    assert code == 3
    assert "line 2" in err


def test_verify_missing_file_exits_3(tmp_path, capsys):
    code = main(["verify", str(tmp_path / "nope.txt")])
    assert code == 3
    assert "error:" in capsys.readouterr().err


def test_verify_non_utf8_file_exits_3(tmp_path, capsys):
    path = tmp_path / "binary.txt"
    path.write_bytes(b"\xff\xfe")
    code = main(["verify", str(path)])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error:") and "utf-8" in err
    assert "Traceback" not in err


def test_verify_json_matches_text_verdict(rect_path, capsys):
    code = main(["verify", rect_path, "--json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["verdict"] == "contradiction"
    assert report["parity_certified"] is True
    assert report["multiplicities"]["IXII"] == 4
    assert report["witness"] is None


# ---------------------------------------------------------------------------
# classify


def test_classify_summary(rect_path, capsys):
    code = main(["classify", rect_path])
    out = capsys.readouterr().out
    assert code == 0
    assert "summary: affine_plane_order_2 x1, cap_elliptic_quadric x4" in out
    assert "S5: ZXZX ZXXZ XXZZ XXXX" in out


def test_classify_json(rect_path, capsys):
    code = main(["classify", rect_path, "--json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    kinds = [entry["classification"] for entry in report["contexts"]]
    assert kinds == ["cap_elliptic_quadric"] * 4 + ["affine_plane_order_2"]
    assert all(entry["totally_isotropic"] for entry in report["contexts"])


def test_generic_context_detail_reaches_report_and_classify(tmp_path, capsys):
    """Two skew lines form a six-point context of rank 4 that no shape
    fits: its label's detail is the report entry's classification_detail
    and a detail: line of both the report and the classify text."""
    words = ["XIII", "IXII", "XXII", "IIXI", "IIIX", "IIXX"]
    detail = "no recognised shape for 6 points of rank 4"
    points = [to_symplectic(parse_observable(word)) for word in words]
    assert classify_set(points) == ("generic", 4, detail)
    report, code = build_report(MagicConfiguration.from_words([words]), [None])
    assert code == 1
    (entry,) = report["contexts"]
    assert entry["classification"] == "generic"
    assert entry["classification_detail"] == detail
    assert f"\n  sign +1, rank 4, totally isotropic, generic\n  detail: {detail}\n" in (
        render_report(report)
    )
    path = tmp_path / "six.txt"
    path.write_text("\n".join(words) + "\n")
    assert main(["classify", str(path)]) == 0
    assert f"\n  generic, rank 4, totally isotropic\n  detail: {detail}\n" in (
        capsys.readouterr().out
    )
    assert main(["classify", str(path), "--json"]) == 0
    (entry,) = json.loads(capsys.readouterr().out)["contexts"]
    assert entry["classification_detail"] == detail


# ---------------------------------------------------------------------------
# complement


def test_complement_emits_twin(rect_path, capsys):
    code = main(["complement", rect_path, "--point", "IXII"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("# complement through IXII\n")
    blocks = parse_config_text(out)
    assert [name for name, _ in blocks] == list(CONTEXT_NAMES)
    got = [frozenset(o.letters for o in members) for _, members in blocks]
    assert got == [frozenset(words) for words in TWIN_CONTEXT_WORDS]


def test_complement_twice_restores_original(rect_path, tmp_path, capsys):
    main(["complement", rect_path, "--point", "IXII"])
    once = capsys.readouterr().out
    twin_path = tmp_path / "twin.txt"
    twin_path.write_text(once, encoding="utf-8")
    code = main(["complement", str(twin_path), "--point", "IXII"])
    twice = capsys.readouterr().out
    assert code == 0
    body = twice.split("\n", 1)[1]
    config, names = read_config_file(rect_path)
    assert body == emit_config_text(config, names)


def test_identity_member_stays_fixed_under_the_twin(tmp_path, capsys):
    """An identity member added to S1 stays the identity in the twin, as
    the anchor does: verify reports a twin, complement exits 0, and
    twinning twice gives the input back."""
    path = tmp_path / "rect_with_identity.txt"
    path.write_text(RECT_FILE.replace("ZXZX\n", "ZXZX\nIIII\n", 1), encoding="utf-8")
    assert main(["verify", str(path), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "contradiction"
    assert report["shared_point"] == "IXII"
    assert report["twin"] is not None
    assert main(["complement", str(path), "--point", "IXII"]) == 0
    once = capsys.readouterr().out
    assert parse_config_text(once)[0][1][0].letters == "IIII"
    twin_path = tmp_path / "twin.txt"
    twin_path.write_text(once, encoding="utf-8")
    assert main(["complement", str(twin_path), "--point", "IXII"]) == 0
    twice = capsys.readouterr().out.split("\n", 1)[1]
    config, names = read_config_file(str(path))
    assert twice == emit_config_text(config, names)


def test_complement_imaginary_point_exits_2(rect_path, capsys):
    code = main(["complement", rect_path, "--point", "YIII"])
    assert code == 2
    assert "squares to -identity" in capsys.readouterr().err


def test_complement_identity_point_exits_2(rect_path, capsys):
    code = main(["complement", rect_path, "--point", "IIII"])
    assert code == 2
    assert capsys.readouterr().err == "error: 'IIII' is an identity word, not a point\n"


def test_complement_bad_point_exits_3(rect_path, capsys):
    code = main(["complement", rect_path, "--point", "QIII"])
    assert code == 3


def test_complement_json(rect_path, capsys):
    code = main(["complement", rect_path, "--point", "IXII", "--json"])
    block = json.loads(capsys.readouterr().out)
    assert code == 0
    assert block["point"] == "IXII"
    assert len(block["contexts"]) == 5


# ---------------------------------------------------------------------------
# search


def test_search_census(capsys):
    code = main(
        ["search", "--qubits", "4", "--shape", "ovoid_census", "--limit", "168", "--json"]
    )
    block = json.loads(capsys.readouterr().out)
    assert code == 0
    assert block["shape"] == "ovoid_census"
    assert len(block["ambients"]) == 4
    assert [amb["count"] for amb in block["ambients"]] == [168] * 4
    first_caps = {frozenset(cap) for cap in block["ambients"][0]["caps"]}
    assert frozenset(CONTEXT_WORDS[0]) in first_caps


def test_search_census_two_qubits(capsys):
    code = main(
        ["search", "--qubits", "2", "--shape", "ovoid_census", "--limit", "1", "--json"]
    )
    block = json.loads(capsys.readouterr().out)
    assert code == 0
    assert [amb["count"] for amb in block["ambients"]] == [168]
    assert len(block["ambients"][0]["caps"]) == 1


def test_search_census_three_qubits_exits_2(capsys):
    code = main(["search", "--qubits", "3", "--shape", "ovoid_census"])
    assert code == 2
    assert "ovoid census supports" in capsys.readouterr().err


@pytest.mark.parametrize(
    "extra, message",
    [
        (["--qubits", "2"], "rectangle search is defined for 4 qubits"),
        (["--qubits", "3"], "rectangle search is defined for 4 qubits"),
        (["--qubits", "4", "--anchor", "XI"], "anchor lives in n=2, search space has n=4"),
    ],
)
def test_rectangle_search_size_errors_exit_2(extra, message, capsys):
    """With no --anchor the search applies its own default, so the error
    names the qubit count, not an anchor the user never gave."""
    code = main(["search", "--shape", "hc_rectangle", *extra])
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_search_mermin(capsys):
    code = main(
        ["search", "--qubits", "2", "--shape", "mermin_square", "--limit", "50", "--json"]
    )
    block = json.loads(capsys.readouterr().out)
    assert code == 0
    assert block["count"] == 10
    for result in block["results"]:
        assert len(result["contexts"]) == 6


def test_search_rectangle_finds_builtin_pair(capsys):
    code = main(
        ["search", "--qubits", "4", "--shape", "hc_rectangle", "--limit", "2", "--json"]
    )
    block = json.loads(capsys.readouterr().out)
    assert code == 0
    assert block["anchor"] == "IXII"
    assert block["count"] == 2
    sets = [
        frozenset(frozenset(ctx["observables"]) for ctx in result["contexts"])
        for result in block["results"]
    ]
    assert frozenset(frozenset(w) for w in CONTEXT_WORDS) == sets[0]
    assert frozenset(frozenset(w) for w in TWIN_CONTEXT_WORDS) == sets[1]


def test_search_rectangle_parses_the_default_anchor_once(monkeypatch, capsys):
    """A rectangle search at the default anchor parses IXII on the first
    call of anchor_point only, though the command and the search both
    read it, the search twice."""
    rectangle = bksgeom.rectangle
    parsed = []
    parse = rectangle.parse_observable
    monkeypatch.setattr(rectangle, "parse_observable", lambda word: parsed.append(word) or parse(word))
    rectangle.anchor_point.cache_clear()
    try:
        for _ in range(2):
            assert main(["search", "--qubits", "4", "--shape", "hc_rectangle", "--limit", "2"]) == 0
            assert capsys.readouterr().out.startswith("2 result(s) for shape hc_rectangle")
    finally:
        rectangle.anchor_point.cache_clear()
    assert parsed == ["IXII"]


def test_search_rectangle_no_dedup_emits_seed_verbatim(capsys):
    code = main(
        [
            "search",
            "--qubits",
            "4",
            "--shape",
            "hc_rectangle",
            "--limit",
            "1",
            "--no-dedup",
            "--json",
        ]
    )
    block = json.loads(capsys.readouterr().out)
    assert code == 0
    assert block["count"] == 1


def test_search_rectangle_other_anchor(capsys):
    code = main(
        [
            "search",
            "--qubits",
            "4",
            "--shape",
            "hc_rectangle",
            "--anchor",
            "ZIII",
            "--limit",
            "2",
            "--json",
        ]
    )
    block = json.loads(capsys.readouterr().out)
    assert code == 0
    assert block["anchor"] == "ZIII"
    assert block["count"] == 2
    for result in block["results"]:
        for ctx in result["contexts"]:
            if len(ctx["observables"]) == 5:
                assert "ZIII" in {w.lstrip("-") for w in ctx["observables"]}


def test_search_determinism(capsys):
    args = ["search", "--qubits", "4", "--shape", "hc_rectangle", "--limit", "4", "--json"]
    main(args)
    first = capsys.readouterr().out
    main(args)
    second = capsys.readouterr().out
    assert first == second


def test_search_text_output(capsys):
    code = main(["search", "--qubits", "2", "--shape", "mermin_square", "--limit", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "1 result(s) for shape mermin_square at 2 qubits" in out


def test_search_bad_anchor_exits_2(capsys):
    for qubits, shape, word in (("4", "hc_rectangle", "IIII"), ("2", "mermin_square", "II")):
        code = main(["search", "--qubits", qubits, "--shape", shape, "--anchor", word])
        assert code == 2
        assert capsys.readouterr().err == f"error: '{word}' is an identity word, not a point\n"


@pytest.mark.parametrize(
    "qubits, shape", [("4", "hc_rectangle"), ("2", "mermin_square"), ("2", "ovoid_census")]
)
def test_search_empty_anchor_exits_3(qubits, shape, capsys):
    """An empty --anchor is a parse error, as an empty --point is for
    complement, not a request for the shape's default anchor."""
    code = main(["search", "--qubits", qubits, "--shape", shape, "--anchor", ""])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == "error: empty observable word in ''\n"


def test_search_bad_limit_exits_2(capsys):
    code = main(
        ["search", "--qubits", "4", "--shape", "hc_rectangle", "--limit", "0"]
    )
    assert code == 2
    assert "limit" in capsys.readouterr().err


def test_search_formats_each_distinct_context_once(monkeypatch, capsys):
    """Search results share their context objects, so the output formats
    the members of each distinct context once, not once per result."""
    formatted = []
    found = []

    def counting(obs):
        formatted.append(obs)
        return format_observable(obs)

    def recording(options):
        found.extend(find_magic_rectangles(options))
        return found

    monkeypatch.setattr(bksgeom.cli, "format_observable", counting)
    monkeypatch.setattr(bksgeom.cli, "find_magic_rectangles", recording)
    code = main(["search", "--qubits", "4", "--shape", "hc_rectangle", "--limit", "1000"])
    capsys.readouterr()
    assert code == 0 and len(found) == 1000
    distinct = {id(ctx): ctx for config in found for ctx in config.contexts}
    assert len(formatted) == sum(len(ctx.observables) for ctx in distinct.values())


# ---------------------------------------------------------------------------
# pinned output

# sha256 prefix of stdout and the exit code of each command, recorded
# before the commands moved to one output path in main.
CLI_DIGESTS = {
    "reproduce": ("5e0bab24d3e868213319", 0),
    "verify rect.txt": ("5e0bab24d3e868213319", 0),
    "verify partial.txt": ("57ea95eb888236ea3c7d", 1),
    "classify rect.txt": ("8ce9d0bc604f606f1f12", 0),
    "classify partial.txt": ("4a89bd0ce7c66bf7b6d4", 0),
    "complement rect.txt --point IXII": ("eb5797159ccff14ee58d", 0),
    "search --qubits 2 --shape mermin_square --limit 10": ("f03d887405a82a260af3", 0),
    "search --qubits 4 --shape hc_rectangle --limit 4": ("ff1c77f9e147ce77fc74", 0),
    "search --qubits 4 --shape ovoid_census --anchor IXII": ("c643a9b117ce4876bb34", 0),
    "reproduce --json": ("d02bbe062e085df90f9b", 0),
    "verify rect.txt --json": ("d02bbe062e085df90f9b", 0),
    "verify partial.txt --json": ("9b4ac5c1dc26e96f6baf", 1),
    "classify rect.txt --json": ("6b1f21b5d6c76454bf44", 0),
    "classify partial.txt --json": ("9b48b25a5647669e90ef", 0),
    "complement rect.txt --point IXII --json": ("109ff19e8398b6915ffb", 0),
    "search --qubits 2 --shape mermin_square --limit 10 --json": ("45b2f714551a07cf06a6", 0),
    "search --qubits 4 --shape hc_rectangle --limit 4 --json": ("5154cccba5522229504e", 0),
    "search --qubits 4 --shape ovoid_census --anchor IXII --json": ("e5d30fc8d87f24ebc4fe", 0),
    "verify noncommuting.txt": ("e3b0c44298fc1c149afb", 2),
    "verify badword.txt": ("e3b0c44298fc1c149afb", 3),
    "verify missing.txt": ("e3b0c44298fc1c149afb", 3),
    "complement rect.txt --point IIII": ("e3b0c44298fc1c149afb", 2),
    "complement rect.txt --point YIII": ("e3b0c44298fc1c149afb", 2),
    "search --qubits 2 --shape mermin_square --limit 50 --no-dedup": ("77782d9f365fa9ea8258", 0),
    "search --qubits 4 --shape hc_rectangle --limit 6 --no-dedup": ("641ccfdc0c14ae8bc130", 0),
    "search --qubits 2 --shape ovoid_census --limit 200": ("81ecf077c68a66ec8ec7", 0),
    "search --qubits 2 --shape ovoid_census --limit 200 --json": ("0262dff2b3b18f978514", 0),
    "search --qubits 3 --shape ovoid_census": ("e3b0c44298fc1c149afb", 2),
    "search --qubits 4 --shape hc_rectangle --anchor YYYY": ("bf8a3009fd001da7426c", 0),
    "search --qubits 4 --shape hc_rectangle --anchor XIIZ --json": ("e8703badc5d55801cead", 0),
    "search --qubits 4 --shape hc_rectangle --anchor YIII": ("e3b0c44298fc1c149afb", 2),
    "search --qubits 4 --shape hc_rectangle --limit 0": ("e3b0c44298fc1c149afb", 2),
    # Whole-geometry reports, recorded before the seed became a flag.
    "verify w32.txt": ("a69b92f252c9c07be8fe", 0),
    "verify w32.txt --json": ("f01273c216f4243af721", 0),
    "verify w52.txt": ("56c75e71133e06161f30", 0),
    "verify w52.txt --json": ("0004226acdad40916649", 0),
    # Identity-only contexts, recorded while they had no span.
    "verify identity.txt": ("42ca78493ca013b40787", 1),
    "verify identity.txt --json": ("d521add119e4d33a6e57", 1),
    "classify identity.txt --json": ("73eba04c0a5e24a17760", 0),
    "complement identity.txt --point ZIII": ("6d6e473b4804617244b4", 0),
}


@pytest.mark.parametrize("command", sorted(CLI_DIGESTS))
def test_cli_output_matches_recorded_digest(command, tmp_path, monkeypatch, capsys):
    for name, text in CONFIG_FILES.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    code = main(command.split())
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()[:20]
    assert (digest, code) == CLI_DIGESTS[command]


# ---------------------------------------------------------------------------
# fuzzing


def _commuting_context(rng, n: int) -> list:
    """Members of one context: a random isotropic basis, members from its
    span, the member that closes the product, signs and identity members."""
    basis: list = []
    for _ in range(rng.randint(1, n)):
        v = rng.randrange(1, 1 << 2 * n)
        if all(packed_form(n, v, b) == 0 for b in basis) and reduce_row(v, rref(basis)):
            basis.append(v)
    values = _span_values(basis)[1:]
    members = rng.sample(values, rng.randint(1, len(values)))
    closing = 0
    for v in members:
        closing ^= v
    if closing:
        members.append(closing)
    words = [point_word(SymplecticPoint.from_value(n, v)) for v in members]
    words += ["I" * n] * rng.choice((0, 0, 1))
    return [rng.choice(("", "", "-")) + w for w in rng.sample(words, len(words))]


def _malformed_line(defect: str, rng, n: int) -> bytes:
    """One line that makes a config file unreadable when it follows a
    member: bytes that are not UTF-8, an unknown letter, a word longer
    than MAX_QUBITS, or a name header after a member."""
    if defect == "bytes":
        return b"Z\xffZ"
    if defect == "letter":
        at = rng.randrange(n)
        return b"Z" * at + rng.choice((b"A", b"B", b"Q", b"W")) + b"I" * (n - 1 - at)
    if defect == "long":
        return b"Z" * (MAX_QUBITS + 1)
    return b"name: late"


def _file_command_runs(path, point):
    """Run every file command, in text and ``--json``, on ``path``;
    yield each exit code with what went to stdout."""
    commands = (
        ["verify", str(path)],
        ["classify", str(path)],
        ["complement", str(path), "--point", point],
    )
    for command in commands:
        for extra in ([], ["--json"]):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(command + extra)
            yield code, out.getvalue()


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 5), count=st.integers(1, 4), rng=st.randoms(use_true_random=False))
def test_cli_fuzz_exit_codes(tmp_path_factory, n, count, rng):
    """Generated files of commuting contexts get a documented exit code
    from every file command, and no exception escapes."""
    contexts = [_commuting_context(rng, n) for _ in range(count)]
    path = tmp_path_factory.mktemp("fuzz") / "config.txt"
    path.write_text("\n\n".join("\n".join(ctx) for ctx in contexts) + "\n")
    point = rng.choice([w.lstrip("-") for ctx in contexts for w in ctx])
    for code, _ in _file_command_runs(path, point):
        assert code in {0, 1, 2, 3}


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 5),
    count=st.integers(1, 4),
    rng=st.randoms(use_true_random=False),
    defect=st.sampled_from(("bytes", "letter", "long", "header")),
)
def test_cli_fuzz_malformed_line_exits_3(tmp_path_factory, n, count, rng, defect):
    """A generated file with one malformed line after a member exits 3
    from every file command, with nothing on stdout."""
    contexts = [_commuting_context(rng, n) for _ in range(count)]
    lines = [line.encode() for line in "\n\n".join("\n".join(ctx) for ctx in contexts).split("\n")]
    after = rng.choice([i for i, line in enumerate(lines) if line])
    lines.insert(after + 1, _malformed_line(defect, rng, n))
    path = tmp_path_factory.mktemp("fuzz") / "config.txt"
    path.write_bytes(b"\n".join(lines) + b"\n")
    point = rng.choice([w.lstrip("-") for ctx in contexts for w in ctx])
    for run in _file_command_runs(path, point):
        assert run == (3, "")


# ---------------------------------------------------------------------------
# process-level entry


# A child that hangs fails its test instead of stalling the suite.
SUBPROCESS_TIMEOUT = 120

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

# What pip's generated ``bksgeom`` launcher does: import the declared
# ``module:attr`` target, name the program ``bksgeom`` and exit with
# whatever the callable returns.
LAUNCHER = """\
import sys
from importlib.metadata import EntryPoint
entry = EntryPoint("bksgeom", sys.argv[1], "console_scripts").load()
sys.argv = ["bksgeom", *sys.argv[2:]]
sys.exit(entry())
"""


def _console_script_target():
    """The ``module:attr`` that ``pip install`` turns into ``bksgeom``.

    An installed distribution's metadata wins; from a source checkout
    the target is read from ``[project.scripts]`` in ``pyproject.toml``.
    """
    for entry in importlib.metadata.entry_points(
        group="console_scripts", name="bksgeom"
    ):
        return entry.value
    tomllib = pytest.importorskip("tomllib")
    with PYPROJECT.open("rb") as fh:
        return tomllib.load(fh)["project"]["scripts"]["bksgeom"]


def _assert_help(out):
    assert out.returncode == 0, out.stderr
    assert "reproduce" in out.stdout
    assert out.stdout.startswith("usage: bksgeom")


def test_module_entry_point(child_env):
    out = subprocess.run(
        [sys.executable, "-m", "bksgeom.cli", "reproduce"],
        capture_output=True,
        text=True,
        env=child_env,
        timeout=SUBPROCESS_TIMEOUT,
    )
    assert out.returncode == 0
    assert "BKS contradiction certified" in out.stdout


def test_console_script_runs(child_env):
    out = subprocess.run(
        [sys.executable, "-c", LAUNCHER, _console_script_target(), "--help"],
        capture_output=True,
        text=True,
        env=child_env,
        timeout=SUBPROCESS_TIMEOUT,
    )
    _assert_help(out)

    script = shutil.which("bksgeom")
    if script is not None:
        _assert_help(
            subprocess.run(
                [script, "--help"],
                capture_output=True,
                text=True,
                timeout=SUBPROCESS_TIMEOUT,
            )
        )
