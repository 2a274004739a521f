"""Command line front end.

Commands:

* ``reproduce``: emit the built-in four-qubit rectangle analysis (the
  contexts, their ambient-space listings, the six intersection lines,
  the shared point, the twin, and the contradiction certificate).
* ``verify FILE``: certify a configuration file.
* ``classify FILE``: classify each context's point set.
* ``complement FILE --point WORD``: emit the twin configuration file.
* ``search --qubits N --shape ...``: run a shape search.

Exit codes: 0 contradiction certified (or plain success), 1 consistent
configuration, 2 structural error, 3 I/O or parse error.

Configuration files hold one context per block, one observable word per
line, blocks separated by blank lines.  '#' starts a comment and an
optional ``name:`` line opens a block:

    # the first context
    name: S1
    ZIII
    IXII
    ...

Each command builds one JSON-ready block and returns it with its text
renderer and exit code; ``main`` prints the block once, as text by
default or under ``--json`` as a stable JSON schema with observables as
strings.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .classify import classify_set
from .geometry import Subspace, SymplecticPoint, enumerate_points
from .magic import (
    Context,
    ContextError,
    MagicConfiguration,
    complement_config,
    context_sign,
    intersection_lines,
    parity_witness,
    shared_point,
    sorted_observables,
)
from .pauli import (
    ParseError,
    PauliObservable,
    format_observable,
    parse_observable,
    point_word,
    to_symplectic,
)
from .rectangle import CONTEXT_NAMES, anchor_point, magic_rectangle
from .search import (
    SHAPES,
    SearchOptions,
    cap_census,
    find_magic_rectangles,
    find_mermin_squares,
)

# ---------------------------------------------------------------------------
# configuration files


def parse_config_text(text: str) -> List[Tuple[Optional[str], List[PauliObservable]]]:
    """Parse the block format into (name, observables) pairs.

    Raises ParseError with a line number on malformed input, including
    files with no contexts at all.
    """
    blocks: List[Tuple[Optional[str], List[PauliObservable]]] = []
    name: Optional[str] = None
    members: List[PauliObservable] = []
    # The end of the text closes the last block like a blank line.
    for lineno, raw in enumerate(text.splitlines() + [""], start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            if members:
                blocks.append((name, members))
            elif name is not None:
                raise ParseError(f"context {name!r} has no observables")
            name, members = None, []
            continue
        if line.lower().startswith("name:"):
            if members:
                raise ParseError(
                    f"line {lineno}: name header must open its block"
                )
            if name is not None:
                raise ParseError(f"line {lineno}: context {name!r} has no observables")
            name = line[5:].strip() or None
            continue
        try:
            members.append(parse_observable(line))
        except ParseError as exc:
            raise ParseError(f"line {lineno}: {exc}") from exc
    if not blocks:
        raise ParseError("no contexts in file")
    return blocks


def read_config_file(
    path: str,
) -> Tuple[MagicConfiguration, List[Optional[str]]]:
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    blocks = parse_config_text(text)
    names = [name for name, _ in blocks]
    config = MagicConfiguration(
        tuple(Context(tuple(members)) for _, members in blocks)
    )
    return config, names


def _words(ctx: Context) -> List[str]:
    """The members of a context as words, in canonical order."""
    return [format_observable(o) for o in sorted_observables(ctx)]


def _named_contexts(
    contexts: Sequence[Context], names: Sequence[Optional[str]]
) -> List[Dict]:
    """One ``name``/``observables`` entry per context."""
    return [
        {"name": name, "observables": _words(ctx)}
        for ctx, name in zip(contexts, names)
    ]


def _block_text(entries: Sequence[Dict]) -> str:
    """Named contexts in the block file format."""
    chunks = []
    for entry in entries:
        header = [f"name: {entry['name']}"] if entry["name"] else []
        chunks.append("\n".join(header + entry["observables"]))
    return "\n\n".join(chunks) + "\n"


def emit_config_text(
    config: MagicConfiguration, names: Sequence[Optional[str]]
) -> str:
    """Render a configuration in the block file format, members in
    canonical order, context sequence preserved."""
    return _block_text(_named_contexts(config.contexts, names))


# ---------------------------------------------------------------------------
# reports


def _context_entry(ctx: Context, name: Optional[str], sub: Subspace) -> Dict:
    """One report entry: the context's words, sign and geometry; sub is
    its span.  An identity-only context spans the zero subspace (rank 0,
    no closure point) and has no classification."""
    entry: Dict = {
        "name": name,
        "observables": _words(ctx),
        "sign": context_sign(ctx),
        "rank": sub.rank,
        # validate_context accepted the context, so its members commute pairwise
        # and their span (the zero subspace included) is totally isotropic.
        "totally_isotropic": True,
        "classification": None,
    }
    if points := list(dict.fromkeys(ctx.points())):
        label = classify_set(points)
        entry["classification"] = label.kind
        if label.detail:
            entry["classification_detail"] = label.detail
    entry["closure_points"] = [point_word(p) for p in enumerate_points(sub)]
    return entry


def build_report(
    config: MagicConfiguration, names: Sequence[Optional[str]]
) -> Tuple[Dict, int]:
    """The full verification report and its exit code."""
    report: Dict = {"qubits": config.n}
    report["contexts"] = list(map(_context_entry, config.contexts, names, config.context_spans()))
    report["multiplicities"] = {point_word(p): config.multiplicities[p] for p in config.universe}
    cert = parity_witness(config)
    report["sign_product"] = cert.sign_product
    report["all_multiplicities_even"] = cert.all_multiplicities_even
    report["parity_certified"] = cert.certified
    if cert.nchv_assignment_exists:
        verdict, code = "satisfiable", 1
    else:
        verdict, code = "contradiction", 0
    report["verdict"] = verdict
    report["witness"] = (
        None
        if cert.witness is None
        else {point_word(p): v for p, v in cert.witness}
    )
    lines = []
    for (i, j), sub in sorted(intersection_lines(config).items()):
        if sub.rank == 2:
            lines.append(
                {
                    "contexts": [i, j],
                    "points": [point_word(p) for p in enumerate_points(sub)],
                }
            )
    report["lines"] = lines
    report["shared_point"] = report["twin"] = None
    try:
        pivot = shared_point(config)
        report["shared_point"] = point_word(pivot)
        twin = complement_config(config, pivot)
        twin_names = [f"{name}'" if name else None for name in names]
        report["twin"] = _named_contexts(twin.contexts, twin_names)
    except ContextError:
        pass
    return report, code


_VERDICT_TEXT = {
    "contradiction": "BKS contradiction certified",
    "satisfiable": "consistent (satisfying assignment exists)",
}


def _title(entry: Dict) -> str:
    """An entry's name (or "context") and its words."""
    return f"{entry['name'] or 'context'}: {' '.join(entry['observables'])}"


def _entry_lines(entry: Dict, facts: str) -> List[str]:
    """A context entry as text: its words, the facts line, its detail
    and its closure."""
    out = [_title(entry), f"  {facts}"]
    if entry.get("classification_detail"):
        out.append(f"  detail: {entry['classification_detail']}")
    if entry["closure_points"]:
        out.append(f"  closure: {' '.join(entry['closure_points'])}")
    return out


def render_report(report: Dict) -> str:
    out = []
    out.append(f"qubits: {report['qubits']}")
    for entry in report["contexts"]:
        sign = "+1" if entry["sign"] > 0 else "-1"
        kind = entry["classification"] or "empty"
        facts = f"sign {sign}, rank {entry['rank']}, totally isotropic, {kind}"
        out.extend(["", *_entry_lines(entry, facts)])
    out.append("\nmultiplicities:")
    for word, count in report["multiplicities"].items():
        out.append(f"  {word}: {count}")
    sign = "+1" if report["sign_product"] > 0 else "-1"
    out.append(f"sign product: {sign}")
    out.append(f"all multiplicities even: {report['all_multiplicities_even']}")
    out.append(f"verdict: {_VERDICT_TEXT[report['verdict']]}")
    if report["witness"] is not None:
        out.append("witness:")
        for word, value in report["witness"].items():
            out.append(f"  {word} -> {'+1' if value > 0 else '-1'}")
    if report["lines"]:
        out.append("\nintersection lines:")
        for line in report["lines"]:
            i, j = line["contexts"]
            out.append(f"  contexts ({i + 1}, {j + 1}): {' '.join(line['points'])}")
    out.append(f"shared point: {report['shared_point'] or 'none'}")
    if report["twin"]:
        out.append("\ntwin:")
        out.extend(f"  {_title(entry)}" for entry in report["twin"])
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# commands: each returns (block, render, exit code); main prints the block
# as JSON under --json and as render(block) otherwise.

Outcome = Tuple[Dict, Callable[[Dict], str], int]


def cmd_report(args: argparse.Namespace) -> Outcome:
    """``reproduce`` (the built-in rectangle) and ``verify FILE``."""
    if args.command == "reproduce":
        config, names = magic_rectangle(), CONTEXT_NAMES
    else:
        config, names = read_config_file(args.file)
    report, code = build_report(config, names)
    return report, render_report, code


def _render_classify(block: Dict) -> str:
    out = []
    for entry in block["contexts"]:
        kind = entry["classification"] or "empty"
        out.extend(_entry_lines(entry, f"{kind}, rank {entry['rank']}, totally isotropic"))
    out.append(f"summary: {block['summary']}")
    return "\n".join(out) + "\n"


def cmd_classify(args: argparse.Namespace) -> Outcome:
    config, names = read_config_file(args.file)
    entries = list(map(_context_entry, config.contexts, names, config.context_spans()))
    counts = Counter(entry["classification"] or "empty" for entry in entries)
    summary = ", ".join(f"{kind} x{c}" for kind, c in sorted(counts.items()))
    block = {"qubits": config.n, "contexts": entries, "summary": summary}
    return block, _render_classify, 0


def _parse_anchor(word: str) -> SymplecticPoint:
    obs = parse_observable(word)
    if obs.is_identity:
        raise ContextError(f"{word!r} is an identity word, not a point")
    return to_symplectic(obs)


def _render_complement(block: Dict) -> str:
    return f"# complement through {block['point']}\n" + _block_text(block["contexts"])


def cmd_complement(args: argparse.Namespace) -> Outcome:
    config, names = read_config_file(args.file)
    pivot = _parse_anchor(args.point)
    twin = complement_config(config, pivot)
    block = {
        "point": point_word(pivot),
        "contexts": _named_contexts(twin.contexts, names),
    }
    return block, _render_complement, 0


def _search_options(args: argparse.Namespace) -> SearchOptions:
    """The options as given; a search applies its own default anchor and
    decides where the seed acts."""
    return SearchOptions(
        qubit_count=args.qubits,
        anchor_point=None if args.anchor is None else _parse_anchor(args.anchor),
        shape=args.shape,
        limit=args.limit,
        dedup=not args.no_dedup,
        seed=True,
    )


def _render_census(block: Dict) -> str:
    out = []
    for amb in block["ambients"]:
        out.append(f"ambient {' '.join(amb['basis'])}: {amb['count']} caps")
        out.extend(f"  {' '.join(cap)}" for cap in amb["caps"])
    return "".join(line + "\n" for line in out)


def _render_results(block: Dict) -> str:
    out = [
        f"{block['count']} result(s) for shape {block['shape']} "
        f"at {block['qubits']} qubits"
    ]
    for idx, result in enumerate(block["results"], start=1):
        out.append(f"\nresult {idx}:")
        out.extend(f"  {' '.join(ctx['observables'])}" for ctx in result["contexts"])
    return "\n".join(out) + "\n"


def cmd_search(args: argparse.Namespace) -> Outcome:
    options = _search_options(args)
    # Rectangle search defaults to the anchor IXII; the others to no filter.
    anchor = options.anchor_point or (anchor_point() if options.shape == "hc_rectangle" else None)
    head = {
        "shape": options.shape,
        "qubits": options.qubit_count,
        "anchor": point_word(anchor) if anchor else None,
    }
    if options.shape == "ovoid_census":
        ambients = [
            {
                "basis": [
                    point_word(SymplecticPoint.from_value(sub.n, row))
                    for row in sub.rows
                ],
                "count": len(caps),
                "caps": [
                    [point_word(p) for p in cap] for cap in caps[: options.limit]
                ],
            }
            for sub, caps in cap_census(options)
        ]
        return {**head, "ambients": ambients}, _render_census, 0
    if options.shape == "mermin_square":
        results = find_mermin_squares(options)
    else:
        results = find_magic_rectangles(options)
    # Results share their context objects, so each distinct one is
    # rendered once and its entry shared.
    distinct = {id(ctx): ctx for config in results for ctx in config.contexts}
    entries = {key: {"observables": _words(ctx)} for key, ctx in distinct.items()}
    block = {
        **head,
        "limit": options.limit,
        "count": len(results),
        "results": [
            {"contexts": [entries[id(ctx)] for ctx in config.contexts]}
            for config in results
        ],
    }
    return block, _render_results, 0


# ---------------------------------------------------------------------------
# entry points


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bksgeom",
        description="Verify, classify, and search magic Pauli configurations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reproduce", help="emit the built-in rectangle analysis")
    p.set_defaults(handler=cmd_report)

    p = sub.add_parser("verify", help="certify a configuration file")
    p.add_argument("file")
    p.set_defaults(handler=cmd_report)

    p = sub.add_parser("classify", help="classify each context's point set")
    p.add_argument("file")
    p.set_defaults(handler=cmd_classify)

    p = sub.add_parser("complement", help="emit the twin through a point")
    p.add_argument("file")
    p.add_argument("--point", required=True, metavar="WORD")
    p.set_defaults(handler=cmd_complement)

    p = sub.add_parser("search", help="search for magic configurations")
    p.add_argument("--qubits", type=int, required=True)
    p.add_argument("--shape", required=True, choices=SHAPES)
    p.add_argument("--anchor", metavar="WORD", default=None)
    p.add_argument("--limit", type=int, default=4, metavar="K")
    p.add_argument("--no-dedup", action="store_true", help="raw result stream")
    p.set_defaults(handler=cmd_search)

    for p in sub.choices.values():
        p.add_argument("--json", action="store_true", help="JSON output")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        block, render, code = args.handler(args)
    except (ParseError, OSError, UnicodeDecodeError) as exc:
        # UnicodeDecodeError is a ValueError, so it must be caught before
        # the exit-2 handler below: a file that is not UTF-8 is an I/O error.
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    text = json.dumps(block, indent=2) + "\n" if args.json else render(block)
    print(text, end="")
    return code


def main_entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    main_entry()
