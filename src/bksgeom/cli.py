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

Reports print as text by default; ``--json`` selects a stable JSON
schema with observables as strings.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Dict, List, Optional, Sequence, Tuple

from .classify import classify_set
from .geometry import SymplecticPoint, enumerate_points, is_totally_isotropic, span
from .magic import (
    Context,
    ContextError,
    MagicConfiguration,
    complement_config,
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

    def close_block() -> None:
        nonlocal name, members
        if members:
            blocks.append((name, members))
        elif name is not None:
            raise ParseError(f"context {name!r} has no observables")
        name = None
        members = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            close_block()
            continue
        if line.lower().startswith("name:"):
            if members:
                raise ParseError(
                    f"line {lineno}: name header must open its block"
                )
            name = line[5:].strip() or None
            continue
        try:
            members.append(parse_observable(line))
        except ParseError as exc:
            raise ParseError(f"line {lineno}: {exc}") from exc
    close_block()
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


def emit_config_text(
    config: MagicConfiguration, names: Sequence[Optional[str]]
) -> str:
    """Render a configuration in the block file format, members in
    canonical order, context sequence preserved."""
    chunks = []
    for ctx, name in zip(config.contexts, names):
        lines = []
        if name:
            lines.append(f"name: {name}")
        lines.extend(format_observable(o) for o in sorted_observables(ctx))
        chunks.append("\n".join(lines))
    return "\n\n".join(chunks) + "\n"


# ---------------------------------------------------------------------------
# reports


def _context_entry(
    ctx: Context, canonical_sign: int, name: Optional[str], include_closure: bool
) -> Dict:
    """One report entry; its sign is the kept canonical sign times the member signs."""
    pts = ctx.points()
    distinct = list(dict.fromkeys(pts))
    entry: Dict = {
        "name": name,
        "observables": [format_observable(o) for o in sorted_observables(ctx)],
        "sign": math.prod((o.sign for o in ctx.observables), start=canonical_sign),
    }
    if distinct:
        sub = span(distinct)
        entry["rank"] = sub.rank
        entry["totally_isotropic"] = is_totally_isotropic(sub)
        label = classify_set(distinct)
        entry["classification"] = label.kind
        if label.detail:
            entry["classification_detail"] = label.detail
        if include_closure:
            entry["closure_points"] = [
                point_word(p) for p in enumerate_points(sub)
            ]
    else:
        entry["rank"] = 0
        entry["totally_isotropic"] = True
        entry["classification"] = None
        if include_closure:
            entry["closure_points"] = []
    return entry


def build_report(
    config: MagicConfiguration,
    names: Sequence[Optional[str]],
    include_closure: bool = True,
) -> Tuple[Dict, int]:
    """The full verification report and its exit code."""
    report: Dict = {"qubits": config.n}
    report["contexts"] = [
        _context_entry(ctx, sign, name, include_closure)
        for ctx, sign, name in zip(config.contexts, config.canonical_signs, names)
    ]
    report["multiplicities"] = {
        point_word(p): config.multiplicities[p]
        for p in sorted(config.multiplicities, key=lambda q: q.value)
    }
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
    try:
        pivot = shared_point(config)
        report["shared_point"] = point_word(pivot)
    except ContextError:
        pivot = None
        report["shared_point"] = None
    twin_block = None
    if pivot is not None:
        try:
            twin = complement_config(config, pivot)
            twin_block = [
                {
                    "name": f"{name}'" if name else None,
                    "observables": [
                        format_observable(o) for o in sorted_observables(ctx)
                    ],
                }
                for ctx, name in zip(twin.contexts, names)
            ]
        except ContextError:
            twin_block = None
    report["twin"] = twin_block
    return report, code


_VERDICT_TEXT = {
    "contradiction": "BKS contradiction certified",
    "satisfiable": "consistent (satisfying assignment exists)",
}


def render_report(report: Dict) -> str:
    out = []
    out.append(f"qubits: {report['qubits']}")
    for entry in report["contexts"]:
        title = entry["name"] or "context"
        sign = "+1" if entry["sign"] > 0 else "-1"
        out.append(f"\n{title}: {' '.join(entry['observables'])}")
        kind = entry["classification"] or "empty"
        out.append(
            f"  sign {sign}, rank {entry['rank']}, "
            f"{'totally isotropic' if entry['totally_isotropic'] else 'not isotropic'}, "
            f"{kind}"
        )
        if entry.get("classification_detail"):
            out.append(f"  detail: {entry['classification_detail']}")
        if "closure_points" in entry and entry["closure_points"]:
            out.append(f"  closure: {' '.join(entry['closure_points'])}")
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
        for entry in report["twin"]:
            title = entry["name"] or "context"
            out.append(f"  {title}: {' '.join(entry['observables'])}")
    return "\n".join(out) + "\n"


def _print(report: Dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(report, indent=2))
    else:
        print(render_report(report), end="")


# ---------------------------------------------------------------------------
# commands


def cmd_reproduce(args: argparse.Namespace) -> int:
    config = magic_rectangle()
    report, code = build_report(config, CONTEXT_NAMES)
    _print(report, args.json)
    return code


def cmd_verify(args: argparse.Namespace) -> int:
    config, names = read_config_file(args.file)
    report, code = build_report(config, names)
    _print(report, args.json)
    return code


def cmd_classify(args: argparse.Namespace) -> int:
    config, names = read_config_file(args.file)
    entries = [
        _context_entry(ctx, sign, name, include_closure=True)
        for ctx, sign, name in zip(config.contexts, config.canonical_signs, names)
    ]
    counts: Dict[str, int] = {}
    for entry in entries:
        kind = entry["classification"] or "empty"
        counts[kind] = counts.get(kind, 0) + 1
    summary = ", ".join(f"{kind} x{c}" for kind, c in sorted(counts.items()))
    report = {"qubits": config.n, "contexts": entries, "summary": summary}
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        for entry in entries:
            title = entry["name"] or "context"
            kind = entry["classification"] or "empty"
            print(f"{title}: {' '.join(entry['observables'])}")
            print(
                f"  {kind}, rank {entry['rank']}, "
                f"{'totally isotropic' if entry['totally_isotropic'] else 'not isotropic'}"
            )
            if entry.get("classification_detail"):
                print(f"  detail: {entry['classification_detail']}")
            if entry["closure_points"]:
                print(f"  closure: {' '.join(entry['closure_points'])}")
        print(f"summary: {summary}")
    return 0


def _parse_anchor(word: str) -> SymplecticPoint:
    obs = parse_observable(word)
    if obs.is_identity:
        raise ContextError(f"{word!r} is an identity word, not a point")
    return to_symplectic(obs)


def cmd_complement(args: argparse.Namespace) -> int:
    config, names = read_config_file(args.file)
    pivot = _parse_anchor(args.point)
    twin = complement_config(config, pivot)
    if args.json:
        block = {
            "point": point_word(pivot),
            "contexts": [
                {
                    "name": name,
                    "observables": [
                        format_observable(o) for o in sorted_observables(ctx)
                    ],
                }
                for ctx, name in zip(twin.contexts, names)
            ],
        }
        print(json.dumps(block, indent=2))
    else:
        print(f"# complement through {point_word(pivot)}")
        print(emit_config_text(twin, names), end="")
    return 0


def _search_options(args: argparse.Namespace) -> SearchOptions:
    anchor = _parse_anchor(args.anchor) if args.anchor else None
    seed = None
    if args.shape == "hc_rectangle":
        if anchor is None:
            anchor = anchor_point()
        # The built-in configuration seeds the walk at its own
        # perspectivity point so the known pair is always found first.
        if anchor == anchor_point():
            seed = magic_rectangle()
    return SearchOptions(
        qubit_count=args.qubits,
        anchor_point=anchor,
        shape=args.shape,
        limit=args.limit,
        dedup=not args.no_dedup,
        seed=seed,
    )


def cmd_search(args: argparse.Namespace) -> int:
    options = _search_options(args)
    if options.shape == "ovoid_census":
        census = cap_census(options)
        block = {
            "shape": options.shape,
            "qubits": options.qubit_count,
            "anchor": point_word(options.anchor_point)
            if options.anchor_point
            else None,
            "ambients": [
                {
                    "basis": [
                        point_word(SymplecticPoint.from_value(sub.n, row))
                        for row in sub.rows
                    ],
                    "count": len(caps),
                    "caps": [
                        [point_word(p) for p in cap]
                        for cap in caps[: options.limit]
                    ],
                }
                for sub, caps in census
            ],
        }
        if args.json:
            print(json.dumps(block, indent=2))
        else:
            for amb in block["ambients"]:
                print(f"ambient {' '.join(amb['basis'])}: {amb['count']} caps")
                for cap in amb["caps"]:
                    print(f"  {' '.join(cap)}")
        return 0
    if options.shape == "mermin_square":
        results = find_mermin_squares(options)
    else:
        results = find_magic_rectangles(options)
    block = {
        "shape": options.shape,
        "qubits": options.qubit_count,
        "anchor": point_word(options.anchor_point)
        if options.anchor_point
        else None,
        "limit": options.limit,
        "count": len(results),
        "results": [
            {
                "contexts": [
                    {
                        "observables": [
                            format_observable(o)
                            for o in sorted_observables(ctx)
                        ]
                    }
                    for ctx in config.contexts
                ]
            }
            for config in results
        ],
    }
    if args.json:
        print(json.dumps(block, indent=2))
    else:
        print(
            f"{block['count']} result(s) for shape {options.shape} "
            f"at {options.qubit_count} qubits"
        )
        for idx, result in enumerate(block["results"], start=1):
            print(f"\nresult {idx}:")
            for ctx in result["contexts"]:
                print(f"  {' '.join(ctx['observables'])}")
    return 0


# ---------------------------------------------------------------------------
# entry points


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bksgeom",
        description="Verify, classify, and search magic Pauli configurations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reproduce", help="emit the built-in rectangle analysis")
    p.add_argument("--json", action="store_true", help="JSON output")
    p.set_defaults(handler=cmd_reproduce)

    p = sub.add_parser("verify", help="certify a configuration file")
    p.add_argument("file")
    p.add_argument("--json", action="store_true", help="JSON output")
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("classify", help="classify each context's point set")
    p.add_argument("file")
    p.add_argument("--json", action="store_true", help="JSON output")
    p.set_defaults(handler=cmd_classify)

    p = sub.add_parser("complement", help="emit the twin through a point")
    p.add_argument("file")
    p.add_argument("--point", required=True, metavar="WORD")
    p.add_argument("--json", action="store_true", help="JSON output")
    p.set_defaults(handler=cmd_complement)

    p = sub.add_parser("search", help="search for magic configurations")
    p.add_argument("--qubits", type=int, required=True)
    p.add_argument(
        "--shape",
        required=True,
        choices=("mermin_square", "hc_rectangle", "ovoid_census"),
    )
    p.add_argument("--anchor", metavar="WORD", default=None)
    p.add_argument("--limit", type=int, default=4, metavar="K")
    p.add_argument("--no-dedup", action="store_true", help="raw result stream")
    p.add_argument("--json", action="store_true", help="JSON output")
    p.set_defaults(handler=cmd_search)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ParseError, OSError, UnicodeDecodeError) as exc:
        # UnicodeDecodeError is a ValueError, so it must be caught before
        # the exit-2 handler below: a file that is not UTF-8 is an I/O error.
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main_entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    main_entry()
