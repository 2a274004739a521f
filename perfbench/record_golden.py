"""Record golden.json: what the benchmarked commands and searches output.

Run from the root of a checkout, at the commit whose outputs are the
reference (two worker processes, about a minute):

    python3 perfbench/record_golden.py

For every cli_cold command it stores the exit code and a digest of
stdout; for every rect_search anchor and both limits it
stores a digest of the result list, or the error the call raised.
"""

import json
import multiprocessing
import sys
import tempfile
from pathlib import Path

import inputs
import oracle
import run


def anchor_outcomes(anchor: str) -> tuple[str, dict[str, str]]:
    sys.path.insert(0, str(run.SRC))
    import bksgeom
    import bksgeom.search as search

    point = bksgeom.to_symplectic(bksgeom.parse_observable(anchor))
    out = {}
    for limit in (4, run.WARM_LIMIT):
        outcome = run.rect_outcome(run.rect_call(search, point, limit))
        out[str(limit)] = outcome if isinstance(outcome, str) else oracle.digest(outcome)
    return anchor, out


def main() -> int:
    cli = {}
    with tempfile.TemporaryDirectory(prefix=".work-", dir=run.HERE) as tmp:
        work = Path(tmp)
        (work / "rectangle.txt").write_text(inputs.rectangle_file_text())
        for argv in inputs.LIGHT_COMMANDS + inputs.RECT_COMMANDS:
            runs = [run.run_command(argv, work)[1:3] for _ in range(2)]
            if runs[0] != runs[1]:
                raise SystemExit(f"{' '.join(argv)}: output differs between two runs")
            code, stdout = runs[0]
            cli[" ".join(argv)] = {"exit": code, "stdout": oracle.digest(stdout)}
    anchors = [w for pool in inputs.anchor_pools() for w in pool]
    with multiprocessing.get_context("spawn").Pool(2) as pool:
        rect = dict(pool.map(anchor_outcomes, anchors, chunksize=4))
    golden = {"commit": run.git_commit(), "cli_cold": cli, "rect_search": dict(sorted(rect.items()))}
    (run.HERE / "golden.json").write_text(json.dumps(golden, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
