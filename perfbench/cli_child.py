"""Run one bksgeom CLI command with spans recorded, for the traced cli_cold pass.

    python3 perfbench/cli_child.py STATS_JSON ARG...

Stdout and the exit code are the command's own; the span statistics go
to STATS_JSON.  ``import`` is the span around importing the CLI module.
"""

import json
import sys

from tracing import Tracer


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()

    def load():
        import bksgeom.cli

        return bksgeom.cli

    cli = tracer.span("import.bksgeom", load)
    tracer.install()
    try:
        code = tracer.span("cli.main", cli.main, argv)
    finally:
        tracer.uninstall()
    sys.stdout.flush()
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump({"stats": tracer.stats, "absent": tracer.absent}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
