"""End-to-end benchmark of bksgeom: certify, rect_search and cli_cold.

Run from the root of a checkout (the program is imported from ``src``):

    python3 perfbench/run.py --workload certify --seed 1 --seconds 30 --trace 0

``--workload all`` runs every workload in this one process, one after
the other (``peak_rss_mb`` of the in-process workloads is then the
process's peak so far).  Every workload is closed-loop with one client
and runs whole chunks of work (a certify batch, a cycle of search
anchors, a round of CLI commands) until ``--seconds`` have passed.
Every output is checked by ``oracle`` (which shares no code with
bksgeom) or against the golden digests in ``golden.json``.  The last
line of stdout is one JSON object with keys correct, attempted, failed
and metrics; the line before it holds the environment and the
workload's inputs.

End-to-end metrics (``--trace 0``).  Every workload reports the same
names; what the three timings measure depends on the workload:

==============  ==========================  ===========================  ==========================
metric          certify                     rect_search                  cli_cold
==============  ==========================  ===========================  ==========================
``p50_ms``      median certification        median cold ``limit=4``      one round of the light
                (certify_p50_ms)            call (first_results)         commands (cli_light)
``slow_ms``     99th percentile             median warm call at          median ``hc_rectangle
                certification               ``limit=1000``               --limit 4`` (cli_rect)
                (certify_p99_ms)
``per_s``       certifications per second   results per second in        commands per second
                (certify_per_s)             warm calls (results_per_s)
==============  ==========================  ===========================  ==========================

plus ``setup_s`` (median fresh-interpreter ``import bksgeom``, sampled
across the run), ``peak_rss_mb`` and ``ok_share`` = 1 - failed_share,
the share of operations that succeeded with a correct output.  Timings
are of successful operations, scaled to a reference host speed (see
``Pass``).  A standing failure of the program (an ``undetermined``
verdict above the 30-point scan limit, the structural error at odd-Y
rectangle anchors) counts as failed but leaves ``correct`` true; a
wrong output makes ``correct`` false.

Per-layer metrics (``--trace 1``) come from a traced pass that repeats
the operations of an untraced pass with ``tracing.Tracer`` installed;
they are per operation of the workload.  ``trace.overhead_share`` is the
traced pass's extra wall time over the untraced one, and
``trace.accounted_share`` the span self times summed over that
untraced wall time (1 + overhead when the spans cover every operation).
"""

from __future__ import annotations

import argparse
import bisect
import importlib.metadata
import itertools
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import inputs
import oracle
from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORKLOADS = ("certify", "rect_search", "cli_cold")
WARM_LIMIT = 1000
SETUP_REPEATS = 7
PROBE_LOOPS = 20000
PROBE_EVERY_S = 0.1
# The probe's time on a 2-core x86-64 host running Python 3.11 at full speed.
PROBE_REFERENCE_S = 1.6e-3
CHILD_TIMEOUT_S = 120
VERDICT_TEXT = {
    "contradiction": "BKS contradiction certified",
    "satisfiable": "consistent (satisfying assignment exists)",
}
# The console script's body, then the process's own peak resident set
# (VmHWM counts only this program's memory, unlike ru_maxrss, which
# exec carries over from the process that spawned it).
CLI_BOOT = """import sys
from bksgeom.cli import main
code = main()
sys.stdout.flush()
with open("/proc/self/status") as status:
    print(*[line for line in status if line.startswith("VmHWM:")], end="", file=sys.stderr)
sys.exit(code)
"""


class Tally:
    """Attempted and failed operations; wrong outputs make the run incorrect."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.standing = 0
        self.wrong: list[str] = []

    def record(self, error: str | None, standing: bool = False) -> None:
        self.attempted += 1
        if error is None:
            return
        self.failed += 1
        if standing:
            self.standing += 1
        else:
            self.wrong.append(error)

    @property
    def correct(self) -> bool:
        return not self.wrong


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


# ---------------------------------------------------------------------------
# set-up and environment


def fresh_import_s() -> float:
    """Wall time of a fresh interpreter running ``import bksgeom``."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import bksgeom"], env=child_env(), check=True, timeout=CHILD_TIMEOUT_S)
    return time.perf_counter() - start


def import_times_ms(repeats: int = 3) -> dict[str, float]:
    """Cumulative import time of bksgeom and numpy from ``-X importtime``."""
    samples: dict[str, list[float]] = {"bksgeom": [], "numpy": []}
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import bksgeom"],
            env=child_env(), capture_output=True, text=True, check=True,
            timeout=CHILD_TIMEOUT_S,
        )
        found = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in samples:
                found.setdefault(parts[2].strip(), int(parts[1]) / 1000)
        for name in samples:
            samples[name].append(found.get(name, 0.0))
    return {name: statistics.median(v) for name, v in samples.items()}


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def version(package: str) -> str | None:
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return None


def environment() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "numba": version("numba"),
        "numba_present": importlib.util.find_spec("numba") is not None,
        "BKSGEOM_DISABLE_NUMBA": os.environ.get("BKSGEOM_DISABLE_NUMBA"),
        "git_commit": git_commit(),
    }


# ---------------------------------------------------------------------------
# certify


def certify_op(cli, magic, text: str):
    """The verify path on one configuration text: parse, build, report, render."""
    blocks = cli.parse_config_text(text)
    config = magic.MagicConfiguration(tuple(magic.Context(tuple(m)) for _, m in blocks))
    report, code = cli.build_report(config, [name for name, _ in blocks])
    return report, code, cli.render_report(report)


def check_certify(item: inputs.CertifyItem, outcome) -> tuple[str | None, bool]:
    """(error, standing) for one certification outcome."""
    if isinstance(outcome, Exception):
        return f"{item.group}: {type(outcome).__name__}: {outcome}", False
    report, code, text = outcome
    verdict = report.get("verdict")
    if verdict == "undetermined":
        return f"undetermined at {item.universe} points", item.universe > inputs.SCAN_LIMIT
    expected = "satisfiable" if item.sat else "contradiction"
    if verdict != expected:
        return f"{item.group}: verdict {verdict}, oracle says {expected}", False
    if code != (1 if item.sat else 0):
        return f"{item.group}: exit code {code} for {verdict}", False
    witness = report.get("witness")
    if item.sat and not (witness and oracle.witness_ok(item.n, item.contexts, witness)):
        return f"{item.group}: witness violates a context constraint", False
    if not item.sat and witness is not None:
        return f"{item.group}: witness given for a contradiction", False
    if f"verdict: {VERDICT_TEXT[verdict]}\n" not in text:
        return f"{item.group}: rendered report lacks the verdict", False
    return None, False


# ---------------------------------------------------------------------------
# rect_search


def result_words(results) -> list[list[list[str]]]:
    return [
        [[oracle.word_of(o.n, (o.x << o.n) | o.z, o.sign) for o in ctx.observables] for ctx in cfg.contexts]
        for cfg in results
    ]


def rect_call(search, point, limit: int):
    """One rectangle search; returns the results or the exception raised."""
    options = search.SearchOptions(qubit_count=inputs.RECT_QUBITS, anchor_point=point, shape="hc_rectangle", limit=limit)
    try:
        return search.find_magic_rectangles(options)
    except Exception as exc:  # a failing call is a failed operation, not a crashed run
        return exc


def rect_outcome(results) -> list | str:
    """Result words of a search call, or the error text it raised."""
    if isinstance(results, Exception):
        return f"error: {type(results).__name__}: {results}"
    return result_words(results)


def check_rect(anchor: str, limit: int, outcome, golden: dict) -> tuple[str | None, bool]:
    """(error, standing) for one search call.

    A failure is standing when the seed commit gave the same output,
    recorded in golden.json as the error text or the result digest.
    """
    expected = golden.get(anchor, {}).get(str(limit))
    if isinstance(outcome, str):
        return f"{anchor} limit {limit}: {outcome}", outcome == expected
    error = rect_list_error(anchor, limit, outcome)
    same = oracle.digest(outcome) == expected
    if error is None and not same and expected is not None and not expected.startswith("error:"):
        error = f"{anchor} limit {limit}: results differ from the golden list"
    return error, error is not None and same


def signed_points(outcome) -> list[list[list[tuple[int, int]]]]:
    """Result words as contexts of (point, sign)."""
    out = []
    for cfg in outcome:
        contexts = []
        for ctx in cfg:
            members = []
            for word in ctx:
                n, sign, x, z = oracle.parse_word(word)
                members.append(((x << n) | z, sign))
            contexts.append(members)
        out.append(contexts)
    return out


def rect_list_error(anchor: str, limit: int, outcome) -> str | None:
    anchor_value = oracle.point_of(anchor)
    signed = signed_points(outcome)
    if len(signed) != limit:
        return f"{anchor} limit {limit}: {len(signed)} results"
    for cfg in signed:
        error = oracle.rectangle_error(inputs.RECT_QUBITS, anchor_value, [[v for v, _ in c] for c in cfg])
        if error:
            return f"{anchor}: {error}"
    error = oracle.result_list_error(inputs.RECT_QUBITS, anchor_value, signed)
    return f"{anchor} limit {limit}: {error}" if error else None


# ---------------------------------------------------------------------------
# passes: each runs whole chunks (a certify batch, an anchor cycle, a CLI
# round) and records every operation in a Pass


class Pass:
    """Operations of one pass as (kind, start, seconds, succeeded, work done),
    and probes of the host's speed taken between them.

    On a shared 2-core x86-64 virtual machine the speed alternates between
    full and stretches of seconds to minutes in which all code runs up to
    40% slower (other tenants), which moved run medians by up to 27%
    between otherwise identical runs.  So every operation's time
    is scaled by PROBE_REFERENCE_S over the time of a fixed pure-Python
    loop (the probe), averaged over the probes taken just before and just
    after the operation: the metrics are times at the host speed at which
    the probe takes PROBE_REFERENCE_S.  ``host_slowdown`` in the workload
    line is the run's median probe time over that reference.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[str, float, float, bool, int]] = []
        self.probes: list[tuple[float, float]] = []
        self.results = 0
        self.sign_variants = 0
        self.peak_rss_mb = 0.0
        self.outcomes: list = []

    def probe(self, every: float = PROBE_EVERY_S) -> None:
        """Time the probe loop, unless one ran less than ``every`` seconds ago."""
        start = time.perf_counter()
        if self.probes and start - self.probes[-1][0] < every:
            return
        acc = 0
        for i in range(PROBE_LOOPS):
            acc += i * i
        self.probes.append((start, time.perf_counter() - start))

    def add(self, kind: str, start: float, seconds: float, ok: bool, work: int = 1) -> None:
        self.samples.append((kind, start, seconds, ok, work))

    def scales(self) -> list[float]:
        starts = [t for t, _ in self.probes]
        durations = [d for _, d in self.probes]
        scales = []
        for _, start, seconds, _, _ in self.samples:
            before = durations[max(bisect.bisect_right(starts, start) - 1, 0)]
            after = durations[min(bisect.bisect_left(starts, start + seconds), len(starts) - 1)]
            scales.append(2 * PROBE_REFERENCE_S / (before + after))
        return scales

    def picked(self, *kinds: str) -> list[tuple[float, int]]:
        """Scaled (seconds, work) of the successful operations of the given
        kinds (default: every kind but set-up); of all of them when none
        succeeded, so that a broken run still reports."""
        rows = [
            (seconds * scale, work, ok)
            for (kind, _, seconds, ok, work), scale in zip(self.samples, self.scales())
            if (kind in kinds if kinds else kind != "setup")
        ]
        return [(t, w) for t, w, ok in rows if ok] or [(t, w) for t, w, _ in rows]

    def seconds(self, *kinds: str) -> list[float]:
        return [t for t, _ in self.picked(*kinds)]

    def rate(self, *kinds: str) -> float:
        """Work done per (scaled) second of the picked operations' own time."""
        rows = self.picked(*kinds)
        return sum(w for _, w in rows) / sum(t for t, _ in rows)

    def host_slowdown(self) -> float:
        return statistics.median(d for _, d in self.probes) / PROBE_REFERENCE_S


def timed(seconds: float, chunks, run, out: Pass, setup: bool = False) -> list:
    """Run whole chunks until ``seconds`` of measuring have passed; returns them.

    With ``setup``, a fresh-interpreter import is timed between chunks
    every seconds / SETUP_REPEATS, so that the set-up samples spread over
    the run like the operations do; that time does not count against
    ``seconds``.
    """
    def sample_setup() -> None:
        out.probe()
        out.add("setup", time.perf_counter(), fresh_import_s(), True)

    done = []
    taken = 0
    start = time.perf_counter()
    paused = 0.0
    while True:
        now = time.perf_counter()
        elapsed = now - start - paused
        if setup and taken < SETUP_REPEATS and elapsed >= taken * seconds / SETUP_REPEATS:
            sample_setup()
            taken += 1
            paused += time.perf_counter() - now
            continue
        chunk = next(chunks, None) if elapsed < seconds else None
        if chunk is None:
            break
        run([chunk])
        done.append(chunk)
    for _ in range(taken, SETUP_REPEATS if setup else 0):
        sample_setup()
    out.probe(every=0)
    return done


def call(tracer: Tracer | None, fn, *args):
    return fn(*args) if tracer is None else tracer.span("bench.op", fn, *args)


def run_certify(batches, tally: Tally, out: Pass, tracer: Tracer | None = None) -> None:
    import bksgeom.cli as cli
    import bksgeom.magic as magic

    for batch in batches:
        for item in batch:
            out.probe()
            start = time.perf_counter()
            try:
                outcome = call(tracer, certify_op, cli, magic, item.text)
            except Exception as exc:  # a crash is a failed operation, not a crashed run
                outcome = exc
            elapsed = time.perf_counter() - start
            error, standing = check_certify(item, outcome)
            tally.record(error, standing)
            out.add("op", start, elapsed, error is None)
            if error is None and item.sat and not out.outcomes:
                out.outcomes.append((item, outcome))


def run_rect(cycles, tally: Tally, out: Pass, golden: dict, tracer: Tracer | None = None) -> None:
    """A cold limit=4 call, then a warm limit=WARM_LIMIT call, at each anchor."""
    import bksgeom
    import bksgeom.search as search

    for cycle in cycles:
        for anchor in cycle:
            point = bksgeom.to_symplectic(bksgeom.parse_observable(anchor))
            for kind, limit in (("cold", 4), ("warm", WARM_LIMIT)):
                out.probe()
                start = time.perf_counter()
                results = call(tracer, rect_call, search, point, limit)
                elapsed = time.perf_counter() - start
                outcome = rect_outcome(results)
                error, standing = check_rect(anchor, limit, outcome, golden)
                tally.record(error, standing)
                work = len(outcome) if error is None else 0
                out.add(kind, start, elapsed, error is None, work)
                if error is None and kind == "warm":
                    out.results += work
                    out.sign_variants += oracle.sign_variants(signed_points(outcome))
                if error is None and not out.outcomes:
                    out.outcomes.append((anchor, outcome))


def run_command(argv, work: Path, stats_path: Path | None = None):
    """One command in a fresh interpreter: (seconds, exit code, stdout bytes)."""
    argv = [str(work / "rectangle.txt") if a == "FILE" else a for a in argv]
    if stats_path is None:
        cmd = [sys.executable, "-c", CLI_BOOT, *argv]
    else:
        cmd = [sys.executable, str(HERE / "cli_child.py"), str(stats_path), *argv]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=work, env=child_env(), capture_output=True, timeout=CHILD_TIMEOUT_S)
    return time.perf_counter() - start, proc.returncode, proc.stdout, hwm_mb(proc.stderr.decode())


def hwm_mb(status: str) -> float:
    """Peak resident set in MB from the VmHWM line of a /proc status text."""
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    return 0.0


def check_command(key: str, code: int, stdout: bytes, golden: dict) -> str | None:
    expected = golden[key]
    if code != expected["exit"]:
        return f"{key}: exit {code}, golden {expected['exit']}"
    if oracle.digest(stdout) != expected["stdout"]:
        return f"{key}: stdout differs from the golden digest"
    return None


def run_rounds(rounds, work: Path, tally: Tally, out: Pass, golden: dict, tracer: Tracer | None = None) -> None:
    stats_path = work / "stats.json"
    for commands in rounds:
        for argv in commands:
            key = " ".join(argv)
            out.probe()
            start = time.perf_counter()
            if tracer is None:
                elapsed, code, stdout, peak = run_command(argv, work)
                out.peak_rss_mb = max(out.peak_rss_mb, peak)
            else:
                elapsed, code, stdout, _ = run_command(argv, work, stats_path)
                child = json.loads(stats_path.read_text())
                tracer.merge(child["stats"], child["absent"])
                child_ns = sum(e["self_ns"] for e in child["stats"].values())
                tracer.add_child_time("bench.op", int(elapsed * 1e9), child_ns)
            error = check_command(key, code, stdout, golden)
            tally.record(error)
            out.add(key, start, elapsed, error is None)


# ---------------------------------------------------------------------------
# self-check


def self_check(certified, searched, golden: dict) -> None:
    """Corrupted outputs must each be caught as a wrong output, or the run stops."""
    cases = []
    if certified:
        item, (report, code, text) = certified[0]
        flipped = dict(report, verdict="contradiction")
        cases.append(("flipped verdict", check_certify(item, (flipped, code, text))))
        witness = dict(report["witness"])
        first = next(iter(witness))
        witness[first] = -witness[first]
        cases.append(("wrong witness bit", check_certify(item, (dict(report, witness=witness), code, text))))
    if searched:
        anchor, outcome = searched[0]
        doubled = outcome[:-1] + [outcome[0]]
        cases.append(("duplicated rectangle", check_rect(anchor, len(outcome), doubled, golden)))
    for what, (error, standing) in cases:
        tally = Tally()
        tally.record(error, standing)
        if tally.failed != 1 or tally.correct:
            raise SystemExit(f"self-check: a {what} was not caught")


# ---------------------------------------------------------------------------
# workloads


def certify_batches(seed: int):
    rng = random.Random(seed)
    while True:
        yield inputs.certify_batch(rng)


def certify_sizes(batches) -> dict:
    sizes: dict[str, dict] = {}
    for item in (i for batch in batches for i in batch):
        entry = sizes.setdefault(item.group, {"count": 0, "sat": 0, "universe": [], "qubits": []})
        entry["count"] += 1
        entry["sat"] += item.sat
        entry["universe"].append(item.universe)
        entry["qubits"].append(item.n)
    for entry in sizes.values():
        for key in ("universe", "qubits"):
            entry[key] = [min(entry[key]), max(entry[key])]
    return sizes


def certify_metrics(out: Pass) -> dict[str, float]:
    ms = [t * 1000 for t in out.seconds("op")]
    return {"p50_ms": statistics.median(ms), "slow_ms": percentile(ms, 0.99), "per_s": out.rate("op")}


def rect_metrics(out: Pass) -> dict[str, float]:
    return {
        "p50_ms": statistics.median(out.seconds("cold")) * 1000,
        "slow_ms": statistics.median(out.seconds("warm")) * 1000,
        "per_s": out.rate("warm"),
    }


def cli_metrics(out: Pass) -> dict[str, float]:
    light = [" ".join(a) for a in inputs.LIGHT_COMMANDS]
    rect = [" ".join(a) for a in inputs.RECT_COMMANDS]
    return {
        "p50_ms": sum(statistics.median(out.seconds(k)) for k in light) * 1000,
        "slow_ms": statistics.median(out.seconds(*rect)) * 1000,
        "per_s": out.rate(),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, golden: dict, work: Path):
    """(tally, metric values, absent span names, inputs description) of one run."""
    tally = Tally()
    out = Pass()
    if name == "certify":
        chunks = certify_batches(seed)
        run = lambda c, t=None: run_certify(c, tally, out, t)  # noqa: E731
        describe = lambda done: {"sizes": certify_sizes(done), "batch": len(done[0])}  # noqa: E731
    elif name == "rect_search":
        chunks = iter(inputs.anchor_cycles(seed))
        run = lambda c, t=None: run_rect(c, tally, out, golden["rect_search"], t)  # noqa: E731
        describe = lambda done: {  # noqa: E731
            "anchor_cycles": [list(c) for c in done],
            "limits": [4, WARM_LIMIT],
            "warm_results": out.results,
            "sign_variant_results": out.sign_variants,
        }
    else:
        (work / "rectangle.txt").write_text(inputs.rectangle_file_text())
        chunks = inputs.cli_rounds(seed)
        run = lambda c, t=None: run_rounds(c, work, tally, out, golden["cli_cold"], t)  # noqa: E731
        describe = lambda done: {"rounds": len(done), "commands": [" ".join(a) for a in done[0]]}  # noqa: E731

    if not trace:
        fresh_import_s()  # compiles the bytecode of a fresh checkout
        done = timed(seconds, chunks, run, out, setup=True)
        self_check(
            out.outcomes if name == "certify" else [],
            out.outcomes if name == "rect_search" else [],
            golden["rect_search"],
        )
        summary = {"certify": certify_metrics, "rect_search": rect_metrics, "cli_cold": cli_metrics}[name]
        peak = out.peak_rss_mb if name == "cli_cold" else hwm_mb(Path("/proc/self/status").read_text())
        values = dict(summary(out), setup_s=statistics.median(out.seconds("setup")), peak_rss_mb=peak)
        return tally, values, [], dict(describe(done), host_slowdown=out.host_slowdown())

    # The traced pass repeats the untraced pass's chunks, except that
    # rect_search takes as many fresh anchor cycles (so the untraced pass
    # may use only half of them): a repeated anchor would not be cold.
    if name == "rect_search":
        done = timed(seconds / 2, itertools.islice(chunks, inputs.POOL_SIZE // 2), run, out)
        again = list(itertools.islice(chunks, len(done)))
    else:
        done = timed(seconds / 2, chunks, run, out)
        again = done
    ops_before = len(out.samples)
    tracer = Tracer()
    if name != "cli_cold":
        tracer.install()
    try:
        run(again, tracer)
    finally:
        tracer.uninstall()
    out.probe(every=0)
    # Both passes in reference-host seconds; the span self times are raw,
    # so they take the traced pass's own scaling.
    scaled = [t * scale for (_, _, t, _, _), scale in zip(out.samples, out.scales())]
    untraced_s, traced_s = sum(scaled[:ops_before]), sum(scaled[ops_before:])
    traced_raw_s = sum(t for _, _, t, _, _ in out.samples[ops_before:])
    values = layer_metrics(tracer, len(out.samples) - ops_before, untraced_s, traced_s, traced_s / traced_raw_s)
    return tally, values, tracer.absent, describe(done + again)


def layer_metrics(tracer: Tracer, ops: int, untraced_s: float, traced_s: float, scale: float) -> dict[str, float]:
    """Per-operation span statistics plus the tracing overhead.

    Self times are scaled to the reference host speed like the end-to-end
    timings, by the traced pass's average ``scale``.
    """
    values = {}
    for prefix, entry in tracer.stats.items():
        for key, total in entry.items():
            name = f"{prefix}.self_ms" if key == "self_ns" else f"{prefix}.{key}"
            values[name] = (total / 1e6 * scale if key == "self_ns" else total) / ops
    results = tracer.stats.get("search.find_magic_rectangles", {}).get("results", 0)
    for ratio, prefix in (("validations", "magic.validate_context"), ("canonical", "search.canonical_config")):
        calls = tracer.stats.get(prefix, {}).get("calls", 0)
        values[f"search.{ratio}_per_result"] = calls / results if results else 0.0
    self_s = sum(e["self_ns"] for e in tracer.stats.values()) / 1e9 * scale
    values["trace.overhead_share"] = traced_s / untraced_s - 1
    values["trace.accounted_share"] = self_s / untraced_s
    return values


# ---------------------------------------------------------------------------
# entry point

# The names the workloads' metrics go by in the project's planning documents.
ALIASES = {
    "certify": {"p50_ms": "certify_p50_ms", "slow_ms": "certify_p99_ms", "per_s": "certify_per_s"},
    "rect_search": {"p50_ms": "first_results_ms", "slow_ms": "warm_call_ms", "per_s": "results_per_s"},
    "cli_cold": {"p50_ms": "cli_light_ms", "slow_ms": "cli_rect_ms", "per_s": "commands_per_s"},
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "bksgeom" / "__init__.py").is_file():
        print(f"error: no bksgeom package under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    golden = json.loads((HERE / "golden.json").read_text())
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    sys.path.insert(0, str(SRC))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    env = environment()
    # One CPU for this process and every child, so that the speed probes
    # run on the CPU the timed work runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    with tempfile.TemporaryDirectory(prefix=".work-", dir=HERE) as tmp:
        for name in names:
            tally, values, absent, described = run_workload(
                name, args.seed, args.seconds, bool(args.trace), golden, Path(tmp)
            )
            if args.trace:
                values.update({f"import.{k}_ms": v for k, v in import_times_ms().items()})
            else:
                values["ok_share"] = 1 - tally.failed / tally.attempted
            metrics = {}
            for m in wanted:
                metrics[m["name"]] = {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
                if m["name"].rsplit(".", 1)[0] in absent:
                    metrics[m["name"]]["absent"] = True
            aliases = ALIASES[name]
            for metric, entry in metrics.items():
                label = f"{metric} ({aliases[metric]})" if metric in aliases else metric
                print(f"{name:12s} {label:44s} {entry['value']:14.6g} {entry['unit']}")
            print(f"{name:12s} {'failed_share':44s} {tally.failed / tally.attempted:14.6g} share")
            for error in tally.wrong[:5]:
                print(f"{name:12s} wrong output: {error}")
            workload = {"name": name, "seed": args.seed, "why": why.get(name), "inputs": described,
                        "attempted": tally.attempted, "failed": tally.failed, "standing_failures": tally.standing}
            print(json.dumps({"environment": env, "workload": workload}))
            combined["correct"] &= tally.correct
            combined["attempted"] += tally.attempted
            combined["failed"] += tally.failed
            for metric, entry in metrics.items():
                combined["metrics"][metric if len(names) == 1 else f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
