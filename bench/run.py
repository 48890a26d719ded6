"""Run one wordmaps benchmark workload and print its metrics.

Usage (from the repository root):
    python3 bench/run.py --workload poset --seed 1 --seconds 40 --trace 0

A run is one client in a closed loop: it sends the next query only after
the previous one returned.  It repeats whole passes over the seeded
corpus (pass k uses sub-seed k) until the next pass would end further
from --seconds than stopping now.  Every answer is checked against
bench/expected.json.

--trace 0 prints the end-to-end metrics.  --trace 1 wraps the library's
public functions (bench/tracer.py), runs the same loop, and prints the
per-layer metrics, per pass.  The last stdout line is the result JSON;
the line before it holds the run's metadata, which is also written with
per-layer tables and failures to bench/out/.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import types
from pathlib import Path

import corpus
import tracer as tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_PROBES = 9
CHILD_TIMEOUT_S = 120
# Samples that must lie above the reported p90.
MIN_TAIL = 10

# Counters reported per pass, besides calls and self time of every span.
COUNTERS = [
    "extensions.whitehead_states",
    "stallings.quotients.graphs",
    "extensions.algebraic_extensions.nodes",
    "extensions.algebraic_extensions.ff_pairs",
    "measures.phi_exact.hom_tuples",
    "measures.trw_monte_carlo.samples",
    "mobius.derive_R.phi_terms",
    "measures.word_measure_exact.hom_tuples",
    "measures.compare_measures.hom_tuples",
    "measures.epi_image.hom_tuples",
]


def fail(message: str):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def run_child(cmd, **popen_args) -> subprocess.CompletedProcess:
    """subprocess.run without its `timeout`, whose polling wait rounds a
    child's lifetime up to 50 ms steps; a timer kills an overrunning child."""
    with subprocess.Popen(cmd, env=child_env(), **popen_args) as proc:
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            out, err = proc.communicate()
        finally:
            timer.cancel()
    return subprocess.CompletedProcess(cmd, proc.returncode, out, err)


def load_library():
    if not (SRC / "wordmaps" / "__init__.py").is_file():
        fail(f"no wordmaps sources under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import wordmaps
    from wordmaps import cli, extensions, measures, mobius, perm_powers, stallings, words

    if not Path(wordmaps.__file__).resolve().is_relative_to(SRC.resolve()):
        fail(f"imported wordmaps from {wordmaps.__file__}, not from {SRC}")
    return types.SimpleNamespace(
        words=words, stallings=stallings, extensions=extensions, measures=measures,
        mobius=mobius, perm_powers=perm_powers, cli=cli,
    )


class SetupProbe:
    """Wall time of a fresh interpreter importing the package.

    The first import fills the bytecode cache and is not kept.  Probes are
    spread over the run (before the loop and between passes), so that the
    median does not hang on one spell of a shared machine."""

    def __init__(self, module: str):
        self.cmd = [sys.executable, "-c", f"import {module}"]
        self.times: list[float] = []
        self._time()

    def _time(self) -> float:
        t0 = time.perf_counter()
        run_child(self.cmd).check_returncode()
        return time.perf_counter() - t0

    def take(self, k: int):
        for _ in range(min(k, SETUP_PROBES - len(self.times))):
            self.times.append(self._time())


class CliRunner:
    """Runs one CLI process in a working directory; returns (exit code, artifact)."""

    def __init__(self, workdir: Path, tracer=None):
        self.workdir, self.tracer = workdir, tracer

    def __call__(self, argv: list[str], out: str | None):
        extra = ["--out", out] if out else []
        if out:
            (self.workdir / out).unlink(missing_ok=True)
        if self.tracer is None:
            return self._run([sys.executable, "-m", "wordmaps.cli", *argv, *extra], out)
        trace_file = self.workdir / "trace.json"
        trace_file.unlink(missing_ok=True)
        launcher = [sys.executable, str(HERE / "cli_launcher.py"), str(trace_file)]
        with self.tracer.span("cli.process"):
            code, text = self._run([*launcher, *argv, *extra], out)
            if trace_file.exists():
                self.tracer.merge(json.loads(trace_file.read_text()))
        self.tracer.count("cli.artifact_bytes", len(text.encode()))
        return code, text

    def _run(self, cmd, out):
        proc = run_child(cmd, cwd=self.workdir, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        if out:
            path = self.workdir / out
            text = path.read_text() if path.exists() else ""
        else:  # the artifact follows the one-line summary on stdout
            text = proc.stdout.split("\n", 1)[1] if "\n" in proc.stdout else ""
        return proc.returncode, text


def run_query(q: corpus.Query) -> tuple[float, str | None]:
    """Latency of one query and its error (None when the answer is right)."""
    t0 = time.perf_counter()
    try:
        got = q.call()
    except Exception as e:  # a failing query is recorded, the loop goes on
        return time.perf_counter() - t0, f"{type(e).__name__}: {e}"
    latency = time.perf_counter() - t0
    try:
        return latency, q.check(got)
    except Exception as e:
        return latency, f"checking the answer raised {type(e).__name__}: {e}"


def timed_loop(make_pass, seconds: float, tracer=None, between=None):
    """Whole passes until another one would overshoot --seconds by more
    than stopping now undershoots it, and until the run holds MIN_TAIL
    samples above its p90.
    `between` runs after each pass, off the clock.
    Returns one list of (qid, latency, error) per pass."""
    passes, digests = [], []
    t_start = time.perf_counter()
    while True:
        if passes and between is not None:
            t0 = time.perf_counter()
            between()
            t_start += time.perf_counter() - t0
        queries = make_pass(len(passes))
        digests.append(corpus.digest(queries))
        records = []
        for q in queries:
            if tracer is not None:
                tracer.query = sum(map(len, passes)) + len(records)
            latency, err = run_query(q)
            records.append((q.qid, latency, err))
        passes.append(records)
        elapsed = time.perf_counter() - t_start
        n = sum(map(len, passes))
        tail = n - math.ceil(0.9 * n)
        if elapsed + elapsed / len(passes) / 2 >= seconds and tail >= MIN_TAIL:
            return passes, elapsed, digests


def nearest_rank(sorted_values: list[float], p: float) -> float:
    return sorted_values[max(0, math.ceil(p * len(sorted_values)) - 1)]


def throughput(records) -> float:
    """Correct answers per second of query time."""
    return sum(1 for _, _, err in records if err is None) / sum(lat for _, lat, _ in records)


def end_to_end(records, wall: float, setup: list[float], workload: str) -> dict:
    """Timings pool every query of the run, so that each averages over the
    whole run the speed changes of a shared machine."""
    # a failed query counts as slower than every success
    latencies = sorted(lat if err is None else wall for _, lat, err in records)
    usage = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return {
        "setup_s": (statistics.median(setup), "s"),
        "queries_per_s": (throughput(records), "1/s"),
        "query_p50_s": (nearest_rank(latencies, 0.5), "s"),
        "query_p90_s": (nearest_rank(latencies, 0.9), "s"),
        "success_frac": (sum(1 for _, _, err in records if err is None) / len(records), "fraction"),
        "peak_rss_mb": (resource.getrusage(usage).ru_maxrss / 1024, "MB"),
    }


def per_layer(tr: tracing.Tracer, passes: int, wall: float, records, per_span: float) -> dict:
    """Per-pass layer figures.  `wall` covers the smoke queries and the loop,
    like the spans, so the self times add up to at most the wall time."""
    out = {}
    for name in tracing.SPAN_NAMES:
        if name in ("cli.import", "cli.process"):
            continue
        calls, self_s, _ = tr.totals(name)
        out[f"{name}.calls"] = (calls / passes, "count")
        out[f"{name}.self_s"] = (self_s / passes, "s")
    c = tr.counters
    for name in COUNTERS:
        out[name] = (c.get(name, 0) / passes, "count")
    iff_calls = tr.totals("extensions.is_free_factor")[0]
    true = c.get("extensions.is_free_factor.true", 0)
    out["extensions.is_free_factor.true_frac"] = (true / iff_calls if iff_calls else 0.0, "fraction")
    partitions = c.get("stallings.quotients.partitions", 0)
    graphs = c.get("stallings.quotients.graphs", 0)
    out["stallings.quotients.distinct_per_partition"] = (graphs / partitions if partitions else 0.0, "ratio")
    _, start_s, process_s = tr.totals("cli.process")
    out["cli.import_s"] = (tr.totals("cli.import")[2] / passes, "s")
    out["cli.process_s"] = (process_s / passes, "s")
    out["cli.start_s"] = (start_s / passes, "s")
    out["cli.artifact_bytes"] = (c.get("cli.artifact_bytes", 0) / passes, "bytes")
    out["trace.passes"] = (passes, "count")
    out["trace.wall_s"] = (wall / passes, "s")
    out["trace.spans"] = (tr.spans_total / passes, "count")
    out["trace.overhead_s"] = (tr.spans_total * per_span / passes, "s")
    out["trace.queries_per_s"] = (throughput(records), "1/s")
    return out


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
    return proc.stdout.strip() or None


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)

    wm = load_library()
    expected = corpus.load_expected()
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    workdir.mkdir()
    try:
        return run(args, wm, expected, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, wm, expected: dict, workdir: Path) -> int:
    tr = tracing.Tracer() if args.trace else None
    runner = CliRunner(workdir, tr)
    setup = None
    if not tr:
        setup = SetupProbe("wordmaps.cli" if args.workload == "cli" else "wordmaps")
        setup.take(3)

    def make_pass(k: int):
        rng = random.Random(f"{args.workload}/{args.seed}/{k}")
        ctx = corpus.Context(wm, expected, rng, args.seed, vary=True, cli=runner)
        return corpus.build(args.workload, expected, ctx, first=k == 0)

    per_span = 0.0
    if tr:
        per_span = tracing.calibrate_overhead()
        tr.install()
    t_smoke = time.perf_counter()
    try:
        smoke_ctx = corpus.Context(wm, expected, random.Random(0), args.seed, vary=False, cli=runner)
        smoke = []
        for i, q in enumerate(corpus.smoke(expected, smoke_ctx)):
            if tr:
                tr.query = -1 - i
            smoke.append((q.qid, *run_query(q)))
        by_pass, wall, digests = timed_loop(make_pass, args.seconds, tr, setup and (lambda: setup.take(2)))
        if setup:
            setup.take(SETUP_PROBES)
    finally:
        if tr:
            tr.uninstall()
    traced_wall = time.perf_counter() - t_smoke

    known = []
    if args.workload == "cli":
        spec = expected["known_failure"]
        code, text = CliRunner(workdir)(spec["argv"], None)
        known.append({
            "argv": spec["argv"], "exit_code": code,
            "passes": code == 0 and corpus.payload(text) == spec["payload"],
        })

    records = [r for p in by_pass for r in p]
    passes = len(by_pass)
    failures = [(qid, err) for qid, _, err in smoke + records if err is not None]
    n = len(records)
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "git_sha": git_sha(), "python": platform.python_version(), "nproc": os.cpu_count(),
        "src_lines": src_lines(), "corpus_digest": digests[0], "pass_digests": digests,
        "passes": passes, "wall_s": wall, "samples": n,
        "setup_samples_s": setup.times if setup else [], "smoke_queries": len(smoke),
        "known_failures": known, "failures": failures[:20],
        "known_infeasible": json.loads((HERE / "known_infeasible.json").read_text()),
    }
    layers = {}
    if tr:
        metrics = per_layer(tr, passes, traced_wall, records, per_span)
        layers = {name: tr.totals(name) for name in tr.names}
        meta["absent_wrap_targets"] = tr.absent
        meta["hook_errors"] = tr.hook_errors
        meta["overhead_per_span_s"] = per_span
        spans_file = OUT / f"spans-{args.workload}-seed{args.seed}.csv.gz"
        meta["spans_written"] = tr.write_spans(spans_file)
        meta["spans_file"] = str(spans_file.relative_to(ROOT))
    else:
        metrics = end_to_end(records, wall, setup.times, args.workload)
        p90 = metrics["query_p90_s"][0]
        meta["above_p90"] = sum(1 for _, lat, err in records if err is not None or lat > p90)
    result = {
        "correct": not failures,
        "attempted": n,
        "failed": sum(1 for _, _, err in records if err is not None),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({
            "meta": meta, **result,
            "layers_total": {"columns": ["calls", "self_s", "total_s"], **layers},
            "latencies": [[q, lat, err] for q, lat, err in records],
        }, fh, indent=1)
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
