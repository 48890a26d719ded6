"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest -q bench/test_bench.py

They take about a minute: every pinned answer is checked once on a
varied pass, and two short runs go through run.py end to end.
"""
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import corpus
import run
import tracer as tracing

ROOT = Path(__file__).resolve().parent.parent
WM = run.load_library()
EXPECTED = corpus.load_expected()
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def context(seed, vary=True, cli=None):
    rng = random.Random(f"test/{seed}")
    return corpus.Context(WM, EXPECTED, rng, seed, vary=vary, cli=cli)


def errors(queries):
    out = []
    for q in queries:
        _, err = run.run_query(q)
        if err is not None:
            out.append((q.qid, q.inputs, err))
    return out


@pytest.mark.parametrize("workload", ["poset", "measures"])
def test_every_pinned_answer_matches_on_a_varied_pass(workload):
    ctx = context(7)
    assert errors(corpus.build(workload, EXPECTED, ctx)) == []


def test_cli_answers_match_except_the_known_readme_failure(tmp_path):
    runner = run.CliRunner(tmp_path)
    ctx = context(3, cli=runner)
    sweep = random.Random(3).sample(EXPECTED["cli"]["sweep"], 20)
    queries = [corpus.make(s, ctx, f"cli/{i}") for i, s in enumerate(EXPECTED["cli"]["readme"] + sweep)]
    assert errors(queries) == []
    spec = EXPECTED["known_failure"]
    code, text = runner(spec["argv"], None)
    assert code == 2, "the README via-expansion example passes now: count it as a pass"
    assert corpus.payload(text) != spec["payload"]


def test_smoke_queries_pass(tmp_path):
    assert errors(corpus.smoke(EXPECTED, context(0, vary=False, cli=run.CliRunner(tmp_path)))) == []


def test_key_transform_matches_the_library():
    rng = random.Random(11)
    for spec in [s for s in EXPECTED["poset"] if s["kind"] == "ae"]:
        sym = corpus.Sym.random(rng, 2)
        ctx = context(0)
        H = ctx.graph(spec["gens"], 2)
        G = ctx.graph([corpus.text_of(sym.word(corpus.letters_of(g))) for g in spec["gens"]], 2)
        assert sym.key(H.canonical_key.decode()) == G.canonical_key.decode()


def test_relabelled_table_is_the_same_group():
    data = corpus.cayley_dict("A5")
    relabelled, phi = corpus.relabel(data, random.Random(5))
    G = WM.measures.FiniteGroupTable.from_json_dict(data)
    H = WM.measures.FiniteGroupTable.from_json_dict(relabelled)
    index = corpus.class_index([list(c) for c in G.conjugacy_classes], phi)
    for old, cls in enumerate(G.conjugacy_classes):
        assert H.conjugacy_classes[index[old]] == tuple(sorted(phi[e] for e in cls))


def test_same_seed_gives_the_same_corpus():
    def pass_digest(seed):
        ctx = corpus.Context(WM, EXPECTED, random.Random(f"poset/{seed}/0"), seed, vary=True)
        return corpus.digest(corpus.build("poset", EXPECTED, ctx))

    assert pass_digest(4) == pass_digest(4)
    assert pass_digest(4) != pass_digest(5)


def test_absent_wrap_target_is_reported(monkeypatch):
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + [("stallings", "no_such_fn", "stallings.no_such_fn")])
    tr = tracing.Tracer()
    tr.install()
    try:
        assert tr.absent == ["stallings.no_such_fn"]
    finally:
        tr.uninstall()
    assert not getattr(WM.stallings.fold, tracing.MARK, False)


def run_main(capsys, *argv):
    assert run.main(list(argv)) == 0
    lines = capsys.readouterr().out.splitlines()
    return json.loads(lines[-2])["meta"], json.loads(lines[-1])


def test_untraced_run_installs_no_wrappers(capsys, monkeypatch):
    def refuse(self):
        raise AssertionError("an untraced run installed wrappers")

    monkeypatch.setattr(tracing.Tracer, "install", refuse)
    meta, result = run_main(capsys, "--workload", "measures", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert result["correct"] and result["failed"] == 0
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == list(result["metrics"])
    assert meta["above_p90"] >= 10


def test_traced_self_times_fit_in_the_traced_wall_time(capsys):
    meta, result = run_main(capsys, "--workload", "measures", "--seed", "2", "--seconds", "1", "--trace", "1")
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert [p["name"] for p in BENCHMARK["per_layer"]] == sorted(m)
    assert sum(v for k, v in m.items() if k.endswith(".self_s")) <= m["trace.wall_s"]
    assert meta["absent_wrap_targets"] == []
    for module, attr, _ in tracing.TARGETS:  # uninstalled again
        owner = getattr(WM, module)
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert not getattr(owner, tracing.MARK, False)


def test_exits_nonzero_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "poset", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_keeps_to_its_limits():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(corpus.WORKLOADS)
    names = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    assert len(names) == len(set(names))
    assert all(0 < m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])
    assert all(len(w["why"]) <= 200 for w in BENCHMARK["workloads"])
