"""Regenerate bench/expected.json: the base inputs and their pinned answers.

Usage (from the repository root):  python3 bench/pin.py

Answers are computed by the library at the commit this is run on and are
then frozen; the benchmark checks every later commit against them.  Run
it again only when a workload's inputs change, never to absorb a
changed answer.  The base inputs below were chosen by size: single words
whose core graph has 3-5 vertices and 2-generator subgroups of F_2 with
3-5 vertices (words whose pi_details took over 1.5 s were left out; see
known_infeasible.json), trace sweeps up to N=7 for r=2 and N=5 for r=3,
and S_5..S_7 plus Cayley tables of order <= 60 for measures.
"""
from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from wordmaps import extensions, measures, mobius, perm_powers, stallings, words  # noqa: E402

import corpus  # noqa: E402

CATALOGUE_SEED = 20191008

PI_WORDS = ["AAB"] * 4 + ["AAAB"] * 2 + ["ABab"] * 2 + ["ABAb", "AABB", "AAAAB", "AABAb"]
AE_GENS = [
    ["A", "aBAB"], ["AB", "bbb"], ["ABA", "aB"], ["BAb", "BBa"], ["BBa", "bAb"],
    ["a", "BAAb"], ["Abb", "bba"], ["bb", "AA"], ["BB", "AAA"], ["AABa", "bAB"],
    ["BAbA", "BABB"], ["b", "aBab"],
    # a second variant of three ~0.09 s subgroups, so that the pass median sits inside one cost plateau
    ["A", "aBAB"], ["BAb", "BBa"], ["b", "aBab"],
]
IFF_PAIRS = [
    (["aab"], None), (["abAB"], None), (["aa", "b"], None), (["aba", "bab"], None),
    (["aa"], ["a", "bb"]), (["a"], ["a", "bb"]),
]
FFC_PAIRS = [(["aab"], None), (["aa", "b"], None), (["aa"], ["a", "bb"])]

# Costs form plateaus so that the pass median and p90 each fall inside one:
# 16 queries under 0.05 s, 10 at ~0.09 s (N=6, r=2, length 4), 5 at
# 0.2-0.45 s and 4 at ~0.9 s (N=7 for r=2, N=5 for r=3).
TRW = (
    [(w, 2, n) for w in ("abAB", "aab", "aabb", "abaB") for n in (4, 5)]
    + [("abAB", 2, 6)] * 3 + [("aab", 2, 6)] + [("aabb", 2, 6)] * 2 + [("abaB", 2, 6)] * 2
    + [("abAB", 2, 7), ("aab", 2, 7)]
    + [("abABacAC", 3, n) for n in (3, 4, 5)] + [("abc", 3, 4)]
)
PHI = [(["aa", "ab"], 2, n) for n in (4, 5, 6, 6, 7)]
DERIVE = [(["abAB"], 2, 5), (["aab"], 2, 6)]
VIA = [(["aabb"], 2, 4)]
GAP = [("ab", 2, 2, [3, 4, 5]), ("aab", 2, 2, [4, 5, 6])]
FIT = [("abAB", 2, [3, 4, 5, 6]), ("aab", 2, [3, 4, 5, 6])]
MC = [("abAB", 2, 6, 3000)]

WM = [("abAB", 2, 5), ("aabb", 2, 5), ("abaB", 2, 5), ("abAB", 2, 6), ("aabbb", 2, 6), ("aab", 2, 7)]
CMP = [("abAB", "abaB", 2, 5), ("aabb", "abAB", 2, 6)]
GROUPS = ["A5", "S4"]
WMG = [("abAB", 2, "A5"), ("aabbb", 2, "A5"), ("aaaaa", 2, "A5"), ("abAB", 2, "S4"), ("aabb", 2, "S4")]
CMPG = [("abAB", "abaB", 2, "A5"), ("aabb", "abAB", 2, "S4")]
EPI = [("abAB", 2, "A5"), ("aabb", 2, "S4")]
OBS = [("aabb", 2, 2, [2, 3, 4, 5, 6]), ("abAB", 2, 2, [2, 3, 4, 5]), ("aa", 2, 2, [2, 3, 4, 5, 6])]
MOM = [(2, 2, 10), (3, 3, 12), (2, 4, 11), (1, 5, 12)]

README = [
    'measure trw --word "x^3 y^2" --n 3..6 --exact',
    'ext pi --word "[x,y]"',
    'ext ae --gens "a^2,ab" --rank 2 --format dot',
    'measure compare --w1 "[x,y]" --w2 "xyxY" --group S5 --exact',
    'mobius inequality --word "[a,b]" --rank 2 --images "a^2,b" --image-rank 2 --n 5..7',
    'mobius power-gap --word a --rank 1 --d 3 --n 3..7',
    'perm root --perm "(1 2)(3 4)" --degree 4 --d 2',
    'perm obstruction --word "x^2y^2" --d 2 --n 2..6 --seed 0',
    'measure trw --word "[x,y]" --n 6 --mc --samples 10000 --seed 7',
]
# The README example that fails at the pinned commit: parse_words splits
# "[a,b]" at its comma.  Its rows are pinned from phi_via_expansion.
KNOWN_FAILURE = 'mobius via-expansion --gens "[a,b]" --rank 2 --n 3..5'

SWEEP_PER_KIND = 24
CLI_SWEEP_PER_PASS = 40

SMOKE = [
    {"kind": "pi", "rank": 2, "word": "aab"},
    {"kind": "ae", "rank": 2, "gens": ["ab", "bba"]},
    {"kind": "iff", "rank": 2, "m": ["aab"], "j": None},
    {"kind": "ffc", "rank": 2, "h": ["aab"], "j": None},
    {"kind": "trw", "rank": 2, "word": "ab", "n": 3},
    {"kind": "phi", "rank": 2, "gens": ["aa", "b"], "n": 3},
    {"kind": "derive", "rank": 2, "gens": ["aab"], "n": 3},
    {"kind": "via", "rank": 2, "gens": ["aab"], "n": 3},
    {"kind": "gap", "rank": 1, "word": "a", "d": 2, "ns": [3]},
    {"kind": "fit", "rank": 2, "word": "ab", "ns": [2, 3, 4]},
    {"kind": "mc", "rank": 2, "word": "ab", "n": 3, "samples": 50},
    {"kind": "gload", "group": "S4"},
    {"kind": "wmg", "rank": 2, "word": "ab", "group": "S4"},
    {"kind": "cmpg", "rank": 2, "w1": "ab", "w2": "aab", "group": "S4"},
    {"kind": "epi", "rank": 2, "word": "ab", "group": "S4"},
    {"kind": "wm", "rank": 2, "word": "ab", "n": 3},
    {"kind": "cmp", "rank": 2, "w1": "ab", "w2": "aab", "n": 3},
    {"kind": "obs", "rank": 2, "word": "aa", "d": 2, "ns": [2, 3]},
    {"kind": "mom", "b": 1, "t": 1, "n": 3},
    {"kind": "cli", "argv": ["word", "root", "--word", "abab", "--rank", "2"], "out": "root.json"},
]


def pinf(x):
    return None if x == extensions.INFINITE_RANK else x


def graph(gens, rank):
    return stallings.from_generators([words.parse(g, rank) for g in gens], rank)


def key(g) -> str:
    return g.canonical_key.decode()


def answer(spec: dict, groups: dict) -> dict:
    """Fill in the pinned answer of one base input."""
    k, r = spec["kind"], spec.get("rank")
    if k == "pi":
        pi, C, _ = extensions.pi_details(graph([spec["word"]], r))
        return spec | {"pi": pinf(pi), "C": C}
    if k == "ae":
        poset = extensions.algebraic_extensions(graph(spec["gens"], r))
        keys = [key(g) for g in poset.nodes]
        return spec | {
            "nodes": [[kk, a] for kk, a in zip(keys, poset.alg_marks)],
            "ff": [[keys[i], keys[j], v] for (i, j), v in sorted(poset.ff_marks.items())],
        }
    if k in ("iff", "ffc"):
        lower = spec["m"] if k == "iff" else spec["h"]
        J = graph(spec["j"], r) if spec["j"] is not None else stallings.rose(r)
        if k == "iff":
            return spec | {"value": extensions.is_free_factor(graph(lower, r), J)}
        return spec | {"key": key(extensions.ff_closure(graph(lower, r), J))}
    if k == "trw":
        return spec | {"value": str(measures.trw_exact(words.parse(spec["word"], r), spec["n"]))}
    if k == "phi":
        gens = [words.parse(g, r) for g in spec["gens"]]
        return spec | {"value": str(measures.phi_exact(gens, r, spec["n"]))}
    if k == "derive":
        t = mobius.derive_R(graph(spec["gens"], r), spec["n"])
        return spec | {
            "nodes": [[key(t.poset.nodes[i]), str(t.phi[i]), str(t.values[i])] for i in sorted(t.values)]
        }
    if k == "via":
        return spec | {"value": str(mobius.phi_via_expansion(graph(spec["gens"], r), r, spec["n"]))}
    if k == "gap":
        rep = mobius.check_power_gap(words.parse(spec["word"], r), spec["d"], spec["ns"])
        return spec | {
            "delta": rep.delta,
            "rows": [[row.N, str(row.gap), str(row.deviation)] for row in rep.rows],
        }
    if k == "fit":
        fit = mobius.fit_expansion(words.parse(spec["word"], r), spec["ns"])
        return spec | {
            "traces": [[N, str(t)] for N, t in fit.traces],
            "pi_estimate": pinf(fit.pi_estimate),
            "c_estimate": fit.c_estimate,
            "pi_combinatorial": pinf(fit.pi_combinatorial),
            "c_combinatorial": fit.c_combinatorial,
        }
    if k == "mc":
        return spec | {"exact": str(measures.trw_exact(words.parse(spec["word"], r), spec["n"]))}
    if k == "gload":
        return spec
    if k == "wm":
        m = measures.word_measure_exact(words.parse(spec["word"], r), spec["n"])
        return spec | {"support": [[list(c), str(p)] for c, p in m.support]}
    if k == "cmp":
        m1, m2 = (measures.word_measure_exact(words.parse(spec[w], r), spec["n"]) for w in ("w1", "w2"))
        return spec | {
            "m1": [[list(c), str(p)] for c, p in m1.support],
            "m2": [[list(c), str(p)] for c, p in m2.support],
        }
    if k == "wmg":
        m = measures.word_measure_exact(words.parse(spec["word"], r), groups[spec["group"]])
        return spec | {"support": [[c, str(p)] for c, p in m.support]}
    if k == "cmpg":
        G = groups[spec["group"]]
        m1, m2 = (measures.word_measure_exact(words.parse(spec[w], r), G) for w in ("w1", "w2"))
        return spec | {
            "m1": [[c, str(p)] for c, p in m1.support],
            "m2": [[c, str(p)] for c, p in m2.support],
        }
    if k == "epi":
        return spec | {"image": sorted(measures.epi_image(words.parse(spec["word"], r), groups[spec["group"]]))}
    if k == "obs":
        v = perm_powers.word_power_obstruction(words.parse(spec["word"], r), spec["d"], spec["ns"], seed="0")
        return spec | {"witness_degree": v.witness_degree, "free": v.is_power_in_free_group}
    if k == "mom":
        m1, m2 = perm_powers.moments_exact(spec["b"], spec["t"], spec["n"])
        return spec | {"value": [str(m1), str(m2)]}
    if k == "cli":
        code, text = run_cli(spec["argv"], spec.get("out"))
        if code != 0:
            raise SystemExit(f"pinning failed: {spec['argv']} exited {code}")
        return spec | {"payload": corpus.payload(text)}
    raise ValueError(k)


def run_cli(argv, out):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        extra = ["--out", out] if out else []
        proc = subprocess.run(
            [sys.executable, "-m", "wordmaps.cli", *argv, *extra],
            cwd=tmp, env=env, capture_output=True, text=True, timeout=120,
        )
        if out:
            text = Path(tmp, out).read_text() if proc.returncode == 0 else ""
        else:
            text = proc.stdout.split("\n", 1)[1] if "\n" in proc.stdout else ""
    return proc.returncode, text


def sweep_specs(rng) -> list[dict]:
    """Cheap CLI subcommands on catalogue inputs drawn from CATALOGUE_SEED."""

    def rword(lo, hi):
        letters = []
        n = rng.randint(lo, hi)
        while len(letters) < n:
            x = (rng.randint(1, 2), rng.choice((1, -1)))
            if letters and letters[-1] == (x[0], -x[1]):
                continue
            letters.append(x)
        return corpus.text_of(letters)

    out = []
    for _ in range(SWEEP_PER_KIND):
        u = words.parse(rword(1, 3), 2)
        w = str(u ** rng.randint(1, 3))
        out.append({"kind": "cli", "argv": ["word", "root", "--word", w, "--rank", "2"],
                    "out": "root.json", "vary": "root"})
    for _ in range(SWEEP_PER_KIND):
        gens = f"{rword(1, 3)},{rword(1, 3)}"
        out.append({"kind": "cli", "argv": ["graph", "fold", "--gens", gens, "--rank", "2"],
                    "out": "fold.json"})
    for _ in range(SWEEP_PER_KIND):
        w = rng.choice(["aab", "abb", "aaB", "Abb", "ab", "aB", "aabb"])
        w = corpus.text_of(corpus.vary_word(rng, corpus.letters_of(w), corpus.Sym.random(rng, 2)))
        out.append({"kind": "cli", "argv": ["ext", "pi", "--word", w, "--rank", "2"], "out": "pi.json"})
    for _ in range(SWEEP_PER_KIND):
        out.append({"kind": "cli", "argv": ["measure", "trw", "--word", rword(2, 4), "--rank", "2",
                                            "--n", "3..5"], "out": "trw.csv", "vary": "trw"})
    for _ in range(SWEEP_PER_KIND):
        degree = rng.randint(4, 8)
        pts = list(range(1, degree + 1))
        rng.shuffle(pts)
        cycles, i = [], 0
        while i < degree:
            n = rng.randint(1, 3)
            cycles.append("(" + " ".join(map(str, pts[i : i + n])) + ")")
            i += n
        out.append({"kind": "cli", "argv": ["perm", "root", "--perm", "".join(cycles),
                                            "--degree", str(degree), "--d", str(rng.randint(2, 3))],
                    "out": "root.json"})
    return out


def main():
    import shlex

    groups = {name: measures.FiniteGroupTable.from_json_dict(corpus.cayley_dict(name)) for name in GROUPS}
    specs = {
        "poset": [{"kind": "pi", "rank": 2, "word": w} for w in PI_WORDS]
        + [{"kind": "ae", "rank": 2, "gens": g} for g in AE_GENS]
        + [{"kind": "iff", "rank": 2, "m": m, "j": j} for m, j in IFF_PAIRS]
        + [{"kind": "ffc", "rank": 2, "h": h, "j": j} for h, j in FFC_PAIRS],
        "trace": [{"kind": "trw", "rank": r, "word": w, "n": n} for w, r, n in TRW]
        + [{"kind": "phi", "rank": r, "gens": g, "n": n} for g, r, n in PHI]
        + [{"kind": "derive", "rank": r, "gens": g, "n": n} for g, r, n in DERIVE]
        + [{"kind": "via", "rank": r, "gens": g, "n": n} for g, r, n in VIA]
        + [{"kind": "gap", "rank": r, "word": w, "d": d, "ns": ns} for w, r, d, ns in GAP]
        + [{"kind": "fit", "rank": r, "word": w, "ns": ns} for w, r, ns in FIT]
        + [{"kind": "mc", "rank": r, "word": w, "n": n, "samples": s} for w, r, n, s in MC],
        "distribution": [{"kind": "gload", "group": g} for g in GROUPS]
        + [{"kind": "wm", "rank": r, "word": w, "n": n} for w, r, n in WM]
        + [{"kind": "cmp", "rank": r, "w1": a, "w2": b, "n": n} for a, b, r, n in CMP]
        + [{"kind": "wmg", "rank": r, "word": w, "group": g} for w, r, g in WMG]
        + [{"kind": "cmpg", "rank": r, "w1": a, "w2": b, "group": g} for a, b, r, g in CMPG]
        + [{"kind": "epi", "rank": r, "word": w, "group": g} for w, r, g in EPI]
        + [{"kind": "obs", "rank": r, "word": w, "d": d, "ns": ns} for w, r, d, ns in OBS]
        + [{"kind": "mom", "b": b, "t": t, "n": n} for b, t, n in MOM],
    }
    expected = {
        "groups": {
            name: {"classes": [list(c) for c in G.conjugacy_classes]} for name, G in groups.items()
        },
        "cli_sweep_per_pass": CLI_SWEEP_PER_PASS,
    }
    for name, lst in specs.items():
        expected[name] = [answer(s, groups) for s in lst]
        print(f"{name}: {len(lst)} base inputs", file=sys.stderr)
    rng = random.Random(CATALOGUE_SEED)
    expected["cli"] = {
        "readme": [answer({"kind": "cli", "argv": shlex.split(c)}, groups) for c in README],
        "sweep": [answer(s, groups) for s in sweep_specs(rng)],
    }
    H = graph(["abAB"], 2)
    rows = ["N,numerator,denominator,decimal"]
    for N in (3, 4, 5):
        x = mobius.phi_via_expansion(H, 2, N)
        rows.append(f"{N},{x.numerator},{x.denominator},{float(x):.15g}")
    expected["known_failure"] = {"kind": "cli", "argv": shlex.split(KNOWN_FAILURE), "payload": rows}
    expected["smoke"] = [answer(s, groups) for s in SMOKE]
    with open(corpus.EXPECTED, "w") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
