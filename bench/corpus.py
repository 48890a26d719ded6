"""Seeded workload corpora and the pinned answers every query is checked against.

`expected.json` (written by `pin.py`) holds each base input with its
exact answer.  A run seed turns each base input into an equivalent
variant: a signed permutation of the generators (an automorphism of
F_r), the inverse word, a cyclic rotation (a conjugate), a reordered or
inverted generating set (the same subgroup), or a relabelled Cayley
table.  Every pinned answer is invariant under these moves or transforms
with them in a way this module computes itself, so each variant keeps an
exact expected answer.  The moves preserve word lengths, core-graph sizes
and group orders, so a pass costs about the same on every seed and runs
stay comparable.
"""
from __future__ import annotations

import ast
import hashlib
import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected.json"

WORKLOADS = ("poset", "measures", "cli")


@dataclass
class Query:
    qid: str
    inputs: object  # the generated inputs, as JSON; hashed into the corpus digest
    call: Callable[[], object]
    check: Callable[[object], "str | None"]  # None when the answer is right


def load_expected() -> dict:
    with open(EXPECTED) as fh:
        return json.load(fh)


def digest(queries: list[Query]) -> str:
    blob = json.dumps([[q.qid, q.inputs] for q in queries], sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


# ----------------------------------------------------------------------
# Words as letter tuples: (generator 1.., sign +-1); "aB" = a b^-1
# ----------------------------------------------------------------------


def letters_of(text: str) -> tuple:
    if text == "1":
        return ()
    return tuple((ord(c.lower()) - 96, 1 if c.islower() else -1) for c in text)


def text_of(letters) -> str:
    return "".join(chr(96 + g) if s == 1 else chr(64 + g) for g, s in letters) or "1"


def inverse(letters) -> tuple:
    return tuple((g, -s) for g, s in reversed(letters))


class Sym:
    """A signed permutation of the generators: x_g -> x_perm[g]^signs[g]."""

    def __init__(self, perm: tuple, signs: tuple):
        self.perm, self.signs = perm, signs

    @staticmethod
    def identity(rank: int) -> "Sym":
        return Sym(tuple(range(1, rank + 1)), (1,) * rank)

    @staticmethod
    def random(rng, rank: int) -> "Sym":
        perm = list(range(1, rank + 1))
        rng.shuffle(perm)
        return Sym(tuple(perm), tuple(rng.choice((1, -1)) for _ in range(rank)))

    def word(self, letters) -> tuple:
        return tuple((self.perm[g - 1], s * self.signs[g - 1]) for g, s in letters)

    def key(self, key: str) -> str:
        """Canonical key of the image of a core graph under this move.

        Relabels the edges, then renumbers vertices by the breadth-first
        order the library uses: from the base, by ascending label,
        outgoing before incoming edges.
        """
        rank, n, edges = ast.literal_eval(key)
        es = []
        for u, lab, v in edges:
            new = self.perm[lab - 1]
            es.append((u, new, v) if self.signs[lab - 1] == 1 else (v, new, u))
        out = {(u, lab): v for u, lab, v in es}
        inc = {(v, lab): u for u, lab, v in es}
        order, index = [0], {0: 0}
        i = 0
        while i < len(order):
            x = order[i]
            for lab in range(1, rank + 1):
                for nbrs in (out, inc):
                    y = nbrs.get((x, lab))
                    if y is not None and y not in index:
                        index[y] = len(order)
                        order.append(y)
            i += 1
        canon = tuple(sorted((index[u], lab, index[v]) for u, lab, v in es))
        return repr((rank, n, canon))


def vary_word(rng, letters, sym: Sym) -> tuple:
    """sym(w), maybe inverted, cyclically rotated."""
    w = sym.word(letters)
    if rng.random() < 0.5:
        w = inverse(w)
    if len(w) > 1:
        k = rng.randrange(len(w))
        w = w[k:] + w[:k]
    return w


def vary_gens(rng, gens: list, sym: Sym) -> list:
    """A generating set of sym(H): same generators reordered, some inverted."""
    out = [sym.word(g) for g in gens]
    out = [inverse(g) if rng.random() < 0.5 else g for g in out]
    rng.shuffle(out)
    return out


# ----------------------------------------------------------------------
# Permutation groups built here, independent of the library
# ----------------------------------------------------------------------

GROUP_GENERATORS = {
    "A5": [(1, 2, 0, 3, 4), (0, 1, 3, 4, 2)],
    "S4": [(1, 2, 3, 0), (1, 0, 2, 3)],
}


def _compose(p, q):
    """Apply p, then q."""
    return tuple(q[i] for i in p)


def cayley_dict(name: str) -> dict:
    """Cayley table of a permutation group, identity first, as the CLI reads it."""
    gens = GROUP_GENERATORS[name]
    ident = tuple(range(len(gens[0])))
    elems = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                b = _compose(a, g)
                if b not in elems:
                    elems.add(b)
                    nxt.append(b)
        frontier = nxt
    order = [ident] + sorted(elems - {ident})
    index = {p: i for i, p in enumerate(order)}
    table = [[index[_compose(a, b)] for b in order] for a in order]
    return {"order": len(order), "table": table, "names": [f"p{i}" for i in range(len(order))]}


def relabel(data: dict, rng) -> tuple[dict, list[int]]:
    """The same group with elements 1..n-1 renamed by a random bijection."""
    n = data["order"]
    rest = list(range(1, n))
    rng.shuffle(rest)
    phi = [0] + rest
    table = [[0] * n for _ in range(n)]
    names = [""] * n
    for a in range(n):
        names[phi[a]] = data["names"][a]
        for b in range(n):
            table[phi[a]][phi[b]] = phi[data["table"][a][b]]
    return {"order": n, "table": table, "names": names}, phi


def class_index(classes: list, phi: list[int]) -> dict[int, int]:
    """Pinned class number -> class number after relabelling by phi.

    The library numbers classes by their least element."""
    mapped = [min(phi[e] for e in cls) for cls in classes]
    rank = {m: i for i, m in enumerate(sorted(mapped))}
    return {old: rank[m] for old, m in enumerate(mapped)}


def compare_rule(m1: dict, m2: dict):
    """The documented verdict of compare_measures on two measures.

    Equal, or the first class (in key order) where the supports differ,
    else the first class where the probabilities differ."""
    zero = Fraction(0)
    differing = [
        (k, m1.get(k, zero), m2.get(k, zero))
        for k in sorted(set(m1) | set(m2))
        if m1.get(k, zero) != m2.get(k, zero)
    ]
    if not differing:
        return (True, None, None, None)
    for k, p1, p2 in differing:
        if p1 == 0 or p2 == 0:
            return (False, k, p1, p2)
    return (False, *differing[0])


def _dth_powers(N: int, d: int) -> set:
    out = set()
    for p in itertools.permutations(range(N)):
        q = tuple(range(N))
        for _ in range(d):
            q = _compose(q, p)
        out.add(q)
    return out


def image_perm(letters, perms) -> tuple:
    """Image of a word under x_i -> perms[i-1], letters applied left to right."""
    N = len(perms[0])
    invs = []
    for p in perms:
        inv = [0] * N
        for i, j in enumerate(p):
            inv[j] = i
        invs.append(inv)
    out = []
    for q in range(N):
        for g, s in letters:
            q = perms[g - 1][q] if s == 1 else invs[g - 1][q]
        out.append(q)
    return tuple(out)


# ----------------------------------------------------------------------
# Query construction
# ----------------------------------------------------------------------


def _pi(x) -> float:
    return math.inf if x is None else x


def _same(got, want, what: str) -> "str | None":
    return None if got == want else f"{what}: got {got!r}, want {want!r}"


class Context:
    """What a query needs at run time.

    `wm` holds the wordmaps modules; queries look functions up on them at
    call time, so the tracer's wrappers apply.  `cli` runs one CLI
    process and returns (exit code, artifact text)."""

    def __init__(self, wm, expected: dict, rng, seed, vary: bool, cli=None):
        self.wm, self.rng, self.seed, self.vary, self.cli = wm, rng, seed, vary, cli
        self.classes = {name: g["classes"] for name, g in expected["groups"].items()}
        self.groups: dict[str, object] = {}
        self.phis: dict[str, list[int]] = {}
        self._powers: dict = {}

    def sym(self, rank: int) -> Sym:
        return Sym.random(self.rng, rank) if self.vary else Sym.identity(rank)

    def word(self, text: str, rank: int) -> str:
        letters = letters_of(text)
        if self.vary:
            letters = vary_word(self.rng, letters, Sym.random(self.rng, rank))
        return text_of(letters)

    def gens(self, texts: list, sym: Sym) -> list[str]:
        letters = [letters_of(t) for t in texts]
        out = vary_gens(self.rng, letters, sym) if self.vary else letters
        return [text_of(g) for g in out]

    def graph(self, texts, rank):
        wm = self.wm
        return wm.stallings.from_generators([wm.words.parse(t, rank) for t in texts], rank)

    def dth_powers(self, N: int, d: int) -> set:
        if (N, d) not in self._powers:
            self._powers[(N, d)] = _dth_powers(N, d)
        return self._powers[(N, d)]


def make(spec: dict, ctx: Context, qid: str) -> Query:
    return KINDS[spec["kind"]](spec, ctx, qid)


# -- poset ------------------------------------------------------------------


def _q_pi(spec, ctx, qid):
    r = spec["rank"]
    w = ctx.word(spec["word"], r)
    want = (_pi(spec["pi"]), spec["C"])
    wm = ctx.wm

    def call():
        return wm.extensions.pi_details(ctx.graph([w], r))

    return Query(qid, {"word": w}, call, lambda got: _same(tuple(got[:2]), want, "(pi, C)"))


def _q_ae(spec, ctx, qid):
    r = spec["rank"]
    sym = ctx.sym(r)
    gens = ctx.gens(spec["gens"], sym)
    nodes = {sym.key(k): alg for k, alg in spec["nodes"]}
    ff = {(sym.key(a), sym.key(b)): v for a, b, v in spec["ff"]}
    wm = ctx.wm

    def check(poset):
        keys = [g.canonical_key.decode() for g in poset.nodes]
        got_nodes = dict(zip(keys, poset.alg_marks))
        got_ff = {(keys[i], keys[j]): v for (i, j), v in poset.ff_marks.items()}
        return _same(got_nodes, nodes, "nodes") or _same(got_ff, ff, "free-factor marks")

    return Query(qid, {"gens": gens}, lambda: wm.extensions.algebraic_extensions(ctx.graph(gens, r)), check)


def _q_iff(spec, ctx, qid):
    r = spec["rank"]
    sym = ctx.sym(r)
    m = ctx.gens(spec["m"], sym)
    j = ctx.gens(spec["j"], sym) if spec["j"] is not None else None
    wm = ctx.wm

    def call():
        J = ctx.graph(j, r) if j is not None else wm.stallings.rose(r)
        return wm.extensions.is_free_factor(ctx.graph(m, r), J)

    return Query(qid, {"m": m, "j": j}, call, lambda got: _same(got, spec["value"], "free factor"))


def _q_ffc(spec, ctx, qid):
    r = spec["rank"]
    sym = ctx.sym(r)
    h = ctx.gens(spec["h"], sym)
    j = ctx.gens(spec["j"], sym) if spec["j"] is not None else None
    want = sym.key(spec["key"])
    wm = ctx.wm

    def call():
        J = ctx.graph(j, r) if j is not None else wm.stallings.rose(r)
        return wm.extensions.ff_closure(ctx.graph(h, r), J)

    return Query(qid, {"h": h, "j": j}, call, lambda got: _same(got.canonical_key.decode(), want, "closure"))


# -- trace ------------------------------------------------------------------


def _q_trw(spec, ctx, qid):
    r, N = spec["rank"], spec["n"]
    w = ctx.word(spec["word"], r)
    wm = ctx.wm
    return Query(
        qid, {"word": w, "n": N},
        lambda: wm.measures.trw_exact(wm.words.parse(w, r), N),
        lambda got: _same(got, Fraction(spec["value"]), "Tr"),
    )


def _q_phi(spec, ctx, qid):
    r, N = spec["rank"], spec["n"]
    gens = ctx.gens(spec["gens"], ctx.sym(r))
    wm = ctx.wm
    return Query(
        qid, {"gens": gens, "n": N},
        lambda: wm.measures.phi_exact([wm.words.parse(g, r) for g in gens], r, N),
        lambda got: _same(got, Fraction(spec["value"]), "Phi"),
    )


def _q_derive(spec, ctx, qid):
    r, N = spec["rank"], spec["n"]
    sym = ctx.sym(r)
    gens = ctx.gens(spec["gens"], sym)
    want = {sym.key(k): (Fraction(phi), Fraction(R)) for k, phi, R in spec["nodes"]}
    wm = ctx.wm

    def check(table):
        got = {
            table.poset.nodes[i].canonical_key.decode(): (table.phi[i], table.values[i])
            for i in table.values
        }
        return _same(got, want, "R table")

    return Query(qid, {"gens": gens, "n": N}, lambda: wm.mobius.derive_R(ctx.graph(gens, r), N), check)


def _q_via(spec, ctx, qid):
    r, N = spec["rank"], spec["n"]
    gens = ctx.gens(spec["gens"], ctx.sym(r))
    wm = ctx.wm
    return Query(
        qid, {"gens": gens, "n": N},
        lambda: wm.mobius.phi_via_expansion(ctx.graph(gens, r), r, N),
        lambda got: _same(got, Fraction(spec["value"]), "Phi via expansion"),
    )


def _q_gap(spec, ctx, qid):
    r = spec["rank"]
    u = ctx.word(spec["word"], r)
    want = (spec["delta"], [(N, Fraction(g), Fraction(dev)) for N, g, dev in spec["rows"]])
    wm = ctx.wm

    def check(rep):
        got = (rep.delta, [(row.N, row.gap, row.deviation) for row in rep.rows])
        return _same(got, want, "power gap")

    return Query(
        qid, {"word": u, "d": spec["d"], "ns": spec["ns"]},
        lambda: wm.mobius.check_power_gap(wm.words.parse(u, r), spec["d"], spec["ns"]),
        check,
    )


def _q_fit(spec, ctx, qid):
    r = spec["rank"]
    w = ctx.word(spec["word"], r)
    want = (
        [(N, Fraction(t)) for N, t in spec["traces"]],
        _pi(spec["pi_estimate"]), spec["c_estimate"],
        _pi(spec["pi_combinatorial"]), spec["c_combinatorial"],
    )
    wm = ctx.wm

    def check(fit):
        got = (
            [(N, t) for N, t in fit.traces], fit.pi_estimate, fit.c_estimate,
            fit.pi_combinatorial, fit.c_combinatorial,
        )
        return _same(got, want, "fit")

    return Query(qid, {"word": w, "ns": spec["ns"]}, lambda: wm.mobius.fit_expansion(wm.words.parse(w, r), spec["ns"]), check)


def _q_mc(spec, ctx, qid):
    r, N, samples = spec["rank"], spec["n"], spec["samples"]
    w = ctx.word(spec["word"], r)
    exact = float(Fraction(spec["exact"]))
    seed = str(ctx.seed)
    wm = ctx.wm

    def check(got):
        mean, err = got
        # a correct estimator misses by six standard errors about once in 10^9 runs
        if err > 0 and abs(mean - exact) <= 6 * err:
            return None
        return f"Monte Carlo {mean} +- {err} vs exact {exact}"

    return Query(
        qid, {"word": w, "n": N, "samples": samples, "seed": seed},
        lambda: wm.measures.trw_monte_carlo(wm.words.parse(w, r), N, samples, seed),
        check,
    )


# -- distribution -----------------------------------------------------------


def _ct_support(pairs) -> list:
    return [(tuple(k), Fraction(p)) for k, p in pairs]


def _q_gload(spec, ctx, qid):
    name = spec["group"]
    data = cayley_dict(name)
    if ctx.vary:
        data, phi = relabel(data, ctx.rng)
    else:
        phi = list(range(data["order"]))
    ctx.phis[name] = phi
    wm = ctx.wm

    def call():
        G = wm.measures.FiniteGroupTable.from_json_dict(data)
        ctx.groups[name] = G
        return G

    def check(G):
        table = tuple(tuple(row) for row in data["table"])
        return _same((G.order, G.table), (data["order"], table), "group")

    return Query(qid, {"group": name, "labels": phi}, call, check)


def _group_measure(pairs, spec, ctx) -> dict:
    name = spec["group"]
    idx = class_index(ctx.classes[name], ctx.phis[name])
    return {idx[k]: Fraction(p) for k, p in pairs}


def _q_wm(spec, ctx, qid):
    r, N = spec["rank"], spec["n"]
    w = ctx.word(spec["word"], r)
    wm = ctx.wm
    return Query(
        qid, {"word": w, "n": N},
        lambda: wm.measures.word_measure_exact(wm.words.parse(w, r), N),
        lambda got: _same(list(got.support), _ct_support(spec["support"]), "measure"),
    )


def _q_cmp(spec, ctx, qid):
    r, N = spec["rank"], spec["n"]
    w1, w2 = ctx.word(spec["w1"], r), ctx.word(spec["w2"], r)
    want = compare_rule(dict(_ct_support(spec["m1"])), dict(_ct_support(spec["m2"])))
    wm = ctx.wm

    def check(c):
        return _same((c.equal, c.witness_class, c.prob1, c.prob2), want, "comparison")

    return Query(
        qid, {"w1": w1, "w2": w2, "n": N},
        lambda: wm.measures.compare_measures(wm.words.parse(w1, r), wm.words.parse(w2, r), N),
        check,
    )


def _q_wmg(spec, ctx, qid):
    r, name = spec["rank"], spec["group"]
    w = ctx.word(spec["word"], r)
    wm = ctx.wm

    def check(got):
        want = sorted(_group_measure(spec["support"], spec, ctx).items())
        return _same(list(got.support), want, "measure")

    return Query(
        qid, {"word": w, "group": name},
        lambda: wm.measures.word_measure_exact(wm.words.parse(w, r), ctx.groups[name]),
        check,
    )


def _q_cmpg(spec, ctx, qid):
    r, name = spec["rank"], spec["group"]
    w1, w2 = ctx.word(spec["w1"], r), ctx.word(spec["w2"], r)
    wm = ctx.wm

    def check(c):
        want = compare_rule(
            _group_measure(spec["m1"], spec, ctx),
            _group_measure(spec["m2"], spec, ctx),
        )
        return _same((c.equal, c.witness_class, c.prob1, c.prob2), want, "comparison")

    return Query(
        qid, {"w1": w1, "w2": w2, "group": name},
        lambda: wm.measures.compare_measures(
            wm.words.parse(w1, r), wm.words.parse(w2, r), ctx.groups[name]
        ),
        check,
    )


def _q_epi(spec, ctx, qid):
    r, name = spec["rank"], spec["group"]
    w = ctx.word(spec["word"], r)
    wm = ctx.wm

    def check(got):
        phi = ctx.phis[name]
        return _same(set(got), {phi[e] for e in spec["image"]}, "image")

    return Query(
        qid, {"word": w, "group": name},
        lambda: wm.measures.epi_image(wm.words.parse(w, r), ctx.groups[name]),
        check,
    )


def _q_obs(spec, ctx, qid):
    r, d, ns = spec["rank"], spec["d"], spec["ns"]
    w = ctx.word(spec["word"], r)
    seed = str(ctx.seed)
    wm = ctx.wm

    def check(v):
        got = (v.witness_degree, v.is_power_in_free_group, list(v.searched))
        bad = _same(got, (spec["witness_degree"], spec["free"], ns), "verdict")
        if bad or v.witness_tuple is None:
            return bad
        img = image_perm(letters_of(w), list(v.witness_tuple))
        if img in ctx.dth_powers(v.witness_degree, d):
            return f"witness image {img} is a {d}th power"
        return None

    return Query(
        qid, {"word": w, "d": d, "ns": ns, "seed": seed},
        lambda: wm.perm_powers.word_power_obstruction(wm.words.parse(w, r), d, ns, seed=seed),
        check,
    )


def _q_mom(spec, ctx, qid):
    b, t, N = spec["b"], spec["t"], spec["n"]
    want = tuple(Fraction(x) for x in spec["value"])
    wm = ctx.wm
    return Query(
        qid, {"b": b, "t": t, "n": N},
        lambda: wm.perm_powers.moments_exact(b, t, N),
        lambda got: _same(tuple(got), want, "moments"),
    )


# -- cli --------------------------------------------------------------------


def payload(text: str):
    """The part of an artifact that carries the answer.

    CSV: the rows below the `#` header; JSON: `result` (or the whole
    object when the artifact has no meta wrapper); DOT: the whole text.
    Version and configuration echoes are left out on purpose."""
    if text.startswith("digraph"):
        return text
    if text.lstrip().startswith("{"):
        obj = json.loads(text)
        return obj["result"] if set(obj) == {"meta", "result"} else obj
    return [line for line in text.splitlines() if not line.startswith("#")]


def _q_cli(spec, ctx, qid):
    argv = list(spec["argv"])
    want = spec["payload"]
    if ctx.vary and spec.get("vary"):
        i = argv.index("--word") + 1
        r = int(argv[argv.index("--rank") + 1])
        if spec["vary"] == "trw":
            argv[i] = ctx.word(argv[i], r)
        else:  # "root": the root of sym(w) is sym(root of w)
            sym = Sym.random(ctx.rng, r)
            argv[i] = text_of(sym.word(letters_of(argv[i])))
            want = dict(want, root=text_of(sym.word(letters_of(want["root"]))))
    out = spec.get("out")

    def check(got):
        code, text = got
        if code != 0:
            return f"exit code {code}"
        return _same(payload(text), want, "artifact")

    return Query(qid, {"argv": argv}, lambda: ctx.cli(argv, out), check)


KINDS = {
    "pi": _q_pi, "ae": _q_ae, "iff": _q_iff, "ffc": _q_ffc,
    "trw": _q_trw, "phi": _q_phi, "derive": _q_derive, "via": _q_via,
    "gap": _q_gap, "fit": _q_fit, "mc": _q_mc,
    "gload": _q_gload, "wm": _q_wm, "cmp": _q_cmp, "wmg": _q_wmg, "cmpg": _q_cmpg, "epi": _q_epi,
    "obs": _q_obs, "mom": _q_mom, "cli": _q_cli,
}


# `measures` runs the trace and distribution sections in one pass: both
# are the Hom sweep of `measures`, and within a fixed total measuring time
# one workload instead of two gets longer runs, which average more of a
# shared machine's changes of speed.
SECTIONS = {"poset": ("poset",), "measures": ("trace", "distribution"), "cli": ("cli",)}


def build(workload: str, expected: dict, ctx: Context, first: bool = True) -> list[Query]:
    """One pass of a workload: every base input of its sections, varied and shuffled.

    The README examples run in the first pass of a run only: repeated in
    every pass, their slow `mobius inequality` (4 s) would set the cli
    throughput, and their few slow processes the cli p90."""
    queries = []
    for section in SECTIONS[workload]:
        specs = expected[section]
        if section == "cli":
            readme = specs["readme"] if first else []
            specs = readme + ctx.rng.sample(specs["sweep"], expected["cli_sweep_per_pass"])
        queries += [make(spec, ctx, f"{section}/{spec['kind']}/{i}") for i, spec in enumerate(specs)]
    loads = [q for q in queries if "/gload/" in q.qid]
    rest = [q for q in queries if "/gload/" not in q.qid]
    ctx.rng.shuffle(rest)
    return loads + rest  # a Cayley table is loaded before the pass uses it


def smoke(expected: dict, ctx: Context) -> list[Query]:
    """One small query per layer, unvaried: proves every wrapper fires."""
    return [make(spec, ctx, f"smoke/{spec['kind']}/{i}") for i, spec in enumerate(expected["smoke"])]
