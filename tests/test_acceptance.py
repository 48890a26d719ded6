"""Acceptance gate: ten pinned criteria, one pass/fail line each.

Each test prints its verdict directly to the real stdout so the line
survives pytest's capture, then asserts it.
"""
import itertools
import random
from fractions import Fraction

from wordmaps import extensions, measures, mobius, perm_powers, stallings
from wordmaps.errors import HypothesisError
from wordmaps.extensions import INFINITE_RANK
from wordmaps.measures import compare_measures, phi_exact, trw_exact, trw_monte_carlo
from wordmaps.perm_powers import dth_root, is_dth_power, power_of_permutation
from wordmaps.stallings import PreGraph, fold, from_generators
from wordmaps.words import Word, enumerate_whitehead_moves, parse


def report(capfd, num: int, desc: str, ok: bool):
    line = f"{'PASS' if ok else 'FAIL'} criterion {num}: {desc}"
    with capfd.disabled():
        print(line, flush=True)
    assert ok, line


def graph(gens, rank):
    return from_generators([parse(g, rank) for g in gens], rank)


def test_criterion_01_exact_trace_family(capfd):
    ok = all(
        trw_exact(parse("x^3y^2"), N) == 1 + Fraction(1, N - 1) for N in (3, 4, 5, 6)
    )
    report(capfd, 1, "trw(x^3y^2, N) = 1 + 1/(N-1) exactly for N in 3..6", ok)


def test_criterion_02_primitive_flatness(capfd):
    ok = all(
        trw_exact(parse(t), N) == 1
        for t in ("x", "xy", "yx^-1")
        for N in range(1, 7)
    )
    report(capfd, 2, "trw(w, N) = 1 exactly for primitive w in {x, xy, yx^-1}, N in 1..6", ok)


def test_criterion_03_cycle_moments(capfd):
    cases = (
        [(1, 1, N) for N in range(2, 10)]
        + [(1, 2, N) for N in range(4, 10)]
        + [(2, 2, N) for N in range(8, 10)]
        + [(1, 3, N) for N in range(6, 10)]
        + [(3, 3, 9)]
    )
    ok = True
    for b, t, N in cases:
        first, second = perm_powers.moments_exact(b, t, N)
        if first != Fraction(1, t):
            ok = False
        # the second-moment formula needs two disjoint bt-cycles, i.e. N >= 2bt;
        # at (3,3,9) the exact value is 1, not 10/9 (frozen via the naive oracle)
        if N >= 2 * b * t and second != Fraction(b, t) + Fraction(1, t * t):
            ok = False
    report(capfd, 3, "moments of c_t(sigma^b) equal (1/t, b/t + 1/t^2) exactly (second moment checked where N >= 2bt)", ok)


def test_criterion_04_power_criterion_vs_oracle(capfd):
    ok = True
    for N in range(1, 8):
        perms = [tuple(p) for p in itertools.permutations(range(N))]
        for d in (2, 3, 4, 5, 6):
            powers = {power_of_permutation(p, d) for p in perms}
            for p in perms:
                if is_dth_power(p, d) != (p in powers):
                    ok = False
                root = dth_root(p, d)
                if (root is None) == (p in powers):
                    ok = False
                if root is not None and power_of_permutation(root, d) != p:
                    ok = False
            if not ok:
                break
        if not ok:
            break
    report(capfd, 4, "d-th power criterion matches the brute-force oracle on S_N, N <= 7, d in 2..6", ok)


def test_criterion_05_expansion_oracle_equivalence(capfd):
    corpus = [
        (["a"], 1),
        (["a^2"], 1),
        (["a^3"], 1),
        (["[a,b]"], 2),
        (["a^2", "ab"], 2),
    ]
    ok = all(
        mobius.phi_via_expansion(graph(gens, rank), rank, N)
        == phi_exact([parse(g, rank) for g in gens], rank, N)
        for gens, rank in corpus
        for N in (3, 4, 5)
    )
    report(capfd, 5, "sum of R over algebraic extensions equals the exact Phi on the corpus", ok)


def test_criterion_06_expansion_fit(capfd):
    fit = mobius.fit_expansion(parse("[x,y]"), [4, 5, 6, 7])
    poset = extensions.algebraic_extensions(graph(["[a,b]"], 2))
    ae = sorted(
        tuple(str(b) for b in stallings.basis(g)) for g in poset.algebraic_nodes()
    )
    ok = (
        fit.pi_estimate == 2
        and abs(fit.c_estimate - 1) <= 0.2
        and fit.pi_combinatorial == 2
        and fit.c_combinatorial == 1
        and ae == [("a", "b"), ("baBA",)]
    )
    report(capfd, 6, "fit of Tr_[x,y] gives pi = 2, |C - 1| <= 0.2, AE = {<[x,y]>, F_2}", ok)


def test_criterion_07_strict_inequality_and_rejection(capfd):
    rep = mobius.check_substitution_inequality(
        parse("[x,y]"), [parse("a^2", 2), parse("b", 2)], [5, 6, 7]
    )
    rep1 = mobius.check_substitution_inequality(parse("x"), [parse("a^2", 1)], list(range(2, 8)))
    rejected = True
    for n in (2, 3):
        try:
            mobius.check_substitution_inequality(
                parse("xy"), [parse(f"a^{n}", 2), parse("b", 2)], [3]
            )
            rejected = False
        except HypothesisError:
            pass
    ok = (
        rep.all_strict
        and rep1.all_strict
        and all((r.lhs, r.rhs) == (1, 2) for r in rep1.rows)
        and rejected
    )
    report(capfd, 7, "strict trace inequality holds for non-free-factor images; primitive w rejected", ok)


def test_criterion_08_power_gap(capfd):
    ok = all(
        row.deviation == 0
        for d in (2, 3, 4)
        for row in mobius.check_power_gap(parse("x"), d, list(range(d, 8))).rows
    )
    report(capfd, 8, "Tr_{x^d} - Tr_x equals the divisor count of d minus one for N >= d", ok)


def test_criterion_09_measure_comparison(capfd):
    equal_ok = all(
        compare_measures(parse("[x,y]"), parse("xyxY"), N).equal for N in (2, 3, 4, 5)
    )
    cmp = compare_measures(parse("x"), parse("x^2"), 3)
    ok = equal_ok and not cmp.equal and cmp.witness_class == (2, 1)
    report(capfd, 9, "[x,y] and xyxY induce the same measure on S_N; x vs x^2 differ at the transposition class", ok)


# -- criterion 10: property suites ------------------------------------


def _random_pregraph(rng):
    rank = rng.randint(1, 3)
    pre = PreGraph(rank, 1, [])
    for _ in range(rng.randint(1, 4)):
        letters = []
        for _ in range(rng.randint(1, 6)):
            g = rng.randint(1, rank)
            s = rng.choice([1, -1])
            if letters and letters[-1][0] == g and letters[-1][1] == -s:
                continue
            letters.append((g, s))
        if letters:
            pre.add_word_loop(Word(rank, tuple(letters)))
    return pre


def _shuffled(pre, rng):
    perm = list(range(1, pre.num_vertices))
    rng.shuffle(perm)
    rename = {0: 0} | {old: new for new, old in enumerate(perm, start=1)}
    edges = [(rename[t], lbl, rename[h]) for t, lbl, h in pre.edges]
    rng.shuffle(edges)
    return PreGraph(pre.ambient_rank, pre.num_vertices, edges)


def test_criterion_10a_fold_confluence(capfd):
    rng = random.Random(1234)
    ok = True
    for _ in range(50):
        pre = _random_pregraph(rng)
        keys = {fold(_shuffled(pre, rng)).canonical_key for _ in range(10)}
        if len(keys) != 1:
            ok = False
    report(capfd, 10, "fold confluence: 50 graphs x 10 edge orders give one canonical key each", ok)


def test_criterion_10b_aut_invariance(capfd):
    rng = random.Random(99)
    moves = enumerate_whitehead_moves(2)
    words = [parse(t, 2) for t in ("[a,b]", "a^2b", "ab^2a", "a^3", "abab")]
    ok = True
    for _ in range(20):
        move = rng.choice(moves)
        w = rng.choice(words)
        N = rng.randint(2, 5)
        if trw_exact(move.apply(w), N) != trw_exact(w, N):
            ok = False
    report(capfd, 10, "trw is invariant under 20 random basis automorphisms at N <= 5", ok)


def test_criterion_10d_monte_carlo_consistency(capfd):
    w = parse("x^2y^2")
    exact = float(trw_exact(w, 5))
    strikes = 0
    for seed in (0, 1, 2):
        mean, err = trw_monte_carlo(w, 5, 3000, seed=seed)
        if abs(mean - exact) <= 5 * err:
            break
        strikes += 1
    report(capfd, 10, "Monte Carlo estimate within 5 standard errors of exact (3-strike policy)", strikes < 3)
