import functools
import itertools
import json
import math
import random
import re
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from wordmaps import measures, perm_powers
from wordmaps.errors import BudgetExceededError
from wordmaps.measures import (
    FiniteGroupTable,
    compare_measures,
    epi_image,
    phi_exact,
    trw_exact,
    trw_monte_carlo,
    word_measure_exact,
)
from wordmaps.words import parse


# -- all-tuples oracles ----------------------------------------------


def trw_exact_naive(w, N):
    """All-tuples oracle for trw_exact: fixed points over Hom(F_r, S_N)."""
    tuples = list(itertools.product(measures.all_perms(N), repeat=w.ambient_rank))
    fixed = sum(measures.fixed_points(measures.evaluate_word(w, list(t))) for t in tuples)
    return Fraction(fixed, len(tuples))


def word_measure_elementwise(w, G):
    """Element-level w-measure on a Cayley table, from the class measure:
    conjugation permutes Hom(F_r, G), so every element of a class carries
    the class's mass divided by the class size."""
    mass = word_measure_exact(w, G).as_dict
    return {
        a: mass[ci] / len(G.conjugacy_classes[ci])
        for a, ci in enumerate(G.class_of)
        if ci in mass
    }


# -- trw --------------------------------------------------------------


def test_trw_of_primitive_words_is_one():
    for text in ("x", "xy", "yx^-1"):
        w = parse(text)
        for N in range(1, 5):
            assert trw_exact(w, N) == 1


def test_trw_harmonic_family():
    w = parse("x^3y^2")
    for N in (3, 4, 5):
        assert trw_exact(w, N) == 1 + Fraction(1, N - 1)


def test_trw_of_square():
    # E[fix(sigma^2)] = number of square roots of identity restricted... known: 2 for N >= 2
    w = parse("x^2")
    for N in (2, 3, 4, 5):
        assert trw_exact(w, N) == 2


def test_trw_matches_naive():
    for text in ("x^2", "[x,y]", "x^2y^2", "xyx"):
        w = parse(text)
        for N in (2, 3):
            assert trw_exact(w, N) == trw_exact_naive(w, N)


def test_trw_beyond_the_quotient_vertex_cap():
    # Gamma([x,y]^4) has 16 vertices, more than `stallings.quotients` takes
    w = parse("[x,y]^4")
    for N in (2, 3, 4):
        assert trw_exact(w, N) == trw_exact_naive(w, N)


def test_trw_of_powers_counts_divisors():
    # E[fix(sigma^d)] = #{t | d : t <= N}, the cycle lengths that divide d
    for d in range(1, 13):
        w = parse(f"x^{d}")
        for N in range(1, 11):
            assert trw_exact(w, N) == sum(1 for t in range(1, N + 1) if d % t == 0)


def test_trw_of_commutator_closed_form():
    for N in range(2, 8):
        assert trw_exact(parse("[x,y]"), N) == Fraction(N, N - 1)


def test_trw_budget():
    # the quotient search of Gamma([x,y]^4) at N = 7 takes 86,398 steps
    with pytest.raises(BudgetExceededError, match=r"1000 steps, \d+ quotients"):
        trw_exact(parse("[x,y]^4"), 7, budget=1000)


def test_trw_commutator_at_huge_N():
    # the quotient sum costs the same at any N
    t0 = time.perf_counter()
    for N in (10**3, 10**6, 10**9):
        assert trw_exact(parse("[x,y]"), N) == Fraction(N, N - 1)
    assert time.perf_counter() - t0 < 0.5


def test_within_hom_budget_is_exact():
    # (3!)^2 x 4 = 144
    assert measures.within_hom_budget(3, 2, 4, 144)
    assert not measures.within_hom_budget(3, 2, 4, 143)
    assert measures.within_hom_budget(5, 1, 0, 120)
    assert not measures.within_hom_budget(5, 1, 0, 119)
    # a Cayley table enters as its order: 3^2 x 4 = 36
    assert measures.within_hom_budget(FiniteGroupTable.cyclic(3), 2, 4, 36)
    assert not measures.within_hom_budget(FiniteGroupTable.cyclic(3), 2, 4, 35)
    # N = 1 and r = 0 leave only the start value max(L, 1) to compare
    for N, r, L in itertools.product(range(1, 5), range(3), range(4)):
        work = math.factorial(N) ** r * max(L, 1)
        for b in {0, 1, work - 1, work, work + 1}:
            assert measures.within_hom_budget(N, r, L, b) == (work <= b), (N, r, L, b)


# -- phi --------------------------------------------------------------


def test_phi_of_trivial_subgroup():
    assert phi_exact([], 2, 5) == 5


def test_phi_of_full_rank_one():
    assert phi_exact([parse("a", 1)], 1, 5) == 1


def test_phi_of_squares():
    for N in (3, 4, 5):
        assert phi_exact([parse("a^2", 1)], 1, N) == 2


def test_phi_joint_generators():
    # common fixed points of two independent uniform permutations:
    # N points, each fixed by both with probability 1/N^2
    for N in (2, 3, 4):
        assert phi_exact([parse("a", 2), parse("b", 2)], 2, N) == Fraction(1, N)


def test_phi_relative_identifies_with_ambient():
    assert phi_exact([parse("a^2", 1)], 1, 3) == 2
    assert phi_exact([], 0, 7) == 7


# -- Cayley tables ----------------------------------------------------


def z3():
    return FiniteGroupTable.cyclic(3)


def test_order_cap_is_checked_before_the_axioms():
    t0 = time.perf_counter()
    with pytest.raises(BudgetExceededError, match="group order 200 exceeds cap 64"):
        FiniteGroupTable.cyclic(200)
    assert time.perf_counter() - t0 < 0.1


def test_cyclic_table_valid():
    G = z3()
    assert G.order == 3
    assert G.inverse == (0, 2, 1)


def test_table_validation_rejects_bad_identity():
    with pytest.raises(ValueError):
        FiniteGroupTable(2, ((1, 0), (0, 1)), ("e", "g"))


def test_word_measure_on_cyclic_group():
    # x^3 on Z_3 is constant at the identity
    m = word_measure_elementwise(parse("x^3"), z3())
    assert m == {0: Fraction(1)}


def test_from_json_round_trip():
    G = z3()
    data = {
        "order": 3,
        "table": [list(row) for row in G.table],
        "names": list(G.names),
    }
    assert FiniteGroupTable.from_json_dict(json.loads(json.dumps(data))).table == G.table


# -- measure tables and comparison ------------------------------------


def test_measure_table_sums_to_one():
    for text, group in (("[x,y]", 4), ("x^2", 3), ("x", 5)):
        table = word_measure_exact(parse(text), group)
        assert sum(p for _, p in table.support) == 1


def test_compare_equal_pair():
    for N in (2, 3, 4):
        assert compare_measures(parse("[x,y]"), parse("xyxY"), N).equal


def test_compare_unequal_with_transposition_witness():
    cmp = compare_measures(parse("x"), parse("x^2"), 3)
    assert not cmp.equal
    assert cmp.witness_class == (2, 1)
    assert cmp.prob2 == 0


def test_epi_image_on_cyclic():
    # surjections F_1 -> Z_3 send x to a generator; x^3 maps to identity
    assert epi_image(parse("x"), z3()) == {1, 2}
    assert epi_image(parse("x^3"), z3()) == {0}


# -- Monte Carlo ------------------------------------------------------


def test_mc_is_deterministic_for_seed():
    w = parse("[x,y]")
    a = trw_monte_carlo(w, 4, 500, seed=7)
    b = trw_monte_carlo(w, 4, 500, seed=7)
    assert a == b
    c = trw_monte_carlo(w, 4, 500, seed=8)
    assert a != c


def test_mc_value_is_pinned():
    # one stream, Random("3/0"); renaming the stream changes this value
    assert trw_monte_carlo(parse("[x,y]"), 5, 1000, seed=3) == (1.195, 0.038554655509567985)


def test_mc_close_to_exact():
    w = parse("x^2")
    exact = float(trw_exact(w, 5))
    mean, err = trw_monte_carlo(w, 5, 4000, seed=1)
    assert abs(mean - exact) <= 5 * err


# -- invariants -------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(["x", "xy", "x^2", "[x,y]", "xYx"]), st.integers(2, 4))
def test_conjugation_invariance(text, N):
    w = parse(text)
    conj = parse("ba", 2).with_rank(max(2, w.ambient_rank))
    assert trw_exact(w.with_rank(conj.ambient_rank).conjugate_by(conj), N) == trw_exact(
        w, N
    )


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(["x", "xy", "x^2", "[x,y]"]), st.integers(2, 4))
def test_inverse_invariance(text, N):
    w = parse(text)
    assert trw_exact(w.inverse(), N) == trw_exact(w, N)


# -- shared sweep vs all-tuples oracle --------------------------------


def _oracle_images(letter_lists, r: int, N: int):
    """Every tuple of Hom(F_r, S_N), no class collapse: the images of
    each letter list, by direct right-action composition."""
    for perms in itertools.product(itertools.permutations(range(N)), repeat=r):
        images = []
        for letters in letter_lists:
            img = list(range(N))
            for g, s in letters:
                p = perms[g - 1]
                img = [p[q] if s == 1 else p.index(q) for q in img]
            images.append(img)
        yield images


def _oracle_cycle_type(img) -> tuple[int, ...]:
    lengths, seen = [], set()
    for i in range(len(img)):
        if i not in seen:
            n, j = 0, i
            while j not in seen:
                seen.add(j)
                j = img[j]
                n += 1
            lengths.append(n)
    return tuple(sorted(lengths, reverse=True))


# words that use a generator and its inverse (xyxY, x^2yXy, x^2y^2XY,
# xyzXYZ; aB, [a,b], aBA) fail if the sweep pairs a coordinate with the
# wrong inverse; aab, xyz, abc, xyzXYZ and xyXYxy are not the shortest of
# their Aut(F_r)-orbits, so the sweep runs on a shorter word, of lower
# rank for all but xyXYxy
@pytest.mark.parametrize(
    "text,max_N",
    [("x", 5), ("x^2", 5), ("aab", 5), ("[x,y]", 5), ("xyxY", 5), ("x^2yXy", 5),
     ("x^2y^2XY", 5), ("x^2y^3", 5), ("xyz", 4), ("xyzXYZ", 4), ("abc", 4), ("xyXYxy", 5)],
)
def test_measure_table_matches_all_tuples_oracle(text, max_N):
    w = parse(text)
    r = w.ambient_rank
    for N in range(1, max_N + 1):
        counts: dict = {}
        for (img,) in _oracle_images([w.letters], r, N):
            key = _oracle_cycle_type(img)
            counts[key] = counts.get(key, 0) + 1
        total = sum(counts.values())
        want = {k: Fraction(c, total) for k, c in counts.items()}
        assert word_measure_exact(w, N).as_dict == want, (text, N)


@pytest.mark.parametrize(
    "gens,r,max_N",
    [(["a^2", "ab"], 2, 5), (["aB", "ab"], 2, 5), (["[a,b]", "a^2"], 2, 5),
     (["aBA", "b^2"], 2, 5), (["ab", "bc"], 3, 4)],
)
def test_phi_matches_all_tuples_oracle(gens, r, max_N):
    words = [parse(g, r) for g in gens]
    for N in range(1, max_N + 1):
        total = 0
        count = 0
        for images in _oracle_images([w.letters for w in words], r, N):
            total += sum(1 for q in range(N) if all(img[q] == q for img in images))
            count += 1
        assert phi_exact(words, r, N) == Fraction(total, count), (gens, N)


# -- Cayley tables vs all-tuples oracle -------------------------------


def _perm_table(gens) -> FiniteGroupTable:
    """The Cayley table of the permutation group generated by gens,
    identity first, composed first-left-then-right."""
    n = len(gens[0])
    elems = [tuple(range(n))]
    for a in elems:
        for g in gens:
            b = tuple(g[q] for q in a)
            if b not in elems:
                elems.append(b)
    index = {e: i for i, e in enumerate(elems)}
    table = tuple(tuple(index[tuple(b[q] for q in a)] for b in elems) for a in elems)
    return FiniteGroupTable(len(elems), table)


def _oracle_table(w, G):
    """Every tuple of Hom(F_r, G), no class collapse: (image counts by
    element, the set of images of surjective tuples)."""
    inverse = [next(b for b in range(G.order) if G.table[a][b] == 0) for a in range(G.order)]
    counts = [0] * G.order
    epi = set()
    for elems in itertools.product(range(G.order), repeat=w.ambient_rank):
        img = 0
        for g, s in w.letters:
            img = G.table[img][elems[g - 1] if s == 1 else inverse[elems[g - 1]]]
        counts[img] += 1
        reached, frontier = {0}, [0]
        while frontier:
            a = frontier.pop()
            for e in elems:
                for b in (G.table[a][e], G.table[a][inverse[e]]):
                    if b not in reached:
                        reached.add(b)
                        frontier.append(b)
        if len(reached) == G.order:
            epi.add(img)
    return counts, epi


CAYLEY_GROUPS = {
    **{f"Z{n}": FiniteGroupTable.cyclic(n) for n in range(1, 7)},
    "S3": _perm_table([(1, 0, 2), (1, 2, 0)]),
    "S4": _perm_table([(1, 0, 2, 3), (1, 2, 3, 0)]),
    "A5": _perm_table([(1, 2, 0, 3, 4), (1, 2, 3, 4, 0)]),
    "D4": _perm_table([(1, 2, 3, 0), (3, 2, 1, 0)]),
}


CAYLEY_WORDS = [("1", None), ("a", 2), ("b", 2), ("x^2", None), ("[x,y]", None),
                ("[x,y]^2", None), ("x^2y^3", None), ("xyXYxy", None)]


# the identity, a first and an unused coordinate at rank 2, [x,y]^2, the
# non-minimal xyXYxy, and the primitive abc on the groups of order <= 8,
# where the oracle's |G|^3 tuples stay few
@pytest.mark.parametrize(
    "text,rank,name",
    [(text, rank, name) for text, rank in CAYLEY_WORDS for name in sorted(CAYLEY_GROUPS)]
    + [("abc", None, name) for name in sorted(CAYLEY_GROUPS) if CAYLEY_GROUPS[name].order <= 8],
)
def test_cayley_measures_match_all_tuples_oracle(text, rank, name):
    G = CAYLEY_GROUPS[name]
    w = parse(text, rank)
    counts, epi = _oracle_table(w, G)
    total = sum(counts)
    assert word_measure_elementwise(w, G) == {
        a: Fraction(c, total) for a, c in enumerate(counts) if c
    }
    by_class: dict = {}
    for a, c in enumerate(counts):
        if c:
            by_class[G.class_of[a]] = by_class.get(G.class_of[a], 0) + c
    want = tuple(sorted((k, Fraction(c, total)) for k, c in by_class.items()))
    assert word_measure_exact(w, G).support == want
    assert epi_image(w, G) == epi


# -- orbit sweep vs the first-coordinate sweep ------------------------


def _first_coordinate_sweep(group, r):
    """Hom(F_r, G) with only the first coordinate collapsed by conjugacy
    class and the other r - 1 over all of G: the oracle of
    `class_collapsed_tuples`."""
    if isinstance(group, FiniteGroupTable):
        classes = [(cls[0], len(cls)) for cls in group.conjugacy_classes]
        pool = list(range(group.order))
        inverse = dict(enumerate(group.inverse))
    else:
        classes = [(measures._class_rep(lam), measures._class_size(lam, group))
                   for lam in measures._partitions(group)]
        pool = list(itertools.permutations(range(group)))
        inverse = {p: measures.invert(p) for p in pool}
    for rep, size in classes:
        for rest in itertools.product(pool, repeat=r - 1):
            elems = (rep,) + rest
            yield size, elems, tuple(inverse[p] for p in elems)


def _sweep_group(spec):
    """A Cayley table by name, or an S_N degree."""
    return CAYLEY_GROUPS[spec] if isinstance(spec, str) else spec


# tuples at r = 2: sum over classes of |C(c)|, against k(G) |G|
@pytest.mark.parametrize(
    "name,r,tuples",
    [(1, 2, 1), (2, 2, 4), (3, 2, 11), (4, 2, 43), (5, 2, 161), (6, 2, 901),
     (7, 2, 5579), (1, 3, 1), (2, 3, 8), (3, 3, 66), (4, 3, 1032), (5, 3, 19320),
     ("A5", 2, 77), ("S4", 2, 43), ("D4", 2, 28), ("Z6", 2, 36), ("A5", 3, 4620),
     ("D4", 3, 224)],
)
def test_sweep_weights_sum_to_all_tuples(name, r, tuples):
    group = _sweep_group(name)
    order = group.order if isinstance(group, FiniteGroupTable) else math.factorial(group)
    weights = [weight for weight, _, _ in measures.class_collapsed_tuples(group, r)]
    assert len(weights) == tuples
    assert sum(weights) == order**r


@pytest.mark.parametrize("name", [1, 2, 3, 4, 5, 6, 7, "A5", "S4", "D4", "Z6"])
def test_each_second_coordinate_is_least_of_its_centralizer_orbit(name):
    group = _sweep_group(name)
    if isinstance(group, FiniteGroupTable):
        elements = list(range(group.order))
        mul = lambda a, b: group.table[a][b]  # noqa: E731
        inv = group.inverse.__getitem__
    else:
        elements = sorted(itertools.permutations(range(group)))
        mul = lambda p, q: tuple(q[i] for i in p)  # noqa: E731
        inv = lambda p: tuple(sorted(range(len(p)), key=p.__getitem__))  # noqa: E731
    sweep = list(measures.class_collapsed_tuples(group, 2))
    assert all(invs == tuple(map(inv, elems)) for _, elems, invs in sweep)
    heads = list(dict.fromkeys(elems[0] for _, elems, _ in sweep))
    # the classes and their order are those of the r = 1 sweep
    assert heads == [elems[0] for _, elems, _ in measures.class_collapsed_tuples(group, 1)]
    for c in heads:
        cent = [h for h in elements if mul(h, c) == mul(c, h)]
        want, seen = [], set()
        for x in elements:
            if x not in seen:
                orbit = {mul(mul(inv(h), x), h) for h in cent}
                seen |= orbit
                want.append((x, len(elements) // len(cent) * len(orbit)))
        assert [(elems[1], weight) for weight, elems, _ in sweep if elems[0] == c] == want


SWEEP_WORDS = ["x", "x^2", "aab", "[x,y]", "xyxY", "x^2yXy", "x^2y^2XY", "x^2y^3", "xyz", "xyzXYZ"]


@functools.cache
def _oracle_measure(text, N):
    """The measure of the word `text` (letters a, b, ...) on S_N through
    the first-coordinate sweep."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(measures, "class_collapsed_tuples", _first_coordinate_sweep)
        return word_measure_exact(parse(text), N)


# S6 and S7 at r <= 2, S5 at r = 3; each word is compared with the next
# word of its rank group
@pytest.mark.parametrize("text", SWEEP_WORDS)
def test_orbit_sweep_matches_the_first_coordinate_sweep(monkeypatch, text):
    w = parse(text)
    group_words = [t for t in SWEEP_WORDS if (parse(t).ambient_rank <= 2) == (w.ambient_rank <= 2)]
    partner = group_words[(group_words.index(text) + 1) % len(group_words)]
    for N in (6, 7) if w.ambient_rank <= 2 else (5,):
        got = word_measure_exact(w, N), compare_measures(w, parse(partner), N)
        with monkeypatch.context() as mp:
            mp.setattr(measures, "word_measure_exact", lambda v, group, budget: _oracle_measure(str(v), group))
            want = _oracle_measure(str(w), N), compare_measures(w, parse(partner), N)
        assert got == want, (text, partner, N)


def test_rank_one_sweeps_build_no_pool(monkeypatch):
    # a one-letter word on S10-S12 must not enumerate N!
    def refuse(N):
        raise AssertionError(f"all_perms({N}) ran for a rank-1 sweep")

    monkeypatch.setattr(measures, "all_perms", refuse)
    cached = measures._sn_pair_orbits.cache_info().currsize
    table = word_measure_exact(parse("x^3"), 12, budget=10**10)
    assert sum(p for _, p in table.support) == 1
    verdict = perm_powers.word_power_obstruction(parse("x^2"), 2, list(range(1, 10)))
    assert verdict.searched == tuple(range(1, 10)) and not verdict.conclusive
    assert measures._sn_pair_orbits.cache_info().currsize == cached


# -- measures sweep the Whitehead-minimal word ------------------------


def test_budget_is_costed_on_the_minimal_word():
    # aab is primitive: its sweep is the one-letter sweep, 5! x 1 on S5
    assert word_measure_exact(parse("aab"), 5, budget=120) == word_measure_exact(parse("x"), 5)
    with pytest.raises(BudgetExceededError):
        word_measure_exact(parse("aab"), 5, budget=119)
    # (9!)^2 x 3 would pass the default budget; 9! x 1 does not
    assert word_measure_exact(parse("a^2b"), 9) == word_measure_exact(parse("a"), 9)
    G = CAYLEY_GROUPS["A5"]
    assert word_measure_exact(parse("xyXYxy"), G, budget=60**2 * 5).support
    with pytest.raises(BudgetExceededError):
        word_measure_exact(parse("xyXYxy"), G, budget=60**2 * 5 - 1)


def test_measures_never_enumerate_whitehead_moves(monkeypatch):
    from wordmaps import words

    def refuse(rank):
        raise AssertionError("a measure enumerated the Whitehead moves")

    monkeypatch.setattr(words, "enumerate_whitehead_moves", refuse)
    for text in ("aab", "xyXYxy", "abcABC"):
        word_measure_exact(parse(text), 4)
        compare_measures(parse(text), parse("[x,y]"), CAYLEY_GROUPS["S3"])


def test_mc_budget_is_checked_before_the_first_sample(monkeypatch):
    def refuse(*args):
        raise AssertionError("a sample was drawn")

    monkeypatch.setattr(measures, "random_tuple", refuse)
    # 20,000 samples x length 4 x N = 5
    with pytest.raises(BudgetExceededError, match=r"samples=20000, max\(length, 1\)=4, N=5\)"):
        trw_monte_carlo(parse("[a,b]"), 5, 20000, seed=1, budget=399_999)
    # each sample shuffles N points: two samples at N = 200,000 cost 1.6M
    with pytest.raises(BudgetExceededError, match=r"max\(length, 1\) x N exceeds the budget 8 "):
        trw_monte_carlo(parse("[a,b]"), 200_000, 2, seed=1, budget=8)
    monkeypatch.undo()
    assert trw_monte_carlo(parse("[a,b]"), 5, 20000, seed=1, budget=400_000)


def charged(message: str) -> int:
    """The product that a budget message names, evaluated on the figures it
    prints: "what A x B^r exceeds the budget b (A=.., B=.., r=..)", where a
    figure "k!" stands for k factorial."""
    formula, rest = message.split(" exceeds the budget ")
    figures = {
        name: math.factorial(int(v[:-1])) if v.endswith("!") else int(v)
        for name, v in re.findall(r"(?:\(|, )([^=]+?)=(\d+!?)", rest)
    }
    work = 1
    for term in formula.split(" x "):
        base, _, power = term.partition("^")
        name = next(k for k in figures if base == k or base.endswith(" " + k))
        work *= figures[name] ** (figures[power] if power else 1)
    return work


def test_budget_refusals_print_factors_past_the_budget():
    refusals = []
    groups = [*range(1, 6), FiniteGroupTable.cyclic(3)]
    words = [parse(t) for t in ("1", "x", "[a,b]")]
    for group, w, budget in itertools.product(groups, words, range(4)):
        sweeps = [lambda: word_measure_exact(w, group, budget)]
        if isinstance(group, FiniteGroupTable):
            sweeps.append(lambda: epi_image(w, group, budget))
        for sweep in sweeps:
            try:
                sweep()
            except BudgetExceededError as e:
                refusals.append((str(e), budget))
    for w, N, samples, budget in itertools.product(words, range(1, 4), (2, 3), range(40)):
        try:
            trw_monte_carlo(w, N, samples, seed=0, budget=budget)
        except BudgetExceededError as e:
            refusals.append((str(e), budget))
    assert len(refusals) > 100
    for message, budget in refusals:
        assert charged(message) > budget, message


def test_epi_image_is_costed_on_tuples_times_length():
    # |A5|^2 x len(abAB) = 3,600 x 4, as for a Cayley measure
    G = CAYLEY_GROUPS["A5"]
    assert epi_image(parse("abAB"), G, budget=14_400)
    with pytest.raises(BudgetExceededError, match="epimorphism enumeration"):
        epi_image(parse("abAB"), G, budget=14_399)


# -- Light's associativity test ---------------------------------------


def associativity_oracle(table):
    """The first (a, b, c) in lexicographic order with (ab)c != a(bc),
    over all n^3 triples, or None."""
    n = len(table)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if table[table[a][b]][c] != table[a][table[b][c]]:
                    return a, b, c
    return None


def _perturbations(G, rng, count=None):
    """Tables that differ from G's in one entry off row and column 0, so
    that closure and the identity still hold: every one, or `count` of
    them drawn by rng."""
    n = G.order
    cells = [(i, j, v) for i in range(1, n) for j in range(1, n) for v in range(n) if v != G.table[i][j]]
    for i, j, v in cells if count is None else rng.sample(cells, count):
        rows = [list(row) for row in G.table]
        rows[i][j] = v
        yield tuple(map(tuple, rows))


@pytest.mark.parametrize("name,count", [("Z5", None), ("Z6", None), ("S3", None), ("D4", None), ("A5", 60)])
def test_light_test_agrees_with_the_triple_loop(name, count):
    G = CAYLEY_GROUPS[name]
    assert associativity_oracle(G.table) is None
    rejected = 0
    for table in _perturbations(G, random.Random(name), count):
        try:
            FiniteGroupTable(G.order, table)
            named = None
        except ValueError as e:
            named = str(e)
        triple = associativity_oracle(table)
        if named is None or not named.startswith("associativity fails at "):
            assert triple is None, (table, named)
            continue
        rejected += 1
        assert triple is not None
        a, b, c = map(int, named.removeprefix("associativity fails at ").strip("()").split(","))
        assert table[table[a][b]][c] != table[a][table[b][c]]
    # a table one entry away from a group's is never associative
    assert rejected == (G.order - 1) ** 3 if count is None else rejected == count


def test_non_associative_table_is_rejected():
    # order 3 with identity 0 and the Latin square 1*1 = 1, 1*2 = 0,
    # 2*1 = 0, 2*2 = 2: (1 1) 2 = 1 2 = 0 but 1 (1 2) = 1 0 = 1
    with pytest.raises(ValueError, match=r"associativity fails at \(1,1,2\)"):
        FiniteGroupTable(3, ((0, 1, 2), (1, 1, 0), (2, 0, 2)))


def test_associative_table_without_inverses_passes_light_test():
    # the monoid {1, e, z} with e idempotent and z absorbing is
    # associative, so it fails only for want of inverses
    table = ((0, 1, 2), (1, 1, 2), (2, 2, 2))
    assert associativity_oracle(table) is None
    with pytest.raises(ValueError, match="element 1 has no inverse"):
        FiniteGroupTable(3, table)
