import functools
import itertools
import json
import math
import platform
import random
import re
import time
from collections import Counter
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
from wordmaps.words import Word, free_reduce, parse, whitehead_minimal


# -- all-tuples oracles ----------------------------------------------


def word_image_pointwise(letters, perms, invs):
    """Pointwise oracle for `measures.word_image`: one Python list per
    letter, built point by point (right action: the first letter acts
    first)."""
    img = range(len(perms[0])) if perms else ()
    for g, s in letters:
        p = perms[g - 1] if s == 1 else invs[g - 1]
        img = [p[q] for q in img]
    return tuple(img)


def invert_pointwise(p):
    return tuple(sorted(range(len(p)), key=p.__getitem__))


def trw_exact_naive(w, N):
    """All-tuples oracle for trw_exact: fixed points over Hom(F_r, S_N)."""
    tuples = list(itertools.product(itertools.permutations(range(N)), repeat=w.ambient_rank))
    fixed = 0
    for t in tuples:
        img = word_image_pointwise(w.letters, t, [invert_pointwise(p) for p in t])
        fixed += sum(q == x for q, x in enumerate(img))
    return Fraction(fixed, len(tuples))


def test_word_image_matches_the_pointwise_oracle():
    # random letter sequences, reduced or not, at r = 0..3 and length
    # 0..10 on S_1..S_7; the rank-0 cases evaluate the identity word on
    # one unused permutation, which fixes the degree
    rng = random.Random(0)
    cases = 0
    for N, r in itertools.product(range(1, 8), range(4)):
        for length in ([0] + [rng.randint(1, 10) for _ in range(12)]) if r else [0]:
            perms = tuple(tuple(rng.sample(range(N), N)) for _ in range(max(r, 1)))
            invs = tuple(map(invert_pointwise, perms))
            letters = tuple((rng.randint(1, r), rng.choice((1, -1))) for _ in range(length))
            want = word_image_pointwise(letters, perms, invs)
            assert measures.word_image(letters, perms, invs) == want, (N, letters)
            reduced = free_reduce(letters)
            assert measures.word_image(reduced, perms, tuple(map(measures.invert, perms))) == (
                word_image_pointwise(reduced, perms, invs)
            ), (N, letters)
            cases += 1
    assert cases == 7 * (1 + 3 * 13)
    assert measures.word_image((), (), ()) == word_image_pointwise((), (), ()) == ()
    for p, q in itertools.product(itertools.permutations(range(3)), repeat=2):
        assert measures.compose(p, q) == word_image_pointwise(((1, 1), (2, 1)), (p, q), ())
    assert measures.compose((0,), (0,)) == (0,) and measures.compose((), ()) == ()


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


DEGREE_CALLS = {  # name -> (call at degree N, its value at N = 0)
    "class_collapsed_tuples": (lambda N: list(measures.class_collapsed_tuples(N, 2)),
                               [(1, ((), ()), ((), ()))]),
    "compare_measures": (lambda N: compare_measures(parse("ab"), parse("a"), N),
                         measures.MeasureComparison(True)),
    "trw_monte_carlo": (lambda N: trw_monte_carlo(parse("ab"), N, 10, 0), (0.0, 0.0)),
    "within_hom_budget": (lambda N: measures.within_hom_budget(N, 2, 1, 10), True),
    "word_measure_exact": (lambda N: word_measure_exact(parse("abaB"), N),
                           measures.MeasureTable("S0", (((), Fraction(1)),))),
    "word_power_obstruction": (lambda N: perm_powers.word_power_obstruction(parse("ab"), 2, [N]),
                               perm_powers.ObstructionVerdict("ab", 2, None, None, (0,), False)),
}


@pytest.mark.parametrize("name", sorted(DEGREE_CALLS))
def test_a_negative_degree_is_refused_and_degree_zero_is_trivial(name):
    call, at_zero = DEGREE_CALLS[name]
    for N in (-1, -3):
        with pytest.raises(ValueError, match=f"degree must be non-negative, got {N}$"):
            call(N)
    # S_0 holds one element, the empty permutation
    assert call(0) == at_zero


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


# (mean, stderr) of 50 samples at seeds 0, 7 and "s", recorded before
# words were composed by gathers: the stream and the values do not
# depend on how a word's image is composed.  On S_1, and for [x,y] and
# x^2y^2 on the abelian S_2, every draw gives the same value.
MC_PINS = {
    ("[x,y]", 1): [(1.0, 0.0)] * 3,
    ("[x,y]", 2): [(2.0, 0.0)] * 3,
    ("[x,y]", 5): [(1.3, 0.17670452681218546), (1.4, 0.15649215928719035), (1.52, 0.22899959896587288)],
    ("x^2y^2", 1): [(1.0, 0.0)] * 3,
    ("x^2y^2", 2): [(2.0, 0.0)] * 3,
    ("x^2y^2", 5): [(1.34, 0.1950614764422661), (1.36, 0.18241016799442702), (1.32, 0.22395334791160487)],
    ("aabAB", 1): [(1.0, 0.0)] * 3,
    ("aabAB", 2): [(1.16, 0.14101671633432075), (0.92, 0.1423992662214527), (1.0, 0.14285714285714288)],
    ("aabAB", 5): [(1.5, 0.1743793659390529), (1.42, 0.17164272338143532), (1.34, 0.15282376137504378)],
    ("X", 1): [(1.0, 0.0)] * 3,
    ("X", 2): [(1.32, 0.1353453632265944), (1.16, 0.14101671633432075), (0.88, 0.14182484166846693)],
    ("X", 5): [(1.18, 0.15034653847911852), (1.0, 0.13997084244475302), (1.0, 0.15649215928719035)],
    ("abc", 1): [(1.0, 0.0)] * 3,
    ("abc", 2): [(1.08, 0.1423992662214527), (1.08, 0.1423992662214527), (0.96, 0.14274281139196338)],
    ("abc", 5): [(0.94, 0.13525486146908144), (1.0, 0.13997084244475302), (0.98, 0.12933108911721458)],
    ("1", 1): [(1.0, 0.0)] * 3,
    ("1", 2): [(2.0, 0.0)] * 3,
    ("1", 5): [(5.0, 0.0)] * 3,
}


@pytest.mark.parametrize("text,N", sorted(MC_PINS))
def test_mc_grid_is_pinned(text, N):
    got = [trw_monte_carlo(parse(text), N, 50, seed) for seed in (0, 7, "s")]
    assert got == MC_PINS[text, N]


def trw_monte_carlo_per_sample(w, N, samples, seed):
    """Per-sample oracle for `trw_monte_carlo`: one `rng.shuffle` per
    permutation, the word evaluated point by point, fixed points counted
    in Python."""
    letters, r = measures._effective_letters(w)
    rng = random.Random(f"{seed}/0")
    total = total_sq = 0
    for _ in range(samples):
        perms = []
        for _ in range(r):
            p = list(range(N))
            rng.shuffle(p)
            perms.append(tuple(p))
        img = word_image_pointwise(letters, perms, [invert_pointwise(p) for p in perms])
        f = sum(q == x for q, x in enumerate(img)) if r else N
        total += f
        total_sq += f * f
    mean = total / samples
    var = (total_sq / samples - mean * mean) * samples / (samples - 1)
    return mean, math.sqrt(max(var, 0.0) / samples)


MC_ORACLE_WORDS = ["1", "x", "X", "x^2y^2", "[x,y]", "abc", "aBcAbC"]


@pytest.mark.parametrize("N", [1, 2, 5, 6, 7, 43, 255, 256, 257, 300])
def test_mc_blocks_match_the_per_sample_oracle(N):
    # ranks 0..3, with and without inverse letters; sample counts on both
    # sides of one and two blocks
    per_block = max(1, measures.MC_BLOCK_POINTS // N)
    counts = sorted({2, 3, per_block - 1, per_block + 1, 2 * per_block + 3} - {0, 1})
    for text, samples, seed in itertools.product(MC_ORACLE_WORDS, counts, (11, "t")):
        w = parse(text)
        want = trw_monte_carlo_per_sample(w, N, samples, seed)
        assert trw_monte_carlo(w, N, samples, seed) == want, (text, N, samples, seed)


def test_shuffled_blocks_draw_as_random_shuffle():
    # a CPython whose `shuffle` draws differently changes every pinned
    # Monte Carlo value; this names the version that did
    for N, seed in itertools.product(range(1, 13), range(40)):
        for r, count in ((1, 1), (2, 3)):
            ours, theirs = random.Random(seed), random.Random(seed)
            got = measures.shuffled_blocks(ours, N, r, count)
            want = [[] for _ in range(r)]
            for s in range(count):
                for points in want:
                    p = list(range(s * N, s * N + N))
                    theirs.shuffle(p)
                    points += p
            assert got == want and ours.getstate() == theirs.getstate(), (
                f"shuffled_blocks no longer draws as random.Random.shuffle on "
                f"Python {platform.python_version()} (N={N}, seed={seed}, r={r}, count={count})"
            )


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


def _perm_elements(gens) -> list[tuple[int, ...]]:
    """The permutation group generated by gens, identity first, in the
    order `_perm_table` numbers it."""
    n = len(gens[0])
    elems = [tuple(range(n))]
    for a in elems:
        for g in gens:
            b = tuple(g[q] for q in a)
            if b not in elems:
                elems.append(b)
    return elems


def _perm_table(gens) -> FiniteGroupTable:
    """The Cayley table of the permutation group generated by gens,
    identity first, composed first-left-then-right."""
    elems = _perm_elements(gens)
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


PERM_GENS = {
    "S3": [(1, 0, 2), (1, 2, 0)],
    "S4": [(1, 0, 2, 3), (1, 2, 3, 0)],
    "A5": [(1, 2, 0, 3, 4), (1, 2, 3, 4, 0)],
    "D4": [(1, 2, 3, 0), (3, 2, 1, 0)],
}


CAYLEY_GROUPS = {
    **{f"Z{n}": FiniteGroupTable.cyclic(n) for n in range(1, 7)},
    **{name: _perm_table(gens) for name, gens in PERM_GENS.items()},
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
    """Hom(F_r, S_N) with only the first coordinate collapsed by cycle
    type and the other r - 1 over all of S_N, built from
    `itertools.permutations` and `_class_rep` alone: the oracle of
    `class_collapsed_tuples`."""
    N = group.degree
    pool = list(itertools.permutations(range(N)))
    inverse = {p: invert_pointwise(p) for p in pool}
    for lam in measures._partitions(N):
        for rest in itertools.product(pool, repeat=r - 1):
            elems = (measures._class_rep(lam),) + rest
            yield measures._class_size(lam, N), elems, tuple(inverse[p] for p in elems)


def _sweep_group(spec):
    """A Cayley table by name, or S_N by its degree."""
    return CAYLEY_GROUPS.get(spec) or measures.SymmetricGroup(spec)


# tuples at r = 2: sum over classes of |C(c)|, against k(G) |G|
@pytest.mark.parametrize(
    "name,r,tuples",
    [(1, 2, 1), (2, 2, 4), (3, 2, 11), (4, 2, 43), (5, 2, 161), (6, 2, 901),
     (7, 2, 5579), (8, 2, 43206), (1, 3, 1), (2, 3, 8), (3, 3, 66), (4, 3, 1032), (5, 3, 19320),
     ("A5", 2, 77), ("S4", 2, 43), ("D4", 2, 28), ("Z6", 2, 36), ("A5", 3, 4620),
     ("D4", 3, 224)],
)
def test_sweep_weights_sum_to_all_tuples(name, r, tuples):
    group = _sweep_group(name)
    order = math.prod(group.order_factors)
    weights = [weight for weight, _, _ in measures.class_collapsed_tuples(group, r)]
    assert len(weights) == tuples
    assert sum(weights) == order**r


def _general_product_sweep(group, r):
    """The orbit sweep with every coordinate past the second taken from
    `itertools.product`, as `class_collapsed_tuples` does for r >= 3:
    the oracle of its r = 2 branch, where the product is one empty
    tuple."""
    pool, inv_pool, orbits = group.pair_orbits
    for c, c_inv, size, reps in orbits:
        for x, x_inv, orbit in reps:
            for rest, rest_inv in zip(
                itertools.product(pool, repeat=r - 2), itertools.product(inv_pool, repeat=r - 2)
            ):
                yield size * orbit, (c, x) + rest, (c_inv, x_inv) + rest_inv


@pytest.mark.parametrize("name", [5, 6, 7, *sorted(CAYLEY_GROUPS)])
def test_rank_two_sweep_equals_the_general_product_code(name):
    group = _sweep_group(name)
    sweep = list(measures.class_collapsed_tuples(group, 2))
    assert sweep == list(_general_product_sweep(group, 2))
    if name == 7:
        assert len(sweep) == 5579
        assert sum(weight for weight, _, _ in sweep) == math.factorial(7) ** 2


def test_s7_measures_of_commutator_and_squares_are_pinned():
    # [x,y] and x^2y^2 induce the same measure on every S_N (Magee-Puder);
    # the values were recorded before words were composed by gathers
    want = (
        ((1, 1, 1, 1, 1, 1, 1), Fraction(1, 336)), ((2, 2, 1, 1, 1), Fraction(103, 1680)),
        ((3, 1, 1, 1, 1), Fraction(11, 240)), ((3, 2, 2), Fraction(127, 1680)),
        ((3, 3, 1), Fraction(17, 140)), ((4, 2, 1), Fraction(8, 35)),
        ((5, 1, 1), Fraction(3, 14)), ((7,), Fraction(1, 4)),
    )
    assert word_measure_exact(parse("[x,y]"), 7).support == want
    assert word_measure_exact(parse("x^2y^2"), 7).support == want


@pytest.mark.parametrize("name", [1, 2, 3, 4, 5, 6, 7, "A5", "S4", "D4", "Z6"])
def test_each_second_coordinate_is_least_of_its_centralizer_orbit(name):
    group = _sweep_group(name)
    mul = lambda a, b: group.word_image(((1, 1), (2, 1)), (a, b), ())  # noqa: E731

    def inv(a):
        b = a  # a^k for k = 1, 2, ... until a^(k+1) is the identity
        while (c := mul(b, a)) != group.identity:
            b = c
        return b

    # no proper subgroup meets every conjugacy class, so the class
    # representatives generate G, and G is their closure under products
    reps = [elems[0] for _, elems, _ in measures.class_collapsed_tuples(group, 1)]
    elements, frontier = set(reps), list(reps)
    for a in frontier:
        for b in reps:
            if (ab := mul(a, b)) not in elements:
                elements.add(ab)
                frontier.append(ab)
    elements = sorted(elements)
    sweep = list(measures.class_collapsed_tuples(group, 2))
    assert all(invs == tuple(map(inv, elems)) for _, elems, invs in sweep)
    heads = list(dict.fromkeys(elems[0] for _, elems, _ in sweep))
    # the classes and their order are those of the r = 1 sweep
    assert heads == reps
    for c in heads:
        cent = [(h, inv(h)) for h in elements if mul(h, c) == mul(c, h)]
        want, seen = [], set()
        for x in elements:
            if x not in seen:
                orbit = {mul(mul(h_inv, x), h) for h, h_inv in cent}
                seen |= orbit
                want.append((x, len(elements) // len(cent) * len(orbit)))
        assert [(elems[1], weight) for weight, elems, _ in sweep if elems[0] == c] == want


SWEEP_WORDS = ["x", "x^2", "aab", "[x,y]", "xyxY", "x^2yXy", "x^2y^2XY", "x^2y^3", "xyz", "xyzXYZ"]


def _swept_measure(w, N):
    """The measure of w on S_N by the Hom sweep of its Whitehead-minimal
    word, whatever route `word_measure_exact` takes for it."""
    counts = measures._sweep_counts(whitehead_minimal(w).letters, measures.as_group(N))
    total = sum(counts.values())
    support = sorted((k, Fraction(v, total)) for k, v in counts.items())
    return measures.MeasureTable(f"S{N}", tuple(support))


@functools.cache
def _oracle_measure(text, N):
    """The measure of the word `text` (letters a, b, ...) on S_N through
    the first-coordinate sweep, never the character table."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(measures, "class_collapsed_tuples", _first_coordinate_sweep)
        return _swept_measure(parse(text), N)


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
            mp.setattr(measures, "_measure_plan",
                       lambda v, group, budget: lambda: _oracle_measure(str(v), group))
            want = _oracle_measure(str(w), N), compare_measures(w, parse(partner), N)
        assert got == want, (text, partner, N)


@pytest.mark.parametrize("N", [3, 4])
def test_symmetric_group_agrees_with_its_cayley_table(N):
    # S_N as a SymmetricGroup and as a Cayley table, class by class; the
    # products and commutators that take the character route on S_N are
    # swept on the table
    S, G = measures.SymmetricGroup(N), CAYLEY_GROUPS[f"S{N}"]
    elements = _perm_elements(PERM_GENS[f"S{N}"])
    index = {_oracle_cycle_type(p): G.class_of[i] for i, p in enumerate(elements)}
    assert len(index) == len(G.conjugacy_classes)
    words = [parse(text, rank) for text, rank in CAYLEY_WORDS] + [parse(text) for text in SWEEP_WORDS]
    on_table = {}
    for w in words:
        on_table[w] = word_measure_exact(w, G)
        on_sn = word_measure_exact(w, S)
        assert sorted((index[k], p) for k, p in on_sn.support) == list(on_table[w].support), str(w)
    for w1, w2 in zip(words, words[1:] + words[:1]):
        cmp_sn, cmp_table = compare_measures(w1, w2, S), compare_measures(w1, w2, G)
        assert cmp_sn.equal == cmp_table.equal == (on_table[w1] == on_table[w2]), (str(w1), str(w2))
        if not cmp_sn.equal:
            # each side names a class where the two measures differ, and a
            # support mismatch whenever there is one
            i = index[cmp_sn.witness_class]
            assert (cmp_sn.prob1, cmp_sn.prob2) == (on_table[w1].probability(i), on_table[w2].probability(i))
            assert (0 in (cmp_sn.prob1, cmp_sn.prob2)) == (0 in (cmp_table.prob1, cmp_table.prob2))
    for r in (1, 2, 3):
        weights = []
        for group, key in ((S, lambda p: index[S.class_key(p)]), (G, G.class_key)):
            by_classes = Counter()
            for weight, elems, _ in measures.class_collapsed_tuples(group, r):
                by_classes[tuple(map(key, elems))] += weight
            weights.append(by_classes)
        assert weights[0] == weights[1], r


def test_rank_one_sweeps_build_no_pool(monkeypatch):
    # a one-letter word on S10-S12 must not enumerate N!
    def refuse(N):
        raise AssertionError(f"all_perms({N}) ran for a rank-1 sweep")

    monkeypatch.setattr(measures, "all_perms", refuse)
    built = lambda: [N for N in range(13) if "pair_orbits" in vars(measures.SymmetricGroup(N))]  # noqa: E731
    before = built()
    table = word_measure_exact(parse("x^3"), 12, budget=10**10)
    assert sum(p for _, p in table.support) == 1
    verdict = perm_powers.word_power_obstruction(parse("x^2"), 2, list(range(1, 10)))
    assert verdict.searched == tuple(range(1, 10)) and not verdict.conclusive
    assert built() == before


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

    monkeypatch.setattr(measures, "shuffled_blocks", refuse)
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


# -- measures from the characters of S_N ------------------------------


def _hook_length_degree(lam):
    """chi^lambda(1) by the hook-length formula."""
    cols = [sum(1 for part in lam if part > j) for j in range(lam[0])] if lam else []
    hooks = 1
    for i, part in enumerate(lam):
        for j in range(part):
            hooks *= (part - j - 1) + (cols[j] - i - 1) + 1
    return math.factorial(sum(lam)) // hooks


@pytest.mark.parametrize("N", range(1, 11))
def test_character_table_is_orthogonal_with_hook_length_degrees(N):
    classes, index, sizes, columns = measures.SymmetricGroup(N).characters
    assert classes == list(measures._partitions(N))
    assert index == {nu: i for i, nu in enumerate(classes)}
    assert sizes == [measures._class_size(nu, N) for nu in classes]
    chars = list(zip(*columns))  # per lambda, in partition order, its values
    assert [chi[-1] for chi in chars] == [_hook_length_degree(lam) for lam in classes]
    assert chars[0] == (1,) * len(classes)  # lambda = (N): the trivial character
    assert chars[-1] == tuple((-1) ** (N - len(nu)) for nu in classes)  # the sign
    for a, b in itertools.combinations_with_replacement(range(len(chars)), 2):
        inner = sum(size * x * y for size, x, y in zip(sizes, chars[a], chars[b]))
        assert inner == (math.factorial(N) if a == b else 0), (N, a, b)


def _random_product(rng, rank):
    """A product of commutators and powers, with random signs, in disjoint
    letters of F_rank, at a random rotation and under a random signed
    permutation of the generators."""
    gens, letters = list(range(1, rank + 1)), []
    while gens:
        if len(gens) >= 2 and rng.random() < 0.5:
            (g, e), (h, f) = [(gens.pop(0), rng.choice((1, -1))) for _ in range(2)]
            letters += [(g, e), (h, f), (g, -e), (h, -f)]
        else:
            g, d = gens.pop(0), rng.choice((2, 3, -2, -3))
            letters += [(g, 1 if d > 0 else -1)] * abs(d)
    k = rng.randrange(len(letters))
    images = rng.sample(range(1, rank + 1), rank)
    signs = [rng.choice((1, -1)) for _ in range(rank)]
    rotated = letters[k:] + letters[:k]
    return Word(rank, tuple((images[g - 1], s * signs[g - 1]) for g, s in rotated))


@pytest.mark.parametrize("rank,max_N,count", [(2, 7, 8), (3, 5, 6), (4, 4, 5)])
def test_character_route_matches_the_sweep(monkeypatch, rank, max_N, count):
    routed = []
    character_measure = measures._character_measure
    monkeypatch.setattr(measures, "_character_measure",
                        lambda group, factors: routed.append(group) or character_measure(group, factors))
    rng = random.Random(f"characters/{rank}")
    words = [_random_product(rng, rank) for _ in range(count)]
    for w in words:
        for N in range(1, max_N + 1):
            assert word_measure_exact(w, N, budget=10**12) == _swept_measure(w, N), (str(w), N)
    # every word factors or is a commutator, so each took the tables
    assert len(routed) == count * max_N


@pytest.mark.parametrize("text", ["[x,y]", "x^2y^2", "x^2y^3", "[a,b]c^2", "[a,b][c,d]"])
def test_expected_fixed_points_from_characters_equal_trw(text):
    # the quotient sum of Tr_w shares nothing with the character route but
    # the word; a budget of 10^10 refuses any rank-2 sweep from S9 on
    w = parse(text)
    for N in range(1, 13):
        table = word_measure_exact(w, N, budget=10**10)
        assert sum(p * nu.count(1) for nu, p in table.support) == trw_exact(w, N), (text, N)


def test_commutator_and_product_of_squares_share_every_sn_measure():
    # Magee-Puder: [x,y] and x^2y^2 induce the same measure on every S_N
    for N in range(1, 13):
        squares = word_measure_exact(parse("x^2y^2"), N, budget=10**10)
        assert word_measure_exact(parse("[x,y]"), N) == squares, N


def test_compare_charges_both_words_before_either_sweep(monkeypatch):
    def refuse(*args):
        raise AssertionError("a tuple was drawn")

    monkeypatch.setattr(measures, "class_collapsed_tuples", refuse)
    # xyxY alone costs (8!)^2 x 4, within 10^10; xyzxYZ costs (8!)^3 x 6
    for pair in (("xyxY", "xyzxYZ"), ("xyzxYZ", "xyxY")):
        with pytest.raises(BudgetExceededError, match=r"\(\|G\|=8!, r=3, max\(length, 1\)=6\)"):
            compare_measures(*map(parse, pair), 8, budget=10**10)


def test_character_route_charges_the_table_and_each_block_first(monkeypatch):
    def refuse(*args):
        raise AssertionError("work started")

    monkeypatch.setattr(measures, "class_collapsed_tuples", refuse)
    monkeypatch.setattr(measures.SymmetricGroup, "characters", property(refuse))
    # x^2 costs 13! x 2 and passes; y^3 costs 13! x 3
    with pytest.raises(BudgetExceededError, match=r"\(\|G\|=13!, r=1, max\(length, 1\)=3\)"):
        word_measure_exact(parse("x^2y^3"), 13, budget=2 * math.factorial(13))
    # the default budget admits the table up to S23: 5,763 classes of
    # degree at most 23, so 5,763^2 x 23 steps; S24 has 7,338
    measures._check_character_budget(23, measures.DEFAULT_BUDGET)
    with pytest.raises(BudgetExceededError, match=r"\(classes=7338, N=24\)$"):
        word_measure_exact(parse("[a,b]"), 24)
    start = time.perf_counter()
    for N in (100, 10**9):
        with pytest.raises(BudgetExceededError) as refusal:
            word_measure_exact(parse("[a,b]c^2"), N)
        assert charged(str(refusal.value)) > measures.DEFAULT_BUDGET
    assert time.perf_counter() - start < 0.5


def test_character_refusals_print_factors_past_the_budget():
    refusals = 0
    words = [parse(t) for t in ("[a,b]", "x^2y^3", "[a,b][c,d]")]
    for w, N, budget in itertools.product(words, range(1, 6), range(200)):
        try:
            word_measure_exact(w, N, budget)
        except BudgetExceededError as e:
            refusals += 1
            assert charged(str(e)) > budget, str(e)
    assert refusals > 500


# -- value classes ----------------------------------------------------


def test_finite_group_table_keeps_its_frozen_dataclass_contract(monkeypatch):
    T = ((0, 1), (1, 0))
    G = FiniteGroupTable.cyclic(2)
    assert repr(G) == "FiniteGroupTable(order=2, table=((0, 1), (1, 0)), names=('g0', 'g1'))"
    assert G == FiniteGroupTable(2, T, ("g0", "g1")) == FiniteGroupTable(order=2, table=T,
                                                                         names=("g0", "g1"))
    assert FiniteGroupTable(2, T) == FiniteGroupTable(2, T, ()) != G
    G.inverse  # cached state plays no part in == or the hash
    assert hash(G) == hash(FiniteGroupTable(2, T, ("g0", "g1"))) == hash((2, T, ("g0", "g1")))
    with pytest.raises(AttributeError):
        G.order = 3
    # the checks run as `__post_init__`, looked up on the instance
    checked = []
    monkeypatch.setattr(FiniteGroupTable, "__post_init__", lambda self: checked.append(self))
    assert FiniteGroupTable(2, ((0, 0), (0, 0))) in checked


def test_measure_table_and_comparison_keep_their_frozen_dataclass_contract():
    support = (((1, 1), Fraction(1, 2)), ((2,), Fraction(1, 2)))
    m = measures.MeasureTable("S2", support)
    assert repr(m) == (
        "MeasureTable(group='S2', support=(((1, 1), Fraction(1, 2)), ((2,), Fraction(1, 2))))"
    )
    assert m == measures.MeasureTable(group="S2", support=support) == word_measure_exact(
        parse("x"), 2
    )
    assert hash(m) == hash(("S2", support))
    assert m.as_dict is m.as_dict  # cached
    with pytest.raises(AttributeError):
        m.group = "S3"
    c = measures.MeasureComparison(False, (2,), Fraction(1, 2), Fraction(0))
    assert repr(c) == (
        "MeasureComparison(equal=False, witness_class=(2,), prob1=Fraction(1, 2), "
        "prob2=Fraction(0, 1))"
    )
    assert c == measures.MeasureComparison(
        equal=False, witness_class=(2,), prob1=Fraction(1, 2), prob2=Fraction(0)
    )
    assert measures.MeasureComparison(True) == measures.MeasureComparison(True, None, None, None)
    assert hash(c) == hash((False, (2,), Fraction(1, 2), Fraction(0)))
    with pytest.raises(AttributeError):
        c.equal = True


def test_sn_classes_are_built_once_per_degree(monkeypatch):
    first = list(measures.class_collapsed_tuples(6, 1))

    def refuse(lam):
        raise AssertionError(f"class representative of {lam} rebuilt")

    monkeypatch.setattr(measures, "_class_rep", refuse)
    assert list(measures.class_collapsed_tuples(6, 1)) == first
