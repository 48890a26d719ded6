
import itertools
import random

import pytest

from wordmaps import extensions, stallings
from wordmaps.errors import BudgetExceededError, HypothesisError
from wordmaps.extensions import INFINITE_RANK
from wordmaps.measures import trw_exact
from wordmaps.stallings import from_generators, rose
from wordmaps.words import (
    Word,
    enumerate_whitehead_moves,
    free_reduce,
    maximal_root,
    parse,
    substitute,
    whitehead_minimal,
)


def graph(gens, rank):
    return from_generators([parse(g, rank) for g in gens], rank)


def ae_bases(gens, rank):
    H = graph(gens, rank)
    poset = extensions.algebraic_extensions(H)
    return sorted(
        tuple(str(b) for b in stallings.basis(poset.nodes[i])) for i in poset.algebraic_indices()
    )


# -- free factors -----------------------------------------------------


def test_generator_is_free_factor():
    assert extensions.is_free_factor(graph(["a"], 2), rose(2))


def test_square_is_not_free_factor():
    assert not extensions.is_free_factor(graph(["a^2"], 1), rose(1))
    assert not extensions.is_free_factor(graph(["a^2"], 2), rose(2))


def test_a_n_b_not_free_factor():
    for n in (2, 3):
        assert not extensions.is_free_factor(graph([f"a^{n}", "b"], 2), rose(2))


def test_primitive_after_automorphism():
    # abA is conjugate to b, hence primitive
    assert extensions.is_free_factor(graph(["abA"], 2), rose(2))


def test_relative_free_factor():
    # <a^2> inside <a^2, b> is a free factor of it
    assert extensions.is_free_factor(graph(["a^2"], 2), graph(["a^2", "b"], 2))


# -- free-factor reductions ------------------------------------------


ORACLE_STATE_CAP = 200_000


def exhaustive_whitehead_search(M, k):
    """Is M a free factor of F_k?  Every graph reachable by size
    non-increasing Whitehead moves, searched breadth first."""
    if M.is_rose:
        return True
    moves = enumerate_whitehead_moves(k)
    visited = {M.canonical_key}
    frontier = [M]
    while frontier:
        nxt = []
        for g in frontier:
            g_basis = stallings.basis(g)
            for move in moves:
                images = [move.apply(b) for b in g_basis]
                h = stallings.from_generators(images, k)
                if len(h.edges) > len(g.edges) or h.canonical_key in visited:
                    continue
                if h.is_rose:
                    return True
                visited.add(h.canonical_key)
                if len(visited) > ORACLE_STATE_CAP:
                    raise BudgetExceededError(
                        f"Whitehead search exceeded {ORACLE_STATE_CAP} states"
                    )
                nxt.append(h)
        frontier = nxt
    return False


def whitehead_oracle(M, J):
    """M <=_ff J with no reduction: M rewritten in a basis of J, then the
    exhaustive Whitehead search in F_rank(J)."""
    if not stallings.subgroup_leq(M, J):
        raise ValueError("M is not a subgroup of J")
    if M == J or M.rank == 0:
        return True
    gens = [stallings.rewrite_in_basis(J, b) for b in stallings.basis(M)]
    return exhaustive_whitehead_search(stallings.from_generators(gens, J.rank), J.rank)


def random_word(rng, rank):
    """A seeded random reduced word of length at most 6."""
    length = rng.randint(1, 6)
    return Word(rank, free_reduce([(rng.randint(1, rank), rng.choice((1, -1))) for _ in range(length)]))


def random_subgroup(rng, rank, num_gens, max_vertices):
    """A seeded random subgroup of F_rank on num_gens random words whose
    core graph has 2..max_vertices vertices."""
    while True:
        H = stallings.from_generators([random_word(rng, rank) for _ in range(num_gens)], rank)
        if 2 <= H.num_vertices <= max_vertices:
            return H


def poset_samples():
    """46 seeded subgroups of F_2 and F_3 with 2-5 core-graph vertices:
    (seed, rank, generators, vertex bound, count) per family."""
    families = [("F2x1", 2, 1, 5, 24), ("F2x2", 2, 2, 4, 12), ("F3x1", 3, 1, 4, 10)]
    samples = []
    for seed, rank, num_gens, max_vertices, count in families:
        rng = random.Random(seed)
        samples += [random_subgroup(rng, rank, num_gens, max_vertices) for _ in range(count)]
    return samples


def test_free_factor_agrees_with_the_whitehead_oracle():
    # Every comparable quotient pair, decided alone and inside the poset.
    # The oracle searches every pair, and proving that a rank-2 subgroup
    # is no free factor of a rank-3 quotient can take it half a minute,
    # so 2-generator subgroups stay at 4 vertices.  151 pairs, about 13 s
    # on a 2-core machine.
    pairs = 0
    for H in poset_samples():
        poset = extensions.algebraic_extensions(H)
        for (i, j), mark in poset.ff_marks.items():
            M, J = poset.nodes[i], poset.nodes[j]
            want = whitehead_oracle(M, J)
            assert mark == extensions.is_free_factor(M, J) == want, (M, J)
            pairs += 1
    assert pairs == 151


def test_poset_marks_exactly_the_strict_inclusions():
    # the keys of ff_marks are the order itself: every pair i != j with
    # nodes[i] <= nodes[j], and no other
    for H in poset_samples():
        poset = extensions.algebraic_extensions(H)
        nodes = poset.nodes
        assert set(poset.ff_marks) == {
            (i, j)
            for i, A in enumerate(nodes)
            for j, J in enumerate(nodes)
            if i != j and stallings.subgroup_leq(A, J)
        }


def test_free_factor_in_an_overgroup_agrees_with_the_whitehead_oracle():
    # Between quotients of one graph the morphism is onto, so the image
    # is all of J; an overgroup J = <H, w1, w2> leaves room for the
    # embedding and image steps, as in ff_closure.  141 pairs, about 3 s.
    rng = random.Random("overgroup")
    pairs = 0
    for _ in range(80):
        H = random_subgroup(rng, 2, 1, 5)
        J = stallings.from_generators(stallings.basis(H) + [random_word(rng, 2) for _ in range(2)], 2)
        if J.rank > 3:
            continue
        marks = {}
        for A in stallings.quotients(H):
            if stallings.subgroup_leq(A, J):
                marks[A] = whitehead_oracle(A, J)
                assert extensions.is_free_factor(A, J) == marks[A], (A, J)
                pairs += A != J
        # the free-factor candidate inside all the others
        closure = next(A for A, ff in marks.items() if ff and all(
            stallings.subgroup_leq(A, B) for B, ffb in marks.items() if ffb))
        assert extensions.ff_closure(H, J) == closure
    assert pairs == 141


def _unreachable(*_args):
    raise AssertionError("this step must not be reached")


@pytest.mark.parametrize(
    "m,j,expected,settled_before",
    [
        (["a^2", "b"], None, False, "image"),  # rank M >= rank J
        (["a", "baB"], None, False, "image"),  # rank M >= rank J
        (["a"], ["a", "b^2"], True, "image"),  # Gamma(M) embeds in Gamma(J)
        (["a^2"], ["a", "b^2"], False, "search"),  # rank M >= rank of the image <a>
    ],
    ids=["rank-a2-b", "rank-a-baB", "embedding", "image-rank"],
)
def test_reductions_settle_without_searching(monkeypatch, m, j, expected, settled_before):
    M = graph(m, 2)
    J = graph(j, 2) if j else rose(2)
    assert whitehead_oracle(M, J) is expected
    monkeypatch.setattr(extensions, "_is_free_factor_of_ambient", _unreachable)
    if settled_before == "image":
        monkeypatch.setattr(stallings, "image", _unreachable)
    assert extensions.is_free_factor(M, J) is expected


def test_primitive_word_still_needs_the_search(monkeypatch):
    # <ab> maps onto the whole rose, so the image is F_2 itself
    M = graph(["ab"], 2)
    assert extensions.is_free_factor(M, rose(2))
    monkeypatch.setattr(extensions, "_is_free_factor_of_ambient", _unreachable)
    with pytest.raises(AssertionError, match="must not be reached"):
        extensions.is_free_factor(M, rose(2))


@pytest.mark.parametrize(
    "word,expected,folds",
    [("ab^2ab^3", True, 44), ("a^2b^2", False, 12)],
    ids=["primitive-descends", "square-one-scan"],
)
def test_descent_is_bounded_without_a_state_cap(monkeypatch, word, expected, folds):
    # each step removes an edge and the rose keeps rank M of them, so at
    # most |E(M)| - rank M + 1 scans of the move list; a scan folds only
    # the 12 of the 24 moves at rank 2 that can shrink a graph, and
    # a^2b^2 has no shrinking move and stops after one
    M = graph([word], 2)
    fold = stallings.from_generators
    calls = []

    def counting_fold(gens, rank):
        calls.append(gens)
        return fold(gens, rank)

    monkeypatch.setattr(stallings, "from_generators", counting_fold)
    assert extensions._is_free_factor_of_ambient(M, 2) is expected
    assert len(calls) == folds
    assert folds <= (len(M.edges) - M.rank + 1) * len(enumerate_whitehead_moves(2))


def cyclically_reduced_words(rank, max_length):
    """Every cyclically reduced word of length 1..max_length in F_rank."""
    letters = [(g, e) for g in range(1, rank + 1) for e in (1, -1)]
    return [
        Word(rank, w)
        for n in range(1, max_length + 1)
        for w in itertools.product(letters, repeat=n)
        if all(x != (y[0], -y[1]) for x, y in zip(w, w[1:] + w[:1]))
    ]


def test_primitive_words_of_length_at_most_six():
    # all 1,104 cyclically reduced words of length 1..6 in F_2; 196 of
    # them are primitive
    words = cyclically_reduced_words(2, 6)
    assert len(words) == 1104
    primitive = [extensions.is_free_factor(from_generators([w], 2), rose(2)) for w in words]
    assert sum(primitive) == 196
    # a second route, on the word: the primitive words are those whose
    # Whitehead-minimal word is one letter, and no word grows
    minimal = [whitehead_minimal(w) for w in words]
    assert all(len(m) <= len(w) for m, w in zip(minimal, words))
    assert [len(m) == 1 for m in minimal] == primitive


def test_rank_cap_applies_to_the_image():
    # J has rank 5; <ab^6> spans only the a-loop and the b-cycle of
    # Gamma(J), whose rank is 2, and is primitive there
    J = graph(["a", "b^6", "baB", "b^2aB^2", "b^3aB^3"], 2)
    M = graph(["ab^6"], 2)
    assert J.rank == 5 > extensions.DEFAULT_RANK_CAP
    assert extensions.is_free_factor(M, J)
    assert not extensions.is_free_factor(graph(["a^2b^12"], 2), J)


def test_rank_cap_stops_the_poset_before_any_search(monkeypatch):
    monkeypatch.setattr(extensions, "_is_free_factor_of_ambient", _unreachable)
    # aaababbabbab: the image graph of a^3b^3 under a -> a, b -> bab, whose
    # first capped pair has image rank 5 and its largest rank 7
    for gens in ["[a,b]^2"], ["aaababbabbab"]:
        with pytest.raises(BudgetExceededError, match="image rank 5 exceeds the cap 4"):
            extensions.algebraic_extensions(graph(gens, 2))


# -- algebraic extensions ---------------------------------------------


def test_ae_of_commutator():
    assert ae_bases(["[a,b]"], 2) == [("a", "b"), ("baBA",)]


def test_ae_of_powers():
    assert ae_bases(["a^2"], 1) == [("a",), ("aa",)]
    assert ae_bases(["a^3"], 1) == [("a",), ("aaa",)]


def test_ae_of_index_two_subgroup():
    assert ae_bases(["a^2", "ab"], 2) == [("a", "b"), ("aa", "ab")]


def test_ae_of_primitive_is_trivial():
    H = graph(["a"], 2)
    poset = extensions.algebraic_extensions(H)
    assert poset.algebraic_indices() == [poset.base_index]


# -- primitivity rank -------------------------------------------------


def test_pi_values():
    assert extensions.pi_of_word(parse("a", 2)) == INFINITE_RANK
    assert extensions.pi_of_word(parse("ab", 2)) == INFINITE_RANK
    assert extensions.pi_of_word(parse("a^2", 1)) == 1
    assert extensions.pi_of_word(parse("a^2", 2)) == 1
    assert extensions.pi_details(graph(["[a,b]"], 2))[:2] == (2, 1)
    assert extensions.pi_details(graph(["a^2b^2"], 2))[:2] == (2, 1)
    # 5-vertex words: pi needs only the lowest ranks of their posets
    assert extensions.pi_of_word(parse("a^2bab", 2)) == INFINITE_RANK
    assert extensions.pi_details(graph(["a^2bAb"], 2))[:2] == (2, 1)


def test_pi_of_the_trivial_word_is_zero_with_one_extension():
    # pi(1) = 0, C = 1, attained by {1} itself; the leading term of
    # Tr_1(N) = N = 1 + C N^(1 - pi) - 1 agrees
    H = graph(["1"], 2)
    assert extensions.pi_details(H) == (0, 1, [H])
    assert extensions.pi_of_word(parse("1", 1)) == 0
    pi, C, _ = extensions.pi_details(H)
    for N in range(1, 8):
        assert trw_exact(parse("1", 2), N) == N == 1 + C * N ** (1 - pi) - 1


def test_pi_agrees_with_roots_and_whitehead_minimal_words():
    # all 1,104 cyclically reduced words of length <= 6 in F_2: pi = 1
    # exactly for the proper powers, and pi = inf exactly for the
    # primitive words (Puder 2014), whose Whitehead-minimal word is one
    # letter; every other word has pi = 2 = rank F_2, with C >= 1.
    # About 5 s on a 2-core machine.
    counts = {}
    for w in cyclically_reduced_words(2, 6):
        pi, C, winners = extensions.pi_details(from_generators([w], 2))
        power = maximal_root(w)[1] > 1
        primitive = len(whitehead_minimal(w)) == 1
        assert ((pi == 1), (pi == INFINITE_RANK)) == (power, primitive), w
        if not (power or primitive):
            assert pi == 2, w
        assert C == len(winners) and (C >= 1) == (pi != INFINITE_RANK), w
        counts[pi] = counts.get(pi, 0) + 1
    assert counts == {INFINITE_RANK: 196, 1: 60, 2: 848}


def pi_details_oracle(H):
    """pi_details read off the whole poset: the proper algebraic nodes of
    least rank, in node order."""
    if H.rank == 0:
        return 0, 1, [H]
    poset = extensions.algebraic_extensions(H)
    proper = [poset.nodes[i] for i in poset.algebraic_indices() if i != poset.base_index]
    if not proper:
        return INFINITE_RANK, 0, []
    m = min(g.rank for g in proper)
    winners = [g for g in proper if g.rank == m]
    return m, len(winners), winners


def test_pi_agrees_with_the_whole_poset(monkeypatch):
    # 180 seeded subgroups of F_2 and F_3 on 1-3 words with 2-6 core-graph
    # vertices, and 4 words whose poset stops at the rank cap, where pi
    # answers.  pi_details builds no poset and reduces no pair into a
    # quotient of rank above pi.  About 5 s on a 2-core machine.
    reduce, ranks = extensions._reduce, []

    def recording(M, J, f):
        ranks.append(J.rank)
        return reduce(M, J, f)

    families = [("pi-F2x1", 2, 1, 6, 80), ("pi-F2x2", 2, 2, 5, 40), ("pi-F2x3", 2, 3, 5, 10),
                ("pi-F3x1", 3, 1, 5, 30), ("pi-F3x2", 3, 2, 5, 20)]
    samples = []
    for seed, rank, num_gens, max_vertices, count in families:
        rng = random.Random(seed)
        samples += [random_subgroup(rng, rank, num_gens, max_vertices) for _ in range(count)]
    # words whose poset stops at the cap: a square, and words of length 6-9
    samples += [graph([w], r) for w, r in [("[a,b]^2", 2), ("abaaBABB", 2), ("BaBBaaaBA", 2),
                                           ("cabACb", 3)]]
    counts = {}
    for H in samples:
        try:
            want = pi_details_oracle(H)
        except BudgetExceededError:
            want = None
        with monkeypatch.context() as patch:
            patch.setattr(extensions, "algebraic_extensions", _unreachable)
            patch.setattr(extensions, "_reduce", recording)
            ranks.clear()
            got = extensions.pi_details(H)
        assert want is None or got == want, H
        assert max(ranks, default=0) <= got[0]
        key = (got[0], "poset capped" if want is None else "agrees")
        counts[key] = counts.get(key, 0) + 1
    assert counts == {
        (1, "agrees"): 21, (2, "agrees"): 62, (INFINITE_RANK, "agrees"): 97,
        (1, "poset capped"): 1, (2, "poset capped"): 3,
    }


def pi_iota_oracle(H_gens, k, images):
    """pi_iota read off the whole poset of the image subgroup: its
    algebraic nodes not inside U, the image of F_k, and their least rank."""
    r = max(im.ambient_rank for im in images)
    H = from_generators([g.with_rank(k) for g in H_gens], k)
    U = from_generators([im.with_rank(r) for im in images], r)
    iota_h = from_generators([substitute(b.with_rank(k), images) for b in stallings.basis(H)], r)
    poset = extensions.algebraic_extensions(iota_h)
    alg = [poset.nodes[i] for i in poset.algebraic_indices()]
    escaping = [g for g in alg if not stallings.subgroup_leq(g, U)]
    if not escaping:
        return INFINITE_RANK, 0
    m = min(g.rank for g in escaping)
    return m, sum(1 for g in escaping if g.rank == m)


def pi_iota_samples():
    """Seeded substitutions w -> w(u_1, u_2) from F_2 into F_2 and F_3
    that pass the hypotheses of pi_iota (w in no proper free factor, the
    images free) and whose image graph has at most 6 vertices, so that
    the oracle's poset stays small.  Per family: (seed, image rank,
    count, whether the images may generate a free factor, where nothing
    escapes their closure and pi_iota is infinite)."""
    words = [w for w in cyclically_reduced_words(2, 5)
             if extensions.is_algebraic_in_ambient(from_generators([w], 2), 2)]
    samples = []
    for seed, r, count, ff_images in (("iota-F2", 2, 40, False), ("iota-F3", 3, 15, True)):
        rng = random.Random(seed)
        while count:
            w, images = rng.choice(words), [random_word(rng, r) for _ in range(2)]
            U = from_generators(images, r)
            if (from_generators([substitute(w, images)], r).num_vertices <= 6 and U.rank == 2
                    and (ff_images or not extensions.is_free_factor(U, rose(r)))):
                samples.append((w, images))
                count -= 1
    return samples


def test_pi_iota_agrees_with_the_whole_poset(monkeypatch):
    # 55 seeded substitutions, and 2 whose poset stops at the rank cap
    # where pi_iota answers at rank 2; one seeded substitution stops at
    # the cap on both routes.  pi_iota builds no poset and reduces no
    # pair into a quotient of rank above its answer.  About 5 s on a
    # 2-core machine.
    reduce, ranks = extensions._reduce, []

    def recording(M, J, f):
        ranks.append(J.rank)
        return reduce(M, J, f)

    samples = pi_iota_samples() + [
        (parse(w, 2), [parse(u, 2) for u in images])
        for w, images in [("aBab", ["b", "ABa"]), ("Abab", ["BBa", "BA"])]
    ]
    counts = {}
    for w, images in samples:
        try:
            want = pi_iota_oracle([w], 2, images)
        except BudgetExceededError:
            want = None
        with monkeypatch.context() as patch:
            patch.setattr(extensions, "algebraic_extensions", _unreachable)
            patch.setattr(extensions, "_reduce", recording)
            # the samples pass this hypothesis; its check reduces pairs into F_2
            patch.setattr(extensions, "is_algebraic_in_ambient", lambda H, k: True)
            ranks.clear()
            try:
                got = extensions.pi_iota([w], 2, images)
            except BudgetExceededError:
                assert want is None, (w, images)
                got = "refused"
        if got != "refused":
            assert want is None or got == want, (w, images)
            assert max(ranks, default=0) <= got[0], (w, images)
        key = (got if got == "refused" else got[0], "oracle capped" if want is None else "agrees")
        counts[key] = counts.get(key, 0) + 1
    assert counts == {
        (2, "agrees"): 42, (INFINITE_RANK, "agrees"): 12,
        (2, "oracle capped"): 2, ("refused", "oracle capped"): 1,
    }


def test_pi_iota_commutator_substitution():
    value, count = extensions.pi_iota(
        [parse("[a,b]", 2)], 2, [parse("a^2", 2), parse("b", 2)]
    )
    assert (value, count) == (2, 3)


def test_pi_iota_rejects_non_algebraic_word():
    with pytest.raises(HypothesisError):
        extensions.pi_iota([parse("ab", 2)], 2, [parse("a^2", 2), parse("b", 2)])


@pytest.mark.parametrize(
    "gens", [["[a,b]"], ["ab"], ["a^2b^2"], ["a^2"], ["aab"], ["a^2", "ab"], ["a^2", "b"], ["a^3", "b"]]
)
def test_algebraic_in_ambient_matches_poset_mark(gens):
    H = graph(gens, 2)
    poset = extensions.algebraic_extensions(H)
    marks = [m for g, m in zip(poset.nodes, poset.alg_marks) if g == rose(2)]
    assert extensions.is_algebraic_in_ambient(H, 2) == (marks == [True])


def test_pi_iota_rejects_non_free_images():
    with pytest.raises(HypothesisError):
        extensions.pi_iota([parse("[a,b]", 2)], 2, [parse("a", 1), parse("a^2", 1)])


# -- free factor closure ----------------------------------------------


def test_ff_closure_of_power():
    A = extensions.ff_closure(graph(["a^2"], 1), rose(1))
    assert A == rose(1)


def test_ff_closure_inside_free_factor():
    # <a^2> sits inside the free factor <a> of F_2
    A = extensions.ff_closure(graph(["a^2"], 2), rose(2))
    assert [str(b) for b in stallings.basis(A)] == ["a"]


def test_ff_closure_of_commutator():
    assert extensions.ff_closure(graph(["[a,b]"], 2), rose(2)) == rose(2)


def ff_closure_oracle(H, J):
    """The free-factor closure by inclusion: every quotient of Gamma(H)
    inside J that is a free factor of J, then the one inside all others."""
    candidates = [
        A for A in stallings.quotients(H)
        if stallings.subgroup_leq(A, J) and extensions.is_free_factor(A, J)
    ]
    least = [A for A in candidates if all(stallings.subgroup_leq(A, B) for B in candidates)]
    assert len(least) == 1
    return least[0]


def test_ff_closure_is_the_least_rank_free_factor(monkeypatch):
    # 330 seeded pairs (H, J) in F_2 and F_3, J the rose or an overgroup
    # <H, w>; no quotient above the closure's rank is reduced, so none is
    # decided.  About 2 s on a 2-core machine.
    reduce, ranks = extensions._reduce, []

    def recording(M, J, f):
        ranks.append(M.rank)
        return reduce(M, J, f)

    monkeypatch.setattr(extensions, "_reduce", recording)
    rng = random.Random("ff-closure")
    kinds = {"H": 0, "between": 0, "J": 0}
    pairs = 0
    for rank, count in ((2, 90), (3, 75)):
        for _ in range(count):
            H = random_subgroup(rng, rank, rng.randint(1, 2), 5)
            over = stallings.from_generators(stallings.basis(H) + [random_word(rng, rank)], rank)
            for J in (rose(rank), over):
                want = ff_closure_oracle(H, J)
                ranks.clear()
                A = extensions.ff_closure(H, J)
                assert A == want, (H, J)
                assert ranks and max(ranks) <= A.rank
                kinds["H" if A == H else "J" if A == J else "between"] += 1
                pairs += 1
    assert pairs == 330
    assert kinds == {"H": 224, "between": 38, "J": 68}


# -- poset exports ----------------------------------------------------


def test_poset_json_and_dot():
    poset = extensions.algebraic_extensions(graph(["[a,b]"], 2))
    js = poset.to_json()
    assert '"algebraic": true' in js
    dot = poset.to_dot()
    assert dot.startswith("digraph") and "doublecircle" in dot


# -- value classes ----------------------------------------------------


def test_extension_poset_keeps_its_dataclass_contract():
    poset = extensions.algebraic_extensions(from_generators([parse("a^2")], 1))
    nodes = [rose(1), from_generators([parse("a^2")], 1)]
    assert repr(poset) == (
        "ExtensionPoset(nodes=[CoreGraph(ambient_rank=1, num_vertices=1, edges=((0, 1, 0),)), "
        "CoreGraph(ambient_rank=1, num_vertices=2, edges=((0, 1, 1), (1, 1, 0)))], "
        "base_index=1, ff_marks={(1, 0): False}, alg_marks=[True, True])"
    )
    assert poset == extensions.ExtensionPoset(nodes, 1, {(1, 0): False}, [True, True])
    assert poset == extensions.ExtensionPoset(
        nodes=nodes, base_index=1, ff_marks={(1, 0): False}, alg_marks=[True, True]
    )
