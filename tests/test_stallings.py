import random

import pytest
from hypothesis import given, settings, strategies as st

from wordmaps import stallings
from wordmaps.stallings import CoreGraph, PreGraph, fold, from_generators, rose
from wordmaps.words import Word, free_reduce, parse


def graph(gens, rank):
    return from_generators([parse(g, rank) for g in gens], rank)


# -- folding ----------------------------------------------------------


def test_single_loop():
    g = graph(["a"], 1)
    assert g == rose(1)
    assert g.rank == 1


def test_commutator_graph():
    g = graph(["[a,b]"], 2)
    assert g.num_vertices == 4
    assert len(g.edges) == 4
    assert g.rank == 1


def test_known_rank_three():
    g = graph(["a^2", "b", "abA"], 3)
    assert g.rank == 3


def test_index_two_subgroup():
    g = graph(["a^2", "ab"], 2)
    assert g.rank == 2
    assert g.num_vertices == 2


def test_fold_is_independent_of_presentation():
    # <x^2, x^3> = <x>
    assert graph(["a^2", "a^3"], 1) == rose(1)


def test_trivial_subgroup():
    g = from_generators([], 2)
    assert g.rank == 0 and g.num_vertices == 1


# -- membership, inclusion, basis -------------------------------------


def test_contains():
    g = graph(["a^2", "ab"], 2)
    assert stallings.contains(g, parse("a^2", 2))
    assert stallings.contains(g, parse("abab", 2))
    assert not stallings.contains(g, parse("a", 2))
    assert not stallings.contains(g, parse("b", 2))


def test_subgroup_leq():
    H = graph(["a^2"], 2)
    J = graph(["a", "bab"], 2)
    assert stallings.subgroup_leq(H, J)
    assert not stallings.subgroup_leq(J, H)


def test_basis_regenerates():
    for gens, rank in [(["a^2", "ab"], 2), (["[a,b]"], 2), (["a^2", "b^2", "ab"], 2)]:
        g = graph(gens, rank)
        assert from_generators(stallings.basis(g), rank) == g


def test_rewrite_in_basis():
    J = graph(["a^2", "ab"], 2)
    w = parse("a^2abab", 2)  # (a^2) (ab)^2 in the basis
    rewritten = stallings.rewrite_in_basis(J, w)
    assert rewritten.ambient_rank == J.rank
    # substituting the basis back recovers w
    from wordmaps.words import substitute

    basis = [b.with_rank(2) for b in stallings.basis(J)]
    assert substitute(rewritten.with_rank(len(basis)), basis) == w


def test_rewrite_rejects_non_member():
    J = graph(["a^2"], 2)
    with pytest.raises(ValueError):
        stallings.rewrite_in_basis(J, parse("b", 2))


def _bfs_tree_oracle(H):
    """A breadth-first spanning tree from the base, labels ascending and
    outgoing before incoming: each vertex's tree path letters, the
    visiting order and the non-tree edges in edge order."""
    path, order, tree = {0: []}, [0], set()
    for v in order:
        for lab in range(1, H.ambient_rank + 1):
            w = H.out_map.get((v, lab))
            if w is not None and w not in path:
                path[w], tree = path[v] + [(lab, 1)], tree | {(v, lab, w)}
                order.append(w)
            u = H.in_map.get((v, lab))
            if u is not None and u not in path:
                path[u], tree = path[v] + [(lab, -1)], tree | {(u, lab, v)}
                order.append(u)
    return path, order, [e for e in H.edges if e not in tree]


def _basis_oracle(H):
    path, _, non_tree = _bfs_tree_oracle(H)
    inverse = lambda letters: [(g, -s) for g, s in reversed(letters)]
    return [Word(H.ambient_rank, free_reduce(path[u] + [(lab, 1)] + inverse(path[v])))
            for u, lab, v in non_tree]


def _rewrite_oracle(J, w):
    """w in the oracle's basis of J: one letter per non-tree edge crossed."""
    index = {e: i + 1 for i, e in enumerate(_bfs_tree_oracle(J)[2])}
    cur, out = 0, []
    for g, s in w.letters:
        nxt = (J.out_map if s == 1 else J.in_map)[(cur, g)]
        e = (cur, g, nxt) if s == 1 else (nxt, g, cur)
        if e in index:
            out.append((index[e], s))
        cur = nxt
    assert cur == 0
    return Word(max(J.rank, 1), free_reduce(out))


def test_basis_and_rewrite_agree_with_the_bfs_tree_on_every_quotient():
    # the canonical numbering is the BFS order, so the tree read off it
    # is the BFS tree; 120 subgroups, 585 quotients
    rng = random.Random("bfs-tree")
    samples = [_random_subgroup(rng, 6) for _ in range(120)]
    quotients = 0
    for H in samples:
        for q in stallings.quotients(H):
            _, order, _ = _bfs_tree_oracle(q)
            assert order == list(range(q.num_vertices))
            assert stallings.basis(q) == _basis_oracle(q)
            for b in stallings.basis(H):
                assert stallings.rewrite_in_basis(q, b) == _rewrite_oracle(q, b)
            quotients += 1
    assert quotients == 585


# -- quotients --------------------------------------------------------


def test_quotients_of_commutator():
    H = graph(["[a,b]"], 2)
    qs = stallings.quotients(H)
    assert len(qs) == 7
    assert H in qs
    assert rose(2) in qs


def test_quotients_are_overgroups():
    H = graph(["[a,b]"], 2)
    for q in stallings.quotients(H):
        assert stallings.subgroup_leq(H, q)


def _restricted_growth_strings(n: int):
    if n == 1:
        yield (0,)
        return
    for rgs in _restricted_growth_strings(n - 1):
        for b in range(max(rgs) + 2):
            yield rgs + (b,)


def _quotients_oracle(H):
    """Merge every set partition of the vertices, fold, dedupe, sort."""
    found = {}
    for rgs in _restricted_growth_strings(H.num_vertices):
        edges = [(rgs[u], lab, rgs[v]) for u, lab, v in H.edges]
        g = fold(PreGraph(H.ambient_rank, max(rgs) + 1, edges))
        found.setdefault(g.canonical_key, g)
    return sorted(found.values(), key=lambda g: (len(g.edges), g.canonical_key))


def _random_subgroup(rng: random.Random, max_vertices: int):
    """A random subgroup whose core graph has 2..max_vertices vertices."""
    while True:
        H = fold(_random_pregraph(rng))
        if 2 <= H.num_vertices <= max_vertices:
            return H


def test_quotients_match_partition_oracle():
    rng = random.Random(20261018)
    samples = [_random_subgroup(rng, 8) for _ in range(200)]
    # roses, and vertices reached by an edge into an earlier vertex next
    # to a loop of a smaller label
    samples += [graph(g, r) for g, r in [
        ([], 2), (["a", "c"], 3), (["bab^-1"], 2), (["b^-1ab"], 2),
        (["b^-1a^2b", "c"], 3), (["a", "b^2", "bcB"], 3), (["ab^-1c"], 3),
    ]]
    # a loop, and a base of degree one (on a hair)
    assert any(u == v for H in samples for u, _, v in H.edges)
    assert any(sum((u == 0) + (v == 0) for u, _, v in H.edges) == 1 for H in samples)
    for H in samples:
        want = _quotients_oracle(H)
        assert stallings.quotients(H) == want
        # the vertex bound keeps exactly the small quotients, each once
        k = max(1, H.num_vertices - 2)
        small = [fold(PreGraph(H.ambient_rank, v, list(es)))
                 for v, es in stallings.quotient_graphs(H, k)]
        assert sorted(g.canonical_key for g in small) == sorted(
            g.canonical_key for g in want if g.num_vertices <= k
        )


# -- canonicalization determinism -------------------------------------


def _random_pregraph(rng: random.Random) -> PreGraph:
    rank = rng.randint(1, 3)
    pre = PreGraph(rank, 1, [])
    for _ in range(rng.randint(1, 4)):
        n = rng.randint(1, 6)
        letters = []
        for _ in range(n):
            g = rng.randint(1, rank)
            s = rng.choice([1, -1])
            if letters and letters[-1][0] == g and letters[-1][1] == -s:
                continue
            letters.append((g, s))
        if letters:
            pre.add_word_loop(Word(rank, tuple(letters)))
    return pre


def _shuffled_copy(pre: PreGraph, rng: random.Random) -> PreGraph:
    # relabel non-base vertices and permute the edge list
    perm = list(range(1, pre.num_vertices))
    rng.shuffle(perm)
    rename = {0: 0} | {old: new for new, old in enumerate(perm, start=1)}
    edges = [(rename[t], lbl, rename[h]) for t, lbl, h in pre.edges]
    rng.shuffle(edges)
    return PreGraph(pre.ambient_rank, pre.num_vertices, edges)


def test_fold_confluence():
    rng = random.Random(20260823)
    for _ in range(50):
        pre = _random_pregraph(rng)
        keys = set()
        for _ in range(10):
            keys.add(fold(_shuffled_copy(pre, rng)).canonical_key)
        assert len(keys) == 1


def test_dot_export_is_deterministic():
    g = graph(["a^2", "ab"], 2)
    assert stallings.to_dot(g) == stallings.to_dot(graph(["ab", "a^2"], 2))
    assert "v0" in stallings.to_dot(g)


# -- properties -------------------------------------------------------

gen_word = st.text(alphabet="abAB", min_size=1, max_size=8)


@settings(max_examples=60, deadline=None)
@given(st.lists(gen_word, min_size=1, max_size=3))
def test_generators_are_members(texts):
    gens = [parse(t, 2) for t in texts]
    g = from_generators(gens, 2)
    for w in gens:
        assert stallings.contains(g, w)


@settings(max_examples=40, deadline=None)
@given(st.lists(gen_word, min_size=1, max_size=3))
def test_rank_bounded_by_generators(texts):
    gens = [parse(t, 2) for t in texts]
    g = from_generators(gens, 2)
    assert 0 <= g.rank <= len(gens)
