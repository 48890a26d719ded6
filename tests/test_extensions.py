
import pytest

from wordmaps import extensions, stallings
from wordmaps.errors import HypothesisError
from wordmaps.extensions import INFINITE_RANK
from wordmaps.measures import trw_exact
from wordmaps.stallings import from_generators, rose
from wordmaps.words import parse


def graph(gens, rank):
    return from_generators([parse(g, rank) for g in gens], rank)


def ae_bases(gens, rank):
    H = graph(gens, rank)
    poset = extensions.algebraic_extensions(H)
    return sorted(
        tuple(str(b) for b in stallings.basis(g)) for g in poset.algebraic_nodes()
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
    assert poset.proper_algebraic_nodes() == []


# -- primitivity rank -------------------------------------------------


def test_pi_values():
    assert extensions.pi_of_word(parse("a", 2)) == INFINITE_RANK
    assert extensions.pi_of_word(parse("ab", 2)) == INFINITE_RANK
    assert extensions.pi_of_word(parse("a^2", 1)) == 1
    assert extensions.pi_of_word(parse("a^2", 2)) == 1
    assert extensions.pi_details(graph(["[a,b]"], 2))[:2] == (2, 1)
    assert extensions.pi_details(graph(["a^2b^2"], 2))[:2] == (2, 1)


def test_pi_of_the_trivial_word_is_zero_with_one_extension():
    # pi(1) = 0, C = 1, attained by {1} itself; the leading term of
    # Tr_1(N) = N = 1 + C N^(1 - pi) - 1 agrees
    H = graph(["1"], 2)
    assert extensions.pi_details(H) == (0, 1, [H])
    assert extensions.pi_of_word(parse("1", 1)) == 0
    pi, C, _ = extensions.pi_details(H)
    for N in range(1, 8):
        assert trw_exact(parse("1", 2), N) == N == 1 + C * N ** (1 - pi) - 1


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


# -- poset exports ----------------------------------------------------


def test_poset_json_and_dot():
    poset = extensions.algebraic_extensions(graph(["[a,b]"], 2))
    js = poset.to_json()
    assert '"algebraic": true' in js
    dot = poset.to_dot()
    assert dot.startswith("digraph") and "doublecircle" in dot
