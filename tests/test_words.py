import pytest
from hypothesis import given, settings, strategies as st

from wordmaps.errors import WordSyntaxError
from wordmaps.words import (
    Word,
    cyclic_reduce,
    enumerate_whitehead_moves,
    is_dth_power_in_free,
    maximal_root,
    parse,
    parse_list,
    parse_lists,
    substitute,
)


# -- strategies -------------------------------------------------------

letters = st.tuples(st.integers(1, 3), st.sampled_from([1, -1]))


@st.composite
def words(draw, rank=3, max_len=12):
    raw = draw(st.lists(letters, max_size=max_len))
    from wordmaps.words import free_reduce

    return Word(rank, free_reduce(raw))


# -- parsing ----------------------------------------------------------


def test_parse_basic_reduction():
    assert str(parse("xyXY")) == "abAB"
    assert len(parse("xyXY")) == 4
    assert parse("x X") == Word(1, ())
    assert str(parse("1")) == "1"


def test_parse_list_splits_at_top_level_commas_only():
    assert [str(w) for w in parse_list("[a,b], a^2", 2)] == ["abAB", "aa"]
    with pytest.raises(WordSyntaxError):
        parse("a,b")


def test_parse_list_shares_one_letter_map():
    ws = parse_list("x^2,y")
    assert [str(w) for w in ws] == ["aa", "b"]
    assert all(w.ambient_rank == 2 for w in ws)
    with pytest.raises(WordSyntaxError):
        parse_list("a,c", 2)
    # across lists too; a syntax error keeps its position in its own list
    H, J = parse_lists(["y^2", "x,y"])
    assert [str(w) for w in H] == ["bb"] and [str(w) for w in J] == ["a", "b"]
    with pytest.raises(WordSyntaxError, match="at position 3"):
        parse_lists(["a", "a,b?"])


def test_parse_commutator_and_exponent():
    assert parse("[x,y]") == parse("xyXY")
    assert parse("(xy)^2") == parse("xyxy")
    assert parse("x^-2") == parse("XX")


def test_parse_explicit_rank_is_alphabetical():
    w = parse("acaC^2", 3)
    assert w.ambient_rank == 3
    assert w.letters == ((1, 1), (3, 1), (1, 1), (3, -1), (3, -1))


def test_parse_default_rank_compacts():
    assert parse("[x,y]").ambient_rank == 2
    assert parse("x").ambient_rank == 1


def test_parse_errors_carry_position():
    with pytest.raises(WordSyntaxError):
        parse("x)")
    with pytest.raises(WordSyntaxError):
        parse("x^")
    with pytest.raises(WordSyntaxError):
        parse("z", 2)
    with pytest.raises(WordSyntaxError):
        parse("x^1000001")


def test_word_rejects_unreduced():
    with pytest.raises(ValueError):
        Word(2, ((1, 1), (1, -1)))


# -- group operations -------------------------------------------------


def test_multiplication_cancels():
    assert parse("xy") * parse("Yx") == parse("aa", 2)


def test_inverse_and_power():
    w = parse("xyX")
    assert w * w.inverse() == Word(2, ())
    assert w**3 == parse("xy^3X")


def test_substitute_examples():
    # x1 x2 x1^-1 under x1 -> ab, x2 -> b^2: (ab)(b^2)(BA) reduces to ab^2A
    w = parse("aba^-1", 2)
    out = substitute(w, [parse("ab", 2), parse("b^2", 2)])
    assert out == parse("ab^2A", 2)


def test_substitute_arity_checked():
    with pytest.raises(ValueError):
        substitute(parse("[x,y]"), [parse("a")])


# -- cyclic reduction and roots ---------------------------------------


def test_cyclic_reduce():
    core, conj = cyclic_reduce(parse("Abba", 2))
    assert str(core) == "bb"
    assert str(conj) == "A"
    core, conj = cyclic_reduce(parse("[x,y]"))
    assert core == parse("[x,y]") and conj.is_identity


def test_maximal_root_examples():
    assert maximal_root(parse("xyxy")) == (parse("xy"), 2)
    assert maximal_root(parse("[x,y]")) == (parse("[x,y]"), 1)
    u, b = maximal_root(parse("Ab^6a", 2))
    assert (str(u), b) == ("Aba", 6)


def test_is_dth_power_in_free():
    assert is_dth_power_in_free(parse("x^4"), 2)
    assert not is_dth_power_in_free(parse("x^2y^2"), 2)
    assert is_dth_power_in_free(Word.identity(1), 5)


# -- Whitehead moves --------------------------------------------------


def test_whitehead_move_count():
    # type I: r! 2^r; type II: 2r 4^(r-1)
    assert len(enumerate_whitehead_moves(2)) == 2 * 4 + 4 * 4
    assert len(enumerate_whitehead_moves(3)) == 6 * 8 + 6 * 16


def test_whitehead_moves_are_automorphisms():
    for move in enumerate_whitehead_moves(2)[:12]:
        images = move.images()
        # invertibility: each generator is in the image subgroup (rank preserved)
        from wordmaps import stallings

        g = stallings.from_generators(list(images), 2)
        assert g == stallings.rose(2)


# -- properties -------------------------------------------------------


@given(words())
def test_print_parse_round_trip(w):
    assert parse(str(w), w.ambient_rank) == w


@given(words(), words(), words())
def test_multiplication_associative(u, v, w):
    assert (u * v) * w == u * (v * w)


@given(words())
def test_inverse_involution(w):
    assert w.inverse().inverse() == w


@given(words(), st.integers(1, 4))
def test_maximal_root_reconstructs(w, d):
    if w.is_identity:
        return
    u, b = maximal_root(w**d)
    assert u**b == w**d
    assert maximal_root(u)[1] == 1


@given(words())
def test_identity_substitution(w):
    gens = [Word.generator(i + 1, 3) for i in range(3)]
    assert substitute(w, gens) == w


@settings(max_examples=30)
@given(words(), words(), st.integers(0, 95))
def test_whitehead_is_homomorphism(u, v, idx):
    moves = enumerate_whitehead_moves(3)
    move = moves[idx % len(moves)]
    assert move.apply(u * v) == move.apply(u) * move.apply(v)
