import copy
import functools
import itertools
import pickle
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from wordmaps import words as word_module
from wordmaps.errors import WordSyntaxError
from wordmaps.words import (
    Word,
    WhiteheadMove,
    cyclic_reduce,
    enumerate_whitehead_moves,
    is_dth_power_in_free,
    maximal_root,
    parse,
    parse_list,
    parse_lists,
    substitute,
    whitehead_minimal,
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
    with pytest.raises(WordSyntaxError, match="exponent overflow"):
        parse("x^1000001")
    # a literal has at most MAX_PARSED_LENGTH letters before free
    # reduction, over all the words of a comma list
    for text in ["a^600000b^600000", "[a^600000,b^600000]", "(a^600000b^600000)^0",
                 "[[a,b]^250000,c]", "a^900000,b^900000"]:
        with pytest.raises(WordSyntaxError, match="word literal too long"):
            parse_list(text)


def test_a_literal_of_max_parsed_length_letters_parses():
    assert len(parse("a^999999b")) == word_module.MAX_PARSED_LENGTH
    assert [len(w) for w in parse_list("a^500000,b^500000")] == [500_000, 500_000]
    # each list of parse_lists is a literal of its own
    assert [len(ws[0]) for ws in parse_lists(["a^999999b", "a^999999b"])] == [10**6, 10**6]


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
    # `**` and the parser's `^d` build powers independently
    for text in ["a", "abA", "abAB", "aBc", "abA^2", "1"]:
        for d in range(-5, 6):
            assert parse(text, 3) ** d == parse(f"({text})^{d}", 3), (text, d)


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
    # seeded powers of conjugated words, against the brute-force period:
    # the least p dividing n whose rotation fixes the cyclic core
    rng = random.Random(7)
    for _ in range(300):
        raw = [(rng.randint(1, 2), rng.choice((1, -1))) for _ in range(rng.randint(1, 6))]
        c = Word(2, word_module.free_reduce(raw[: rng.randint(0, 2)]))
        w = (Word(2, word_module.free_reduce(raw)) ** rng.randint(1, 4)).conjugate_by(c)
        if w.is_identity:
            continue
        core = cyclic_reduce(w)[0].letters
        n = len(core)
        p = next(p for p in range(1, n + 1) if n % p == 0 and core[p:] + core[:p] == core)
        u, b = maximal_root(w)
        assert (b, len(cyclic_reduce(u)[0])) == (n // p, p)
        assert u**b == w


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


def _images_oracle(move):
    """The images of a move as products of Words, code by code."""
    r = move.rank
    if move.kind == "perm":
        return tuple(Word(r, ((move.perm[i] + 1, move.signs[i]),)) for i in range(r))
    a = Word(r, (move.multiplier,))
    ai = a.inverse()
    out = []
    for i in range(r):
        x = Word.generator(i + 1, r)
        c = 0 if i + 1 == move.multiplier[0] else move.codes[i]
        out.append([x, x * a, ai * x, ai * x * a][c])
    return tuple(out)


def _moves_oracle(rank):
    """The move list, each multiplier move's codes scattered over the
    generators other than the multiplier's own."""
    moves = [WhiteheadMove(rank, "perm", perm=perm, signs=signs)
             for perm in itertools.permutations(range(rank))
             for signs in itertools.product((1, -1), repeat=rank)]
    for g in range(1, rank + 1):
        for s in (1, -1):
            positions = [i for i in range(rank) if i + 1 != g]
            for assignment in itertools.product(range(4), repeat=len(positions)):
                codes = [0] * rank
                for i, c in zip(positions, assignment):
                    codes[i] = c
                moves.append(WhiteheadMove(rank, "mult", multiplier=(g, s), codes=tuple(codes)))
    return moves


def test_moves_and_images_match_the_product_oracles(monkeypatch):
    moves = [m for k in range(1, 5) for m in enumerate_whitehead_moves(k)]
    assert moves == [m for k in range(1, 5) for m in _moves_oracle(k)]
    assert len(moves) == 1068
    # a code at the multiplier's own generator is ignored
    odd = WhiteheadMove(3, "mult", multiplier=(2, -1), codes=(1, 3, 2))
    assert odd.images() == tuple(parse(t, 3) for t in ("aB", "b", "bc"))
    moves.append(odd)
    want = [_images_oracle(m) for m in moves]

    def no_product(*_):
        raise AssertionError("images() multiplied Words")

    monkeypatch.setattr(Word, "__mul__", no_product)
    assert [m.images() for m in moves] == want


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


# -- Whitehead minimisation against the move list ---------------------


@functools.cache
def _type_two_moves(rank):
    return [m for m in enumerate_whitehead_moves(rank) if m.kind == "mult"]


def _cyclic_core(w):
    return cyclic_reduce(w)[0]


def descend_by_moves(w):
    """Oracle for `whitehead_minimal`: greedy descent over every type-II
    move of `enumerate_whitehead_moves`, taking the first that shortens
    the cyclic core, until none does (complete by Whitehead's theorem;
    the type-I moves keep the length)."""
    core = _cyclic_core(w)
    while True:
        images = (_cyclic_core(m.apply(core)) for m in _type_two_moves(w.ambient_rank))
        shorter = next((v for v in images if len(v) < len(core)), None)
        if shorter is None:
            return core
        core = shorter


def random_cyclic_word(rng, rank, length):
    letters = [(g, s) for g in range(1, rank + 1) for s in (1, -1)]
    while True:
        w = [rng.choice(letters) for _ in range(length)]
        if all(x != (y[0], -y[1]) for x, y in zip(w, w[1:] + w[:1])):
            return Word(rank, tuple(w))


def _seeded_words():
    rng = random.Random(20190808)
    return [random_cyclic_word(rng, rank, rng.randint(1, 12)) for rank in (2, 3) for _ in range(160)]


def test_minimal_length_matches_the_move_descent():
    checked = 0
    for w in _seeded_words():
        m = whitehead_minimal(w)
        assert len(m) == len(descend_by_moves(w)), str(w)
        assert m.ambient_rank == w.ambient_rank and len(m) <= len(w)
        assert m == _cyclic_core(m)
        checked += 1
    assert checked >= 300


def test_shortening_cut_is_the_least_minimum_cut():
    # every A with a in A and a^-1 not in A, by brute force on <= 6 letters
    rng = random.Random(19080301)
    cuts = 0
    for rank in (2, 3):
        for _ in range(120):
            w = random_cyclic_word(rng, rank, rng.randint(1, 12))
            core = word_module._compact([word_module._CODES[x] for x in w.letters])
            n = 2 * len({x >> 1 for x in core})
            graph = word_module._star_graph(core, n)
            cap = lambda A: sum(graph[x][y] for x in A for y in range(n) if y not in A)  # noqa: E731
            for a in range(n):
                others = [v for v in range(n) if v >> 1 != a >> 1]
                sides = [{a, *chosen} for k in range(len(others) + 1)
                         for chosen in itertools.combinations(others, k)]
                least = min(map(cap, sides))
                A = word_module._shortening_cut(graph, a)
                if least == sum(graph[a]):
                    assert A is None, (str(w), a)
                    continue
                assert A is not None and cap(A) == least, (str(w), a)
                assert all(A <= B for B in sides if cap(B) == least), (str(w), a)
                cuts += 1
    assert cuts >= 100


def _star_cut(core, A):
    """cap(A) of the star graph of a cyclic letter list: the pairs xy
    whose edge {x, y^-1} has exactly one end in A."""
    inv = lambda x: (x[0], -x[1])  # noqa: E731
    return sum((x in A) != (inv(y) in A) for x, y in zip(core, core[1:] + core[:1]))


def test_each_step_shortens_by_the_degree_minus_the_cut(monkeypatch):
    apply = word_module._apply_whitehead
    steps = []

    def checked_apply(core, A, a):
        out = apply(core, A, a)
        letters = [word_module._LETTERS[x] for x in core]
        cut = {word_module._LETTERS[x] for x in A}
        mult = word_module._LETTERS[a]
        deg = sum(g == mult[0] for g, _ in letters)
        gain = deg - _star_cut(letters, cut)
        assert gain > 0 and len(out) == len(core) - gain
        # (A, a) is the type-II move with these codes
        rank = max(g for g, _ in letters + [mult])
        codes = tuple(((g, 1) in cut) + 2 * ((g, -1) in cut) if g != mult[0] else 0
                      for g in range(1, rank + 1))
        move = WhiteheadMove(rank, "mult", multiplier=mult, codes=codes)
        assert [word_module._LETTERS[x] for x in out] == list(
            _cyclic_core(move.apply(Word(rank, tuple(letters)))).letters)
        steps.append(gain)
        return out

    monkeypatch.setattr(word_module, "_apply_whitehead", checked_apply)
    shortened = 0
    for w in _seeded_words():
        before = len(_cyclic_core(w))
        assert before - len(whitehead_minimal(w)) == sum(steps)
        shortened += bool(steps)
        steps.clear()
    assert shortened >= 150  # 198 of the 320 words are not minimal


@pytest.mark.parametrize("rank", [2, 3])
def test_powers_and_commutator_powers_come_back(rank):
    # x^d and [x,y]^d under random products of Whitehead automorphisms
    rng = random.Random(rank)
    moves = enumerate_whitehead_moves(rank)
    longer = 0
    for d in (1, 2, 3):
        for base, length in ((parse("a", rank), d), (parse("[a,b]", rank), 4 * d)):
            for _ in range(20):
                w = base**d
                for _ in range(rng.randint(2, 6)):
                    w = _cyclic_core(rng.choice(moves).apply(w))
                longer += len(w) > length
                assert len(whitehead_minimal(w)) == length, str(w)
    # in F_2 only x^d can grow: an automorphism sends [x,y] to a conjugate
    # of [x,y]^(+-1) (Nielsen)
    assert longer >= 20


def test_minimal_words_of_small_cases():
    assert str(whitehead_minimal(parse("aab", 2))) == "a"
    assert str(whitehead_minimal(parse("b", 2))) == "a"  # renumbered
    assert str(whitehead_minimal(parse("xyXYxy"))) == "aBAba"
    assert whitehead_minimal(parse("1", 3)) == Word(3, ())
    assert whitehead_minimal(parse("bab^-1", 2)) == parse("a", 2)
    assert str(whitehead_minimal(parse("[x,y]^2"))) == "abABabAB"


def test_rank_ten_words_of_length_thirty_minimise_fast():
    # a random word (here primitive: some generator occurs once) descends
    # step by step to one letter, and the square of one of length 15 to
    # the square of a letter
    rng = random.Random(10)
    for w, length in ((random_cyclic_word(rng, 10, 30), 1), (random_cyclic_word(rng, 10, 15) ** 2, 2)):
        assert len(w) == 30 and len(whitehead_minimal(w)) == length
        best = min(_timed(whitehead_minimal, w) for _ in range(5))
        assert best < 0.01, (str(w), best)


def _timed(f, *args):
    t0 = time.perf_counter()
    f(*args)
    return time.perf_counter() - t0


# -- blocks in disjoint letters ----------------------------------------


@pytest.mark.parametrize(
    "text,count",
    [("1", 1), ("a", 1), ("abAB", 1), ("abaB", 1), ("aabbb", 2), ("aabbcc", 3),
     ("abABcdCD", 2), ("bABcdCDa", 2), ("cdCDaabb", 3), ("xyxz", 2), ("aacdCDabb", 2),
     ("abcABC", 1)],
)
def test_disjoint_blocks_split_a_rotation_into_disjoint_arcs(text, count):
    letters = parse(text).letters
    blocks = word_module.disjoint_blocks(letters)
    assert len(blocks) == count
    joined = tuple(itertools.chain.from_iterable(blocks))
    assert len(joined) == len(letters) and joined in [
        letters[k:] + letters[:k] for k in range(max(len(letters), 1))]
    gens = [{g for g, _ in block} for block in blocks]
    assert all(not (a & b) for a, b in itertools.combinations(gens, 2))


# -- value classes ----------------------------------------------------


def test_word_keeps_its_frozen_dataclass_contract():
    letters = ((1, 1), (2, -1))
    w = Word(2, letters)
    assert repr(w) == "Word(ambient_rank=2, letters=((1, 1), (2, -1)))"
    assert w == Word(ambient_rank=2, letters=letters) == Word(2, letters=letters)
    assert Word(2) == Word(2, ()) != Word(3)
    assert w != (2, letters)
    assert hash(w) == hash((2, letters))
    for name in ("ambient_rank", "letters"):
        with pytest.raises(AttributeError):
            setattr(w, name, 1)
        with pytest.raises(AttributeError):
            delattr(w, name)
    assert copy.copy(w) == pickle.loads(pickle.dumps(w)) == w


def test_whitehead_move_keeps_its_frozen_dataclass_contract():
    m = WhiteheadMove(2, "mult", multiplier=(1, -1), codes=(0, 3))
    assert repr(m) == (
        "WhiteheadMove(rank=2, kind='mult', perm=None, signs=None, multiplier=(1, -1), "
        "codes=(0, 3))"
    )
    assert m == WhiteheadMove(2, "mult", None, None, (1, -1), (0, 3))
    assert m == WhiteheadMove(rank=2, kind="mult", multiplier=(1, -1), codes=(0, 3))
    assert hash(m) == hash((2, "mult", None, None, (1, -1), (0, 3)))
    with pytest.raises(AttributeError):
        m.codes = (0, 0)
