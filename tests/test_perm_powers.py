import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from wordmaps import measures, perm_powers
from wordmaps.errors import HypothesisError, InternalInvariantError
from wordmaps.perm_powers import (
    ObstructionVerdict,
    cycle_type,
    cycles,
    dth_root,
    format_cycles,
    identity,
    is_dth_power,
    moments_exact,
    parse_cycles,
    power_cycle_divisor,
    power_of_permutation,
    word_power_obstruction,
)
from wordmaps.words import parse


def moments_exact_naive(b, t, N):
    """All-permutations oracle for moments_exact (small N only)."""
    if t % b != 0:
        raise HypothesisError("b divides t", f"b={b}, t={t}")
    total1 = 0
    total2 = 0
    for p in measures.all_perms(N):
        c = cycle_type(power_of_permutation(p, b)).count(t)
        total1 += c
        total2 += c * c
    fact = math.factorial(N)
    return Fraction(total1, fact), Fraction(total2, fact)


# -- cycle machinery --------------------------------------------------


def test_cycle_type():
    p = parse_cycles("(1 2 3)(4 5)", 6)
    ct = cycle_type(p)
    assert ct.counts == ((1, 1), (2, 1), (3, 1))
    assert str(ct) == "1^1 2^1 3^1"


def test_parse_format_round_trip():
    for text, deg in [("(1 2 3)(4 5)", 6), ("()", 3), ("(1 4)(2 3)", 4)]:
        p = parse_cycles(text, deg)
        assert parse_cycles(format_cycles(p), deg) == p


def test_power_of_permutation():
    p = parse_cycles("(1 2 3 4)", 4)
    assert power_of_permutation(p, 2) == parse_cycles("(1 3)(2 4)", 4)
    assert power_of_permutation(p, -1) == parse_cycles("(1 4 3 2)", 4)
    assert power_of_permutation(p, 0) == identity(4)


def test_power_cycle_divisor():
    assert power_cycle_divisor(2, 2) == 2
    # primes of 6 are 2 and 3; v_2(4) = 2, v_3(4) = 0, so m_6 = 4
    assert power_cycle_divisor(6, 4) == 4
    assert power_cycle_divisor(3, 6) == 3
    assert power_cycle_divisor(5, 4) == 1


def power_cycle_divisor_by_factoring(t, d):
    """prod over primes p | t of p^(v_p(d)), by trial division of t."""
    m, p = 1, 2
    while t > 1:
        if t % p == 0:
            while t % p == 0:
                t //= p
            while d % p == 0:
                d //= p
                m *= p
        p += 1
    return m


def test_power_cycle_divisor_agrees_with_the_factorisation():
    for t in range(1, 201):
        for d in range(1, 201):
            assert power_cycle_divisor(t, d) == power_cycle_divisor_by_factoring(t, d), (t, d)


@pytest.mark.parametrize("t,d", [(0, 2), (3, 0), (4, -2)])
def test_power_cycle_divisor_needs_positive_arguments(t, d):
    with pytest.raises(ValueError, match="must be positive"):
        power_cycle_divisor(t, d)


def test_is_power_examples():
    assert is_dth_power(parse_cycles("(1 2)(3 4)", 4), 2)
    assert not is_dth_power(parse_cycles("(1 2)", 4), 2)
    assert not is_dth_power(parse_cycles("(1 2)(3 4)(5 6)", 6), 2)
    assert all(is_dth_power(p, 1) for p in _all_perms(4))


def test_root_examples():
    sq = dth_root(parse_cycles("(1 2)(3 4)", 4), 2)
    assert power_of_permutation(sq, 2) == parse_cycles("(1 2)(3 4)", 4)
    assert dth_root(identity(4), 2) is not None
    assert dth_root(parse_cycles("(1 2)(3 4)(5 6)", 6), 2) is None


def test_root_self_check_raises_an_internal_invariant_error(monkeypatch):
    # a plain assert would vanish under python -O
    monkeypatch.setattr(perm_powers, "power_of_permutation", lambda p, d: identity(len(p)))
    with pytest.raises(InternalInvariantError, match="constructed root to the power 2"):
        dth_root(parse_cycles("(1 2)(3 4)", 4), 2)


# -- criterion vs brute-force oracle ----------------------------------


def _all_perms(N):
    return [tuple(p) for p in itertools.permutations(range(N))]


@pytest.mark.parametrize("d", [2, 3, 4])
def test_criterion_matches_oracle_small(d):
    for N in (1, 2, 3, 4, 5):
        perms = _all_perms(N)
        powers = {power_of_permutation(p, d) for p in perms}
        for p in perms:
            assert is_dth_power(p, d) == (p in powers)
            root = dth_root(p, d)
            assert (root is not None) == (p in powers)
            if root is not None:
                assert power_of_permutation(root, d) == p


# -- moments ----------------------------------------------------------


def test_moments_known_values():
    assert moments_exact(1, 2, 4) == (Fraction(1, 2), Fraction(3, 4))
    assert moments_exact(2, 2, 8) == (Fraction(1, 2), Fraction(5, 4))
    assert moments_exact(1, 1, 2) == (Fraction(1), Fraction(2))


def test_moments_match_naive():
    for t in range(1, 9):
        for b in (b for b in range(1, t + 1) if t % b == 0):
            for N in range(1, 8):
                assert moments_exact(b, t, N) == moments_exact_naive(b, t, N)


def test_moments_validate_b_divides_t():
    with pytest.raises(HypothesisError):
        moments_exact(2, 3, 6)


def test_moments_at_large_degree():
    for b, t in ((1, 1), (1, 3), (2, 2), (3, 6)):
        for N in (50, 10**6):
            assert moments_exact(b, t, N) == (Fraction(1, t), Fraction(b, t) + Fraction(1, t * t))


def test_fixed_point_identity_of_powers():
    # c_1(sigma^d) = sum over t | d of t * c_t(sigma)
    for p in _all_perms(4):
        for d in (2, 3, 4, 6):
            lhs = cycle_type(power_of_permutation(p, d)).count(1)
            rhs = sum(t * cycle_type(p).count(t) for t in range(1, 5) if d % t == 0)
            assert lhs == rhs


# -- word obstruction -------------------------------------------------


def test_obstruction_square_word_never_witnessed():
    v = word_power_obstruction(parse("x^2"), 2, [2, 3, 4])
    assert not v.conclusive
    assert v.is_power_in_free_group


def test_obstruction_finds_witness_for_x2y2():
    v = word_power_obstruction(parse("x^2y^2"), 2, [2, 3, 4, 5, 6])
    assert v.conclusive and v.witness_degree == 6
    assert not v.is_power_in_free_group
    # witness really is an obstruction
    from wordmaps.measures import evaluate_word

    img = evaluate_word(parse("x^2y^2"), list(v.witness_tuple))
    assert not is_dth_power(img, 2)


def test_obstruction_witness_follows_sweep_order():
    # the exhaustive search visits class representatives in partition
    # order, then the least element of each centralizer orbit in
    # itertools.permutations order
    v = word_power_obstruction(parse("x^2y^2"), 2, [2, 3, 4, 5, 6])
    assert [format_cycles(p) for p in v.witness_tuple] == ["(1 2 3 4 5 6)", "(4 5 6)"]


def _first_witness(w, d, N):
    """The first tuple of the sweep that collapses only the first
    coordinate by conjugacy class whose image of w is not a d-th power."""
    pool = _all_perms(N)
    for lam in measures._partitions(N):
        for rest in itertools.product(pool, repeat=w.ambient_rank - 1):
            perms = (measures._class_rep(lam),) + rest
            if not is_dth_power(measures.evaluate_word(w, list(perms)), d):
                return perms
    return None


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("text", ["x^2y^2", "[x,y]", "x^2y^3", "aab"])
def test_obstruction_witness_matches_the_first_coordinate_sweep(text, d):
    # a witness is invariant under simultaneous conjugation and each
    # tuple of the orbit sweep is least in its orbit, so the first
    # witness is the same
    w = parse(text)
    for N in range(1, 7):
        assert word_power_obstruction(w, d, [N]).witness_tuple == _first_witness(w, d, N), N


def _unreachable(*_args):
    raise AssertionError("this step must not be reached")


@pytest.mark.parametrize("text,d", [("aa", 2), ("[a,b]^2", 2), ("1", 2), ("a^6", 3)])
def test_obstruction_of_a_power_in_the_free_group_sweeps_nothing(monkeypatch, text, d):
    # every image of w = v^d is the d-th power of the image of v, so the
    # sweep could find no witness; the verdict is the sweep's, unswept
    w = parse(text, 2)
    assert all(_first_witness(w, d, N) is None for N in range(1, 6))
    monkeypatch.setattr(perm_powers, "class_collapsed_tuples", _unreachable)
    monkeypatch.setattr(perm_powers, "random_tuple", _unreachable)
    # 12 is past the exhaustive cap, where the search would sample
    v = word_power_obstruction(w, d, [2, 3, 12])
    assert v == ObstructionVerdict(str(w), d, None, None, (2, 3, 12), True)
    with pytest.raises(ValueError, match="sample budget"):
        word_power_obstruction(w, d, [2], sample_budget=-1)


@pytest.mark.parametrize("text,d", [("a^3", 2), ("[a,b]^2", 3), ("a^2b^2", 2), ("a^4", 3)])
def test_obstruction_of_a_power_that_is_no_dth_power_still_sweeps(text, d):
    w = parse(text, 2)
    for N in range(1, 6):
        v = word_power_obstruction(w, d, [N])
        assert not v.is_power_in_free_group
        assert v.witness_tuple == _first_witness(w, d, N), N


def test_obstruction_rejects_a_negative_sample_budget():
    with pytest.raises(ValueError, match="sample budget"):
        word_power_obstruction(parse("x^2y^2"), 2, [2, 3], sample_budget=-1)


def test_obstruction_verdicts_are_pinned():
    # the README example, swept exhaustively, and N = 9, past the
    # exhaustive cap, where seeded samples are drawn; recorded before
    # words were composed by gathers
    assert word_power_obstruction(parse("x^2y^2"), 2, [2, 3, 4, 5, 6], seed=0) == ObstructionVerdict(
        "aabb", 2, 6, ((1, 2, 3, 4, 5, 0), (0, 1, 2, 4, 5, 3)), (2, 3, 4, 5, 6), False
    )
    assert not measures.within_hom_budget(9, 2, 1, perm_powers.OBSTRUCTION_EXHAUSTIVE_CAP)
    assert word_power_obstruction(parse("[x,y]"), 2, [9], seed=0) == ObstructionVerdict(
        "abAB", 2, 9, ((8, 4, 0, 3, 6, 5, 1, 2, 7), (1, 6, 0, 5, 8, 3, 7, 4, 2)), (9,), False
    )
    assert word_power_obstruction(parse("x^2y^2"), 2, [9], seed=0) == ObstructionVerdict(
        "aabb", 2, 9, ((7, 3, 5, 6, 0, 1, 2, 4, 8), (7, 0, 3, 2, 4, 6, 5, 1, 8)), (9,), False
    )


def test_obstruction_finds_witness_for_commutator():
    v = word_power_obstruction(parse("[x,y]"), 2, [2, 3, 4, 5, 6])
    assert v.conclusive and v.witness_degree == 6


# -- properties -------------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(st.permutations(list(range(6))), st.integers(1, 6))
def test_root_soundness(perm, d):
    p = tuple(perm)
    root = dth_root(p, d)
    if root is not None:
        assert power_of_permutation(root, d) == p


@settings(max_examples=50, deadline=None)
@given(st.permutations(list(range(7))), st.integers(2, 5))
def test_power_is_always_a_power(perm, d):
    p = power_of_permutation(tuple(perm), d)
    assert is_dth_power(p, d)
