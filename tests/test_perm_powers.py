import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from wordmaps import perm_powers
from wordmaps.errors import HypothesisError
from wordmaps.perm_powers import (
    cycle_type,
    cycles,
    dth_root,
    format_cycles,
    identity,
    is_dth_power,
    moments_exact,
    moments_exact_naive,
    parse_cycles,
    power_cycle_divisor,
    power_of_permutation,
    word_power_obstruction,
)
from wordmaps.words import parse


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
    # order, then the second coordinate in itertools.permutations order
    v = word_power_obstruction(parse("x^2y^2"), 2, [2, 3, 4, 5, 6])
    assert [format_cycles(p) for p in v.witness_tuple] == ["(1 2 3 4 5 6)", "(4 5 6)"]


def test_obstruction_rejects_a_negative_sample_budget():
    with pytest.raises(ValueError, match="sample budget"):
        word_power_obstruction(parse("x^2y^2"), 2, [2, 3], sample_budget=-1)


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
