"""Cycle statistics and the d-th power calculus on permutations.

A permutation sigma of degree N is a d-th power exactly when, for every
cycle length t present in sigma, the number of t-cycles is divisible by
m_t = prod over primes p | t of p^(v_p(d)).  The constructive converse
interleaves groups of m_t t-cycles into single (t * m_t)-cycles.
"""
from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import NamedTuple

from .errors import HypothesisError, InternalInvariantError
from .measures import (  # evaluate_word is re-exported: bench/tracer.py wraps it here
    Perm,
    class_collapsed_tuples,
    compose,
    cycle_type_key,
    cycles,
    evaluate_word,
    invert,
    random_tuple,
    within_hom_budget,
    word_image,
)
from .words import Word, is_dth_power_in_free

OBSTRUCTION_EXHAUSTIVE_CAP = 2_000_000


class CycleType(NamedTuple):
    degree: int
    counts: tuple[tuple[int, int], ...]  # (cycle length t, multiplicity c_t)

    def count(self, t: int) -> int:
        return dict(self.counts).get(t, 0)

    def __str__(self) -> str:
        return " ".join(f"{t}^{c}" for t, c in self.counts)


def identity(N: int) -> Perm:
    return tuple(range(N))


def power_of_permutation(p: Perm, d: int) -> Perm:
    if d < 0:
        return power_of_permutation(invert(p), -d)
    out = identity(len(p))
    base = p
    while d:
        if d & 1:
            out = compose(out, base)
        base = compose(base, base)
        d >>= 1
    return out


def cycle_type(p: Perm) -> CycleType:
    key = cycle_type_key(p)
    return CycleType(len(p), tuple((t, key.count(t)) for t in sorted(set(key))))


def power_cycle_divisor(t: int, d: int) -> int:
    """m_t = prod over primes p | t of p^(v_p(d)), the part of d on the
    primes of t: peel g = gcd(t, d) off d until it is 1."""
    if t < 1 or d < 1:
        raise ValueError(f"t and d must be positive (t={t}, d={d})")
    m = 1
    g = math.gcd(t, d)
    while g > 1:
        m *= g
        d //= g
        g = math.gcd(t, d)
    return m


def is_dth_power(p: Perm, d: int) -> bool:
    """True iff some permutation of the same degree d-powers to p."""
    if d <= 0:
        raise ValueError("d must be positive")
    key = cycle_type_key(p)
    for t in set(key):
        if key.count(t) % power_cycle_divisor(t, d):
            return False
    return True


def dth_root(p: Perm, d: int) -> Perm | None:
    """A permutation whose d-th power is p, or None.

    Deterministic: for each cycle length t, the t-cycles are grouped in
    ascending order of their smallest moved point and each group of
    m_t cycles is interleaved into one (t * m_t)-cycle.
    """
    if not is_dth_power(p, d):
        return None
    root = list(range(len(p)))
    by_length: dict[int, list[list[int]]] = {}
    for cyc in sorted(cycles(p), key=min):
        by_length.setdefault(len(cyc), []).append(cyc)
    for t, cycs in by_length.items():
        m = power_cycle_divisor(t, d)
        for i in range(0, len(cycs), m):
            group = cycs[i : i + m]
            L = t * m
            big = [0] * L
            # position j + k*d (mod L) of the big cycle carries the k-th
            # point of group[j]; the d-th power then restores each cycle.
            for j in range(m):
                for k in range(t):
                    big[(j + k * d) % L] = group[j][k]
            for a, b in zip(big, big[1:] + big[:1]):
                root[a] = b
    root_t = tuple(root)
    if power_of_permutation(root_t, d) != p:
        raise InternalInvariantError(f"constructed root to the power {d} is not the permutation")
    return root_t


# ----------------------------------------------------------------------
# Moments of cycle counts
# ----------------------------------------------------------------------


def moments_exact(b: int, t: int, N: int) -> tuple[Fraction, Fraction]:
    """Exact (E[c_t(sigma^b)], E[c_t^2(sigma^b)]) for uniform sigma in S_N.

    Requires b != 0, t >= 1 and b | t.  Then each |b|t-cycle of sigma
    splits into |b| t-cycles of sigma^b and no other cycle gives one, and
    E[c_L] = [L <= N] / L, E[c_L (c_L - 1)] = [2L <= N] / L^2.
    """
    if b == 0 or t < 1:
        raise ValueError(f"moments need b != 0 and t >= 1 (b={b}, t={t})")
    if t % b != 0:
        raise HypothesisError("b divides t", f"b={b}, t={t}")
    L = abs(b) * t
    first = Fraction(int(L <= N), t)
    return first, abs(b) * first + Fraction(int(2 * L <= N), t * t)


# ----------------------------------------------------------------------
# Word-level power obstruction
# ----------------------------------------------------------------------


class ObstructionVerdict(NamedTuple):
    word: str
    d: int
    witness_degree: int | None
    witness_tuple: tuple[Perm, ...] | None
    searched: tuple[int, ...]
    is_power_in_free_group: bool

    @property
    def conclusive(self) -> bool:
        return self.witness_degree is not None


def word_power_obstruction(
    w: Word,
    d: int,
    N_range: list[int],
    sample_budget: int = 10_000,
    seed: "int | str" = 0,
) -> ObstructionVerdict:
    """Search Hom(F_r, S_N) for an image of w that is not a d-th power.

    A witness proves w is not a d-th power (its image would have to be
    one); no witness is inconclusive from the S_N side.  The verdict also
    records the exact free-group answer from root extraction; when w is a
    d-th power in the free group no image can be a witness, and no degree
    is swept.  Degrees past the exhaustive cap draw `sample_budget` seeded
    samples each; a negative budget raises ValueError.
    """
    if sample_budget < 0:
        raise ValueError(f"sample budget must be non-negative, got {sample_budget}")
    r = w.ambient_rank
    free_side = is_dth_power_in_free(w, d)
    if free_side:
        # every image of w = v^d is the d-th power of the image of v
        return ObstructionVerdict(str(w), d, None, None, tuple(N_range), True)
    for N in N_range:
        if within_hom_budget(N, r, 1, OBSTRUCTION_EXHAUSTIVE_CAP):
            # whether the image is a d-th power is a class function of the
            # image, so the first coordinate ranges over class reps only
            candidates = ((perms, invs) for _, perms, invs in class_collapsed_tuples(N, r))
        else:
            rng = random.Random(f"{seed}/{N}")
            candidates = (random_tuple(rng, N, r) for _ in range(sample_budget))
        for perms, invs in candidates:
            if not is_dth_power(word_image(w.letters, perms, invs), d):
                return ObstructionVerdict(
                    str(w), d, N, perms, tuple(N_range), free_side
                )
    return ObstructionVerdict(str(w), d, None, None, tuple(N_range), free_side)


# ----------------------------------------------------------------------
# Cycle-notation parsing and printing
# ----------------------------------------------------------------------


def parse_cycles(text: str, degree: int) -> Perm:
    """Parse "(1 2 3)(4 5)" (1-based points; fixed points may be omitted)."""
    if degree < 1:
        raise ValueError(f"degree must be positive, got {degree}")
    p = list(range(degree))
    text = text.strip()
    pos = 0
    seen: set[int] = set()
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        if text[pos] != "(":
            raise ValueError(f"expected '(' at position {pos}")
        end = text.find(")", pos)
        if end < 0:
            raise ValueError("unbalanced parenthesis")
        pts = [int(tok) for tok in text[pos + 1 : end].replace(",", " ").split()]
        if any(not (1 <= q <= degree) for q in pts):
            raise ValueError("point out of range")
        if seen & set(pts) or len(set(pts)) != len(pts):
            raise ValueError("repeated point")
        seen |= set(pts)
        for a, bpt in zip(pts, pts[1:] + pts[:1]):
            p[a - 1] = bpt - 1
        pos = end + 1
    return tuple(p)


def format_cycles(p: Perm) -> str:
    parts = [
        "(" + " ".join(str(q + 1) for q in cyc) + ")"
        for cyc in cycles(p)
        if len(cyc) > 1
    ]
    return "".join(parts) if parts else "()"
