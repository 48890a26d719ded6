"""Exact and Monte Carlo word measures on symmetric and finite groups.

Exact values are arbitrary-precision rationals (`fractions.Fraction`).
Tr_w(N) and Phi_H(N) are sums over the folded quotients of Gamma(H).
The measure tables on S_N enumerate Hom(F_r, S_N) through one serial
sweep, `class_collapsed_tuples`, which collapses the first coordinate
by conjugacy class (the tables are invariant under simultaneous
conjugation).  The naive all-tuples path is kept as the trusted oracle
for differential testing.  Monte Carlo draws from one stream seeded
`Random(f"{seed}/0")`.
"""
from __future__ import annotations

import itertools
import math
import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .errors import BudgetExceededError
from .stallings import from_generators, quotient_graphs
from .words import Word

DEFAULT_BUDGET = 10**9  # quotient-search steps (Tr/Phi), or tuples x word length
CAYLEY_ORDER_CAP = 64

Perm = tuple[int, ...]


# ----------------------------------------------------------------------
# Symmetric-group plumbing
# ----------------------------------------------------------------------


def invert(p: Perm) -> Perm:
    inv = [0] * len(p)
    for i, j in enumerate(p):
        inv[j] = i
    return tuple(inv)


def all_perms(N: int) -> list[Perm]:
    return list(itertools.permutations(range(N)))


def _partitions(N: int, largest: int | None = None):
    """Partitions of N as descending tuples."""
    largest = N if largest is None else largest
    if N == 0:
        yield ()
        return
    for first in range(min(N, largest), 0, -1):
        for rest in _partitions(N - first, first):
            yield (first,) + rest


def _class_rep(lam: tuple[int, ...]) -> Perm:
    """A permutation with cycle type lam, cycles on consecutive points."""
    p = []
    start = 0
    for t in lam:
        p.extend(list(range(start + 1, start + t)) + [start])
        start += t
    return tuple(p)


def _class_size(lam: tuple[int, ...], N: int) -> int:
    z = 1
    for t in set(lam):
        m = lam.count(t)
        z *= t**m * math.factorial(m)
    return math.factorial(N) // z


def cycles(p: Perm) -> list[list[int]]:
    """The cycles of p, each listed from its least point, ordered by it."""
    seen = [False] * len(p)
    out = []
    for i in range(len(p)):
        if seen[i]:
            continue
        cyc = []
        j = i
        while not seen[j]:
            seen[j] = True
            cyc.append(j)
            j = p[j]
        out.append(cyc)
    return out


def cycle_type_key(p: Perm) -> tuple[int, ...]:
    """Cycle type as a descending tuple (the class label used in tables)."""
    return tuple(sorted(map(len, cycles(p)), reverse=True))


def class_collapsed_tuples(N: int, r: int):
    """Hom(F_r, S_N) with the first coordinate collapsed by conjugacy class.

    Yields (class size, perms, inverses): the first coordinate runs over
    one representative per class in partition order, the other r - 1
    over all of S_N in `itertools.product` order.  Weighting a function
    invariant under simultaneous conjugation by the class size sums it
    over all (N!)^r tuples.
    """
    pool = all_perms(N) if r > 1 else []
    inv_pool = [invert(p) for p in pool]
    for lam in _partitions(N):
        rep = _class_rep(lam)
        size = _class_size(lam, N)
        head, head_inv = (rep,), (invert(rep),)
        # the two products walk in lockstep, so rest_inv inverts rest
        for rest, rest_inv in zip(
            itertools.product(pool, repeat=r - 1),
            itertools.product(inv_pool, repeat=r - 1),
        ):
            yield size, head + rest, head_inv + rest_inv


def _trace_point(letters, perms, invs, q: int) -> int:
    for g, s in letters:
        q = perms[g - 1][q] if s == 1 else invs[g - 1][q]
    return q


def _fix_count(letters, perms, invs, N: int) -> int:
    return sum(1 for q in range(N) if _trace_point(letters, perms, invs, q) == q)


def evaluate_word(w: Word, perms: list[Perm]) -> Perm:
    """The image of w under x_i -> perms[i-1] (right action composition)."""
    invs = [invert(p) for p in perms]
    N = len(perms[0]) if perms else 0
    return tuple(_trace_point(w.letters, perms, invs, q) for q in range(N))


def within_hom_budget(N: int, r: int, length: int, budget: int) -> bool:
    """Whether (N!)^r x max(length, 1) <= budget.

    The product is built factor by factor and abandoned once it passes
    the budget, so a huge N costs no more than a small one.
    """
    work = max(length, 1)
    for _ in range(r):
        for k in range(2, N + 1):
            work *= k
            if work > budget:
                return False
    return True


def _check_budget(N: int, r: int, word_len: int, budget: int):
    if not within_hom_budget(N, r, word_len, budget):
        raise BudgetExceededError(
            f"(N!)^r x length exceeds the budget {budget} "
            f"(N={N}, r={r}, length={word_len})"
        )


# ----------------------------------------------------------------------
# Exact functionals on S_N
# ----------------------------------------------------------------------


def _effective_letter_lists(gens: list[Word]) -> tuple[list[tuple], int]:
    """Renumber the generators actually used to 1..m (exact: unused
    coordinates integrate out of the uniform average)."""
    used = sorted({g for w in gens for g, _ in w.letters})
    remap = {g: i + 1 for i, g in enumerate(used)}
    lists = [tuple((remap[g], s) for g, s in w.letters) for w in gens]
    return lists, len(used)


def phi_exact(
    H_gens: list[Word],
    ambient_rank: int,
    N: int,
    budget: int = DEFAULT_BUDGET,
) -> Fraction:
    """Expected number of points fixed by every generator image under a
    uniform homomorphism F_r -> S_N.  The trivial subgroup gives N.
    Sums (N)_v(J) / prod_j (N)_e_j(J) over the quotients J of Gamma(H)
    with v(J) <= N vertices and e_j(J) j-edges (Puder-Parzanchevski),
    as integers over prod_j (N)_c_j with c_j = min(e_j(Gamma(H)), N):
    the cost does not depend on N.  `budget` caps the search steps."""
    del ambient_rank  # unused coordinates average out exactly
    H = from_generators(H_gens, max((g.ambient_rank for g in H_gens), default=1))
    c = {j: min(k, N) for j, k in Counter(lab for _, lab, _ in H.edges).items()}
    numer = 0  # (N)_c / (N)_e = (N - e)_(c - e), as e_j(J) <= c_j
    for v, edges in quotient_graphs(H, N, budget):
        e = Counter(lab for _, lab, _ in edges)
        numer += math.perm(N, v) * math.prod(math.perm(N - e[j], c[j] - e[j]) for j in c)
    return Fraction(numer, math.prod(math.perm(N, k) for k in c.values()))


def trw_exact(w: Word, N: int, budget: int = DEFAULT_BUDGET) -> Fraction:
    """Expected number of fixed points of a w-random permutation in S_N."""
    return phi_exact([w], w.ambient_rank, N, budget=budget)


def trw_exact_naive(w: Word, N: int, budget: int = DEFAULT_BUDGET) -> Fraction:
    """All-tuples oracle for trw_exact: fixed points over Hom(F_r, S_N)."""
    letter_lists, r = _effective_letter_lists([w])
    if r == 0:
        return Fraction(N)
    _check_budget(N, r, len(w), budget)
    perms_pool = all_perms(N)
    inv_pool = {p: invert(p) for p in perms_pool}
    total = 0
    for perms in itertools.product(perms_pool, repeat=r):
        invs = tuple(inv_pool[p] for p in perms)
        total += _fix_count(letter_lists[0], perms, invs, N)
    return Fraction(total, math.factorial(N) ** r)


# ----------------------------------------------------------------------
# Finite groups given by a Cayley table
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class FiniteGroupTable:
    """A finite group presented by its full multiplication table.

    Element 0 must be the identity.  The order cap, then all group
    axioms are checked at construction; the first violation is reported.
    """

    order: int
    table: tuple[tuple[int, ...], ...]
    names: tuple[str, ...] = field(default=())

    def __post_init__(self):
        n = self.order
        if n > CAYLEY_ORDER_CAP:
            raise BudgetExceededError(f"group order {n} exceeds cap {CAYLEY_ORDER_CAP}")
        if len(self.table) != n or any(len(row) != n for row in self.table):
            raise ValueError("table is not n x n")
        for i, row in enumerate(self.table):
            for j, v in enumerate(row):
                if not (0 <= v < n):
                    raise ValueError(f"closure fails at ({i},{j}): entry {v}")
        for i in range(n):
            if self.table[0][i] != i or self.table[i][0] != i:
                raise ValueError(f"element 0 is not a two-sided identity (at {i})")
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    if self.table[self.table[a][b]][c] != self.table[a][self.table[b][c]]:
                        raise ValueError(f"associativity fails at ({a},{b},{c})")
        for a in range(n):
            if not any(self.table[a][b] == 0 for b in range(n)):
                raise ValueError(f"element {a} has no inverse")

    @cached_property
    def inverse(self) -> tuple[int, ...]:
        inv = [0] * self.order
        for a in range(self.order):
            inv[a] = next(b for b in range(self.order) if self.table[a][b] == 0)
        return tuple(inv)

    @cached_property
    def conjugacy_classes(self) -> list[tuple[int, ...]]:
        """Classes as sorted tuples, ordered by their least element."""
        seen = set()
        classes = []
        for a in range(self.order):
            if a in seen:
                continue
            orbit = {
                self.table[self.table[g][a]][self.inverse[g]]
                for g in range(self.order)
            }
            seen |= orbit
            classes.append(tuple(sorted(orbit)))
        return classes

    @cached_property
    def class_of(self) -> tuple[int, ...]:
        out = [0] * self.order
        for ci, cls in enumerate(self.conjugacy_classes):
            for a in cls:
                out[a] = ci
        return tuple(out)

    def name_of(self, a: int) -> str:
        return self.names[a] if self.names else str(a)

    @staticmethod
    def cyclic(n: int) -> "FiniteGroupTable":
        table = tuple(tuple((i + j) % n for j in range(n)) for i in range(n))
        return FiniteGroupTable(n, table, tuple(f"g{i}" for i in range(n)))

    @staticmethod
    def from_json_dict(data: dict) -> "FiniteGroupTable":
        return FiniteGroupTable(
            int(data["order"]),
            tuple(tuple(row) for row in data["table"]),
            tuple(data.get("names", ())),
        )


def _evaluate_on_table(letters, G: FiniteGroupTable, elems: tuple[int, ...]) -> int:
    acc = 0
    for g, s in letters:
        e = elems[g - 1] if s == 1 else G.inverse[elems[g - 1]]
        acc = G.table[acc][e]
    return acc


# ----------------------------------------------------------------------
# Measure tables and comparison
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class MeasureTable:
    """Class-aggregated exact distribution of a word's image."""

    group: str  # "S<N>" or "cayley:<order>"
    support: tuple[tuple[tuple[int, ...] | int, Fraction], ...]

    @cached_property
    def as_dict(self) -> dict:
        return dict(self.support)

    def probability(self, key) -> Fraction:
        return self.as_dict.get(key, Fraction(0))


def word_measure_exact(
    w: Word, group: "int | FiniteGroupTable", budget: int = DEFAULT_BUDGET
) -> MeasureTable:
    """Exact w-measure; `group` is an S_N degree or a Cayley table."""
    if isinstance(group, FiniteGroupTable):
        return _word_measure_table_group(w, group, budget)
    return _word_measure_sn(w, group, budget)


def _word_measure_sn(w: Word, N: int, budget: int) -> MeasureTable:
    letter_lists, r = _effective_letter_lists([w])
    counts: dict[tuple[int, ...], int] = {}
    denom = 1
    if r == 0:
        counts[tuple([1] * N)] = 1
    else:
        _check_budget(N, r, len(w), budget)
        denom = math.factorial(N) ** r
        # tally images first: there are at most N! of them to classify
        by_image: dict[Perm, int] = {}
        for size, perms, invs in class_collapsed_tuples(N, r):
            img = tuple(
                _trace_point(letter_lists[0], perms, invs, q) for q in range(N)
            )
            by_image[img] = by_image.get(img, 0) + size
        for img, weight in by_image.items():
            key = cycle_type_key(img)
            counts[key] = counts.get(key, 0) + weight
    support = tuple(
        sorted((k, Fraction(v, denom)) for k, v in counts.items())
    )
    return MeasureTable(f"S{N}", support)


def word_measure_elementwise(
    w: Word, G: FiniteGroupTable, budget: int = DEFAULT_BUDGET
) -> dict[int, Fraction]:
    """Element-level w-measure on a Cayley-table group."""
    letter_lists, r = _effective_letter_lists([w])
    n = G.order
    if n**r * max(len(w), 1) > budget:
        raise BudgetExceededError("Cayley enumeration exceeds the budget")
    counts = [0] * n
    if r == 0:
        counts[0] = 1
        denom = 1
    else:
        denom = n**r
        for elems in itertools.product(range(n), repeat=r):
            counts[_evaluate_on_table(letter_lists[0], G, elems)] += 1
    return {a: Fraction(c, denom) for a, c in enumerate(counts) if c}


def _word_measure_table_group(w: Word, G: FiniteGroupTable, budget: int) -> MeasureTable:
    elem = word_measure_elementwise(w, G, budget)
    agg: dict[int, Fraction] = {}
    for a, p in elem.items():
        ci = G.class_of[a]
        agg[ci] = agg.get(ci, Fraction(0)) + p
    return MeasureTable(f"cayley:{G.order}", tuple(sorted(agg.items())))


@dataclass(frozen=True)
class MeasureComparison:
    equal: bool
    witness_class: "tuple[int, ...] | int | None" = None
    prob1: Fraction | None = None
    prob2: Fraction | None = None


def compare_measures(
    w1: Word, w2: Word, group: "int | FiniteGroupTable", budget: int = DEFAULT_BUDGET
) -> MeasureComparison:
    """Exact equality of two word measures, with a witness class if not."""
    m1 = word_measure_exact(w1, group, budget)
    m2 = word_measure_exact(w2, group, budget)
    keys = sorted(set(m1.as_dict) | set(m2.as_dict))
    differing = [
        (key, m1.probability(key), m2.probability(key))
        for key in keys
        if m1.probability(key) != m2.probability(key)
    ]
    if not differing:
        return MeasureComparison(True)
    # prefer a support mismatch: it refutes equality most starkly
    for key, p1, p2 in differing:
        if p1 == 0 or p2 == 0:
            return MeasureComparison(False, key, p1, p2)
    return MeasureComparison(False, *differing[0])


def epi_image(w: Word, G: FiniteGroupTable, budget: int = DEFAULT_BUDGET) -> set[int]:
    """{phi(w) : phi surjective in Hom(F_r, G)}; empty if none exist."""
    letter_lists, _ = _effective_letter_lists([w])
    r = w.ambient_rank
    n = G.order
    if n**r > budget:
        raise BudgetExceededError("epimorphism enumeration exceeds the budget")
    letters = letter_lists[0] if letter_lists else ()
    out: set[int] = set()
    for elems in itertools.product(range(n), repeat=r):
        if not _generates(G, elems):
            continue
        out.add(_evaluate_on_table(letters, G, elems))
    return out


def _generates(G: FiniteGroupTable, elems: tuple[int, ...]) -> bool:
    closure = {0}
    frontier = [0]
    gens = set(elems) | {G.inverse[e] for e in elems}
    while frontier:
        a = frontier.pop()
        for g in gens:
            b = G.table[a][g]
            if b not in closure:
                closure.add(b)
                frontier.append(b)
    return len(closure) == G.order


# ----------------------------------------------------------------------
# Monte Carlo
# ----------------------------------------------------------------------


def trw_monte_carlo(
    w: Word,
    N: int,
    samples: int,
    seed: "int | str",
) -> tuple[float, float]:
    """Unbiased sample estimate of trw_exact with its standard error.

    Deterministic for a fixed seed: every sample is drawn from the one
    stream `Random(f"{seed}/0")`.
    """
    if samples < 2:
        raise ValueError("need at least 2 samples")
    letter_lists, r = _effective_letter_lists([w])
    letters = letter_lists[0] if letter_lists else ()
    rng = random.Random(f"{seed}/0")
    base = list(range(N))
    total = 0
    total_sq = 0
    for _ in range(samples):
        perms = []
        for _ in range(r):
            p = base[:]
            rng.shuffle(p)
            perms.append(tuple(p))
        invs = [invert(p) for p in perms]
        f = _fix_count(letters, perms, invs, N) if letters else N
        total += f
        total_sq += f * f
    mean = total / samples
    var = (total_sq / samples - mean * mean) * samples / (samples - 1)
    stderr = math.sqrt(max(var, 0.0) / samples)
    return mean, stderr
