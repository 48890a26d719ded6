"""Exact and Monte Carlo word measures on symmetric and finite groups.

Exact values are arbitrary-precision rationals (`fractions.Fraction`).
Tr_w(N) and Phi_H(N) are sums over the folded quotients of Gamma(H).
Word measures, their comparison and epimorphism images enumerate
Hom(F_r, G), for G = S_N or a Cayley table alike, through one serial
sweep, `class_collapsed_tuples`, which visits one tuple per orbit of
simultaneous conjugation on the first two coordinates: a class
representative c, then one element per orbit of its centralizer
(each of these is invariant under simultaneous conjugation).  At r = 2
that is sum over classes of |C(c)| tuples, 5,579 on S_7 against
p(7)·7! = 75,600 for a first-coordinate collapse.  A word is evaluated
on permutations by `word_image`.  Monte Carlo draws `random_tuple`s
from one stream seeded `Random(f"{seed}/0")`.

A class-keyed word measure is invariant under Aut(F_r) (h -> h∘phi
permutes Hom(F_r, G)) and under conjugation of the word, so
`word_measure_exact` and `compare_measures` sweep
`words.whitehead_minimal(w)`, a shortest word of the orbit found by
Whitehead star-graph cuts, and cost their budget on it: a primitive
word is swept as one letter.  `trw_exact`/`phi_exact` sum over the core
graph of the word as given, Monte Carlo samples it, and `epi_image` and
`perm_powers.word_power_obstruction` report images and witness tuples
of that word, so they keep it as given.  Cayley tables are checked for
associativity by Light's test on a generating set.
"""
from __future__ import annotations

import functools
import itertools
import math
import operator
import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import wordmaps

from .errors import DEFAULT_BUDGET, BudgetExceededError
from .words import Word, whitehead_minimal

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


def _centralizer(lam: tuple[int, ...]) -> list[Perm]:
    """The centralizer of c = _class_rep(lam): every way to send each
    cycle of c onto a cycle of the same length, at any rotation (the
    rotations of c's cycles and the swaps of equal-length cycles
    generate it)."""
    starts = list(itertools.accumulate(lam, initial=0))
    blocks = []  # per cycle length: each element's (point, image) pairs
    for t in sorted(set(lam)):
        cyc = [s for s, u in zip(starts, lam) if u == t]
        blocks.append([
            [(s + j, o + (j + k) % t) for s, o, k in zip(cyc, order, rot) for j in range(t)]
            for order in itertools.permutations(cyc)
            for rot in itertools.product(range(t), repeat=len(cyc))
        ])
    out = []
    for parts in itertools.product(*blocks):
        h = [0] * starts[-1]
        for part in parts:
            for p, q in part:
                h[p] = q
        out.append(tuple(h))
    return out


def _orbit_reps(pool, orbit_of) -> list[tuple[object, int]]:
    """(least element, orbit size) for each orbit that `orbit_of(x)`
    returns as a set, in pool order."""
    seen: set = set()
    out = []
    for x in pool:
        if x not in seen:
            orbit = orbit_of(x)
            seen |= orbit
            out.append((x, len(orbit)))
    return out


@functools.cache
def _sn_pair_orbits(N: int):
    """(pool, inverses, orbits) for S_N, with orbits as in
    `FiniteGroupTable.pair_orbits`; kept per degree for the life of the
    process (the default budget admits r >= 2 sweeps up to N = 7)."""
    pool = all_perms(N)
    canon = {p: p for p in pool}  # the pool's objects stand for every perm
    inv_pool = [canon[invert(p)] for p in pool]
    inv_of = dict(zip(pool, inv_pool))
    orbits = []
    for lam in _partitions(N):
        c = canon[_class_rep(lam)]
        if lam[0] == 1:
            # C(1) = S_N: the orbits are the classes, each least at the
            # cycle type with its cycles in ascending length
            reps = sorted((canon[_class_rep(mu[::-1])], _class_size(mu, N)) for mu in _partitions(N))
        else:
            cent = [(h, invert(h)) for h in _centralizer(lam)]
            reps = _orbit_reps(pool, lambda x: {tuple([h[x[j]] for j in h_inv]) for h, h_inv in cent})
        orbits.append((c, inv_of[c], _class_size(lam, N), [(x, inv_of[x], n) for x, n in reps]))
    return pool, inv_pool, orbits


def class_collapsed_tuples(group: "int | FiniteGroupTable", r: int):
    """Hom(F_r, G), one tuple per orbit of simultaneous conjugation on
    the first two coordinates.

    `group` is an S_N degree N or a Cayley table; r >= 1.  Yields
    (weight, elements, inverses).  The first coordinate runs over one
    representative c per conjugacy class (S_N: in partition order; a
    table: the least element of each class, in `conjugacy_classes`
    order).  The second runs, in pool order, over the least element x of
    each orbit of the centralizer C(c) acting on G by conjugation; the
    weight is the class size times the orbit size.  The other r - 2
    coordinates run over all of G in `itertools.product` order.
    Weighting a function invariant under simultaneous conjugation sums
    it over all |G|^r tuples.  Every tuple is the least of its orbit in
    product order, so a search for the first tuple with an invariant
    property finds the same tuple as the full sweep.  The orbits do not
    depend on r >= 2 and are built once per degree or table; r = 1
    needs only the classes.
    """
    table = isinstance(group, FiniteGroupTable)
    if r == 1:
        if table:
            classes = [(cls[0], group.inverse[cls[0]], len(cls)) for cls in group.conjugacy_classes]
        else:
            reps = [(_class_rep(lam), _class_size(lam, group)) for lam in _partitions(group)]
            classes = [(c, invert(c), size) for c, size in reps]
        for c, c_inv, size in classes:
            yield size, (c,), (c_inv,)
        return
    pool, inv_pool, orbits = group.pair_orbits if table else _sn_pair_orbits(group)
    for c, c_inv, size, reps in orbits:
        for x, x_inv, orbit in reps:
            head, head_inv, weight = (c, x), (c_inv, x_inv), size * orbit
            # the two products walk in lockstep, so rest_inv inverts rest
            for rest, rest_inv in zip(
                itertools.product(pool, repeat=r - 2),
                itertools.product(inv_pool, repeat=r - 2),
            ):
                yield weight, head + rest, head_inv + rest_inv


def word_image(letters, perms, invs) -> Perm:
    """The image of a letter sequence under x_i -> perms[i-1], given
    invs[i-1] = perms[i-1]^-1 (right action: the first letter acts first)."""
    img = range(len(perms[0])) if perms else ()
    for g, s in letters:
        p = perms[g - 1] if s == 1 else invs[g - 1]
        img = [p[q] for q in img]
    return tuple(img)


def fixed_points(p: Perm) -> int:
    return sum(1 for q, x in enumerate(p) if q == x)


def evaluate_word(w: Word, perms: list[Perm]) -> Perm:
    """The image of w under x_i -> perms[i-1] (right action composition)."""
    return word_image(w.letters, perms, [invert(p) for p in perms])


def _within_budget(budget: int, factors) -> bool:
    """Whether the product of `factors` (each >= 1) is at most budget.  The
    partial products stop at the first that passes it, so N! entering as
    2..N costs no more for a huge N than for a small one."""
    return all(work <= budget for work in itertools.accumulate(factors, operator.mul))


def _refuse(charge: str, budget: int, figures: dict):
    """Raise the budget error that names what was charged, and its figures."""
    shown = ", ".join(f"{name}={value}" for name, value in figures.items())
    raise BudgetExceededError(f"{charge} exceeds the budget {budget} ({shown})")


def within_hom_budget(group: "int | FiniteGroupTable", r: int, length: int, budget: int) -> bool:
    """Whether a sweep of Hom(F_r, G) evaluating a word of this length,
    |G|^r x max(length, 1), is within budget; `group` is an S_N degree
    N, with |G| = N!, or a Cayley table."""
    per_copy = (group.order,) if isinstance(group, FiniteGroupTable) else range(2, group + 1)
    return _within_budget(budget, itertools.chain([max(length, 1)], *[per_copy] * r))


def _check_hom_budget(what: str, group, r: int, length: int, budget: int):
    """Refuse the sweep `what` unless `within_hom_budget`."""
    if not within_hom_budget(group, r, length, budget):
        order = group.order if isinstance(group, FiniteGroupTable) else f"{group}!"
        _refuse(f"{what} |G|^r x max(length, 1)", budget,
                {"|G|": order, "r": r, "max(length, 1)": max(length, 1)})


# ----------------------------------------------------------------------
# Exact functionals on S_N
# ----------------------------------------------------------------------


def _effective_letters(w: Word) -> tuple[tuple, int]:
    """Renumber the generators w uses to 1..m (exact: unused
    coordinates integrate out of the uniform average)."""
    used = sorted({g for g, _ in w.letters})
    remap = {g: i + 1 for i, g in enumerate(used)}
    return tuple((remap[g], s) for g, s in w.letters), len(used)


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
    # the core-graph layer is reached through the package, which loads it
    # on first use: the permutation code needs only this module's Hom sweep
    stallings = wordmaps.stallings
    del ambient_rank  # unused coordinates average out exactly
    H = stallings.from_generators(H_gens, max((g.ambient_rank for g in H_gens), default=1))
    c = {j: min(k, N) for j, k in Counter(lab for _, lab, _ in H.edges).items()}
    numer = 0  # (N)_c / (N)_e = (N - e)_(c - e), as e_j(J) <= c_j
    for v, edges in stallings.quotient_graphs(H, N, budget):
        e = Counter(lab for _, lab, _ in edges)
        numer += math.perm(N, v) * math.prod(math.perm(N - e[j], c[j] - e[j]) for j in c)
    return Fraction(numer, math.prod(math.perm(N, k) for k in c.values()))


def trw_exact(w: Word, N: int, budget: int = DEFAULT_BUDGET) -> Fraction:
    """Expected number of fixed points of a w-random permutation in S_N."""
    return phi_exact([w], w.ambient_rank, N, budget=budget)


# ----------------------------------------------------------------------
# Finite groups given by a Cayley table
# ----------------------------------------------------------------------


def _closure(table, elems) -> set[int]:
    """The elements reached from 0 by right multiplication with elems."""
    reached, frontier = {0}, [0]
    for a in frontier:
        for g in elems:
            b = table[a][g]
            if b not in reached:
                reached.add(b)
                frontier.append(b)
    return reached


@dataclass(frozen=True)
class FiniteGroupTable:
    """A finite group presented by its full multiplication table.

    Element 0 must be the identity.  The order cap, then the order and
    the name count, then all group axioms are checked at construction;
    the first violation is reported.  Associativity is checked by Light's
    test, over a generating set S of the table: n^2 |S| products, with
    |S| <= log2(n) for a group, instead of n^3.
    """

    order: int
    table: tuple[tuple[int, ...], ...]
    names: tuple[str, ...] = field(default=())

    def __post_init__(self):
        n = self.order
        if n > CAYLEY_ORDER_CAP:
            raise BudgetExceededError(f"group order {n} exceeds cap {CAYLEY_ORDER_CAP}")
        if n < 1:
            raise ValueError(f"group order {n} is below 1")
        if self.names and len(self.names) != n:
            raise ValueError(f"{len(self.names)} names for a group of order {n}")
        if len(self.table) != n or any(len(row) != n for row in self.table):
            raise ValueError("table is not n x n")
        for i, row in enumerate(self.table):
            for j, v in enumerate(row):
                if not (0 <= v < n):
                    raise ValueError(f"closure fails at ({i},{j}): entry {v}")
        for i in range(n):
            if self.table[0][i] != i or self.table[i][0] != i:
                raise ValueError(f"element 0 is not a two-sided identity (at {i})")
        T = self.table
        # Light's test: the b with (ab)c = a(bc) for all a, c are closed
        # under products, so it is enough to check b over a set S that
        # generates the table; S collects each element not yet reached
        # from 0 by right multiplication with S
        gens, reached = [], {0}
        for g in range(n):
            if g not in reached:
                gens.append(g)
                reached = _closure(T, gens)
        for a in range(n):
            Ta = T[a]
            for b in gens:
                Tab, Tb = T[Ta[b]], T[b]
                for c in range(n):
                    if Tab[c] != Ta[Tb[c]]:
                        raise ValueError(f"associativity fails at ({a},{b},{c})")
        for a in range(n):
            if 0 not in T[a]:
                raise ValueError(f"element {a} has no inverse")

    @cached_property
    def inverse(self) -> tuple[int, ...]:
        return tuple(row.index(0) for row in self.table)

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
    def pair_orbits(self):
        """(pool, inverses, orbits) for `class_collapsed_tuples` at r >= 2.
        Per class, in `conjugacy_classes` order: its least element c, c^-1,
        the class size and, in element order, (x, x^-1, orbit size) for
        the least x of each orbit of C(c) acting on the group by
        conjugation."""
        T, inv, pool = self.table, self.inverse, range(self.order)
        orbits = []
        for cls in self.conjugacy_classes:
            c = cls[0]
            cent = [g for g in pool if T[g][c] == T[c][g]]
            reps = _orbit_reps(pool, lambda x: {T[T[g][x]][inv[g]] for g in cent})
            orbits.append((c, inv[c], len(cls), [(x, inv[x], n) for x, n in reps]))
        return list(pool), list(inv), orbits

    @cached_property
    def class_of(self) -> tuple[int, ...]:
        out = [0] * self.order
        for ci, cls in enumerate(self.conjugacy_classes):
            for a in cls:
                out[a] = ci
        return tuple(out)

    def name_of(self, a: int) -> str:
        return self.names[a] if self.names else str(a)

    def word_image(self, letters, elems: tuple[int, ...], invs: tuple[int, ...]) -> int:
        """The image of a letter sequence under x_i -> elems[i-1], given
        invs[i-1] = elems[i-1]^-1."""
        acc = 0
        for g, s in letters:
            acc = self.table[acc][elems[g - 1] if s == 1 else invs[g - 1]]
        return acc

    @staticmethod
    def cyclic(n: int) -> "FiniteGroupTable":
        table = tuple(tuple((i + j) % n for j in range(n)) for i in range(n))
        return FiniteGroupTable(n, table, tuple(f"g{i}" for i in range(n)))

    @staticmethod
    def from_json_dict(data: dict) -> "FiniteGroupTable":
        try:
            return FiniteGroupTable(
                int(data["order"]),
                tuple(tuple(row) for row in data["table"]),
                tuple(data.get("names", ())),
            )
        except KeyError as e:
            raise ValueError(f"Cayley table JSON lacks the {e} key") from None
        except TypeError as e:
            raise ValueError(f"malformed Cayley table JSON: {e}") from None


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
    """Exact w-measure on an S_N degree (classes keyed by cycle type) or a
    Cayley table (keyed by class index).

    The measure is invariant under Aut(F_r) and conjugation, so the
    sweep runs on `whitehead_minimal(w)`, a shortest word of the orbit of
    w (a primitive word becomes one letter), and the budget is costed on
    it.  Its images are tallied over the class-collapsed sweep, each
    weighted by its class size, and then classified.  The generators it
    uses are x_1..x_r, the others integrate out; the identity word needs
    no sweep, but is charged one unit of work on S_N as on a table.
    """
    letters = whitehead_minimal(w).letters
    r = max((g for g, _ in letters), default=0)
    _check_hom_budget("Hom sweep", group, r, len(letters), budget)
    if isinstance(group, FiniteGroupTable):
        label, identity = f"cayley:{group.order}", 0
        image, classify = group.word_image, group.class_of.__getitem__
    else:
        label, identity = f"S{group}", tuple(range(group))
        image, classify = word_image, cycle_type_key
    by_image = Counter() if r else Counter([identity])  # the identity word: no sweep
    for size, elems, invs in class_collapsed_tuples(group, r) if r else ():
        by_image[image(letters, elems, invs)] += size
    # there are at most |G| images to classify
    counts: Counter = Counter()
    for img, weight in by_image.items():
        counts[classify(img)] += weight
    total = sum(counts.values())
    return MeasureTable(label, tuple(sorted((k, Fraction(v, total)) for k, v in counts.items())))


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
    """{phi(w) : phi surjective in Hom(F_r, G)}; empty if none exist.

    Walks the class-collapsed sweep over all r = `w.ambient_rank`
    coordinates.  A conjugate of a surjection is a surjection, so each
    generating tuple contributes the whole conjugacy class of its image.
    The sweep is costed as |G|^r x max(length, 1), as on a Cayley table.
    """
    _check_hom_budget("epimorphism enumeration", G, w.ambient_rank, len(w), budget)
    out: set[int] = set()
    for _, elems, invs in class_collapsed_tuples(G, w.ambient_rank):
        img = G.word_image(w.letters, elems, invs)
        # in a finite group the monoid the elements generate is a subgroup
        if img not in out and len(_closure(G.table, elems)) == G.order:
            out.update(G.conjugacy_classes[G.class_of[img]])
    return out


# ----------------------------------------------------------------------
# Monte Carlo
# ----------------------------------------------------------------------


def random_tuple(rng: random.Random, N: int, r: int) -> tuple[tuple[Perm, ...], tuple[Perm, ...]]:
    """r independent uniform permutations of degree N and their inverses,
    one `rng.shuffle` of range(N) each."""
    perms = []
    for _ in range(r):
        p = list(range(N))
        rng.shuffle(p)
        perms.append(tuple(p))
    return tuple(perms), tuple(invert(p) for p in perms)


def trw_monte_carlo(
    w: Word,
    N: int,
    samples: int,
    seed: "int | str",
    budget: int = DEFAULT_BUDGET,
) -> tuple[float, float]:
    """Unbiased sample estimate of trw_exact with its standard error.

    Deterministic for a fixed seed: every sample is drawn from the one
    stream `Random(f"{seed}/0")`.  The work, samples x max(length, 1)
    letter evaluations on N points each, is checked against `budget`
    before the first sample.
    """
    if samples < 2:
        raise ValueError("need at least 2 samples")
    length = max(len(w), 1)
    if not _within_budget(budget, (samples, length, N)):
        _refuse("samples x max(length, 1) x N", budget,
                {"samples": samples, "max(length, 1)": length, "N": N})
    letters, r = _effective_letters(w)
    rng = random.Random(f"{seed}/0")
    total = total_sq = 0
    for _ in range(samples):
        perms, invs = random_tuple(rng, N, r)
        f = fixed_points(word_image(letters, perms, invs)) if r else N
        total += f
        total_sq += f * f
    mean = total / samples
    var = (total_sq / samples - mean * mean) * samples / (samples - 1)
    stderr = math.sqrt(max(var, 0.0) / samples)
    return mean, stderr
