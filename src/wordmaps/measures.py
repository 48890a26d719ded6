"""Exact and Monte Carlo word measures on symmetric and finite groups.

Exact values are arbitrary-precision rationals (`fractions.Fraction`).
Tr_w(N) and Phi_H(N) are sums over the folded quotients of Gamma(H).
A group is a `SymmetricGroup` (the public functions also take its
degree, which `as_group` turns into it) or a `FiniteGroupTable`; both
provide the sweep's `classes` and `pair_orbits`, `identity`,
`word_image`, the `class_key` of an image, the `label` of a
`MeasureTable`, the budget's `order_factors` and `order_text`, and
the CLI's `class_label`.
Word measures (but for the S_N products and commutators below), their
comparison and epimorphism images enumerate Hom(F_r, G), for G = S_N or
a Cayley table alike, through one serial sweep, `class_collapsed_tuples`,
which visits one tuple per orbit of simultaneous conjugation on the
first two coordinates: a class representative c, then one element per
orbit of its centralizer (each of these is invariant under simultaneous
conjugation).  One builder, `_pair_orbits`, makes these orbits for both
kinds; the identity's are the conjugacy classes, found by `class_key`.
At r = 2 that is sum over classes of |C(c)| tuples, 5,579 on S_7
against p(7)·7! = 75,600 for a first-coordinate collapse.  A word is evaluated
on permutations by `word_image`, from its first letter's permutation by
one C-level gather (`compose`) per further letter.  Monte Carlo draws
from one stream seeded `Random(f"{seed}/0")`, with the draws and values
of `Random.shuffle`, and draws and evaluates its samples in blocks of up
to 256 points (`shuffled_blocks`), one gather per letter per block.

A class-keyed word measure is invariant under Aut(F_r) (h -> h∘phi
permutes Hom(F_r, G)) and under conjugation of the word, so
`word_measure_exact` and `compare_measures` work on
`words.whitehead_minimal(w)`, a shortest word of the orbit found by
Whitehead star-graph cuts, and cost their budget on it: a primitive
word is swept as one letter.  On S_N, a word whose cyclic word splits
into blocks in disjoint letters, or that is one commutator [x, y], is
measured from the character table of S_N (Murnaghan-Nakayama on
beta-sets, cached per degree): independent blocks multiply their
Fourier coefficients, [x, y] has 1/chi(1)^2 (Frobenius), and every
other block is swept on its own.  `trw_exact`/`phi_exact` sum over the
core graph of the word as given, Monte Carlo samples it, and
`epi_image` and `perm_powers.word_power_obstruction` report images and
witness tuples of that word, so they keep it as given.  Cayley tables
are checked for associativity by Light's test on a generating set.
"""
from __future__ import annotations

import itertools
import math
import operator
import random
from collections import Counter
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

import wordmaps

from .errors import DEFAULT_BUDGET, BudgetExceededError
from .words import Frozen, Word, disjoint_blocks, whitehead_minimal

CAYLEY_ORDER_CAP = 64
# Points per Monte Carlo block: CPython shares the ints 0..255, so a block
# of at most 256 points allocates only its lists of references.
MC_BLOCK_POINTS = 256

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


def _orbit_reps(pool, orbit_of) -> list[tuple[object, set]]:
    """(least element, orbit) for each orbit that `orbit_of(x)` returns
    as a set, in pool order."""
    seen: set = set()
    out = []
    for x in pool:
        if x not in seen:
            orbit = orbit_of(x)
            seen |= orbit
            out.append((x, orbit))
    return out


def _pair_orbits(group, pool, inv_pool, product):
    """(pool, inverses, orbits) for `class_collapsed_tuples` at r >= 2,
    from the group's elements in sweep order, their inverses and its
    product.  Per class of `group.classes`: its c, c^-1, the class size
    and, in pool order, (x, x^-1, orbit size) for the least x of each
    orbit of the centralizer C(c) acting on the group by conjugation.
    C(c) is the pool filtered by h c = c h; the identity's is the whole
    group, whose orbits are the conjugacy classes, each least at the
    first of its elements in the pool (two `class_key` passes, which keep
    no list of keys)."""
    inv_of = dict(zip(pool, inv_pool))
    orbits = []
    for c, c_inv, size in group.classes:
        if c == group.identity:  # a Counter lists its keys in pool order
            # built backwards, so that each class keeps its first element
            first = dict(zip(map(group.class_key, reversed(pool)), reversed(pool)))
            reps = [(first[k], n) for k, n in Counter(map(group.class_key, pool)).items()]
        else:
            cent = [(h, inv_of[h]) for h in pool if product(h, c) == product(c, h)]
            reps = _orbit_reps(pool, lambda x: {product(product(h_inv, x), h) for h, h_inv in cent})
            reps = [(x, len(orbit)) for x, orbit in reps]
        orbits.append((c, c_inv, size, [(x, inv_of[x], n) for x, n in reps]))
    return pool, inv_pool, orbits


def class_collapsed_tuples(group: "int | SymmetricGroup | FiniteGroupTable", r: int):
    """Hom(F_r, G), one tuple per orbit of simultaneous conjugation on
    the first two coordinates.

    `group` is a group or an S_N degree N; r >= 1.  Yields
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
    depend on r >= 2 and are built once per group; r = 1 needs only the
    classes.
    """
    group = as_group(group)
    if r == 1:
        for c, c_inv, size in group.classes:
            yield size, (c,), (c_inv,)
        return
    pool, inv_pool, orbits = group.pair_orbits
    for c, c_inv, size, reps in orbits:
        for x, x_inv, orbit in reps:
            head, head_inv, weight = (c, x), (c_inv, x_inv), size * orbit
            if r == 2:
                yield weight, head, head_inv
                continue
            # the two products walk in lockstep, so rest_inv inverts rest
            for rest, rest_inv in zip(
                itertools.product(pool, repeat=r - 2),
                itertools.product(inv_pool, repeat=r - 2),
            ):
                yield weight, head + rest, head_inv + rest_inv


def compose(p: Perm, q: Perm) -> Perm:
    """First p, then q (right action), as one gather of q at p's points;
    degree <= 1 holds only the identity (a one-index gather is a scalar)."""
    return operator.itemgetter(*p)(q) if len(p) > 1 else p


def word_image(letters, perms, invs) -> Perm:
    """The image of a letter sequence under x_i -> perms[i-1], given
    invs[i-1] = perms[i-1]^-1 (right action: the first letter acts first)."""
    if not letters:  # the identity word
        return tuple(range(len(perms[0]))) if perms else ()
    g, s = letters[0]
    img = perms[g - 1] if s == 1 else invs[g - 1]
    for g, s in letters[1:]:
        img = compose(img, perms[g - 1] if s == 1 else invs[g - 1])
    return img


def evaluate_word(w: Word, perms: list[Perm]) -> Perm:
    """The image of w under x_i -> perms[i-1] (right action composition)."""
    return word_image(w.letters, perms, [invert(p) for p in perms])


class SymmetricGroup:
    """S_N: its elements are the permutations of range(N), its classes
    the cycle types.  One object per degree (a negative one raises
    ValueError) is kept for the life of the process; making it costs
    O(1), and each of its tables is built on first use."""

    _degrees: dict[int, SymmetricGroup] = {}
    word_image = staticmethod(word_image)
    class_key = staticmethod(cycle_type_key)

    def __new__(cls, N: int):
        if N < 0:
            raise ValueError(f"symmetric group degree must be non-negative, got {N}")
        if N not in cls._degrees:
            group = cls._degrees[N] = super().__new__(cls)
            group.degree, group.label, group.order_text = N, f"S{N}", f"{N}!"
            group.order_factors = range(2, N + 1)  # N! = 2 x 3 x ... x N
        return cls._degrees[N]

    @staticmethod
    def class_label(key: tuple[int, ...]) -> str:
        return " ".join(str(t) for t in key)

    @cached_property
    def identity(self) -> Perm:
        return tuple(range(self.degree))

    @cached_property
    def classes(self) -> list[tuple[Perm, Perm, int]]:
        """(c, c^-1, class size) per cycle type, in partition order, c with
        its cycles on consecutive points: the r = 1 sweep."""
        reps = [(_class_rep(lam), _class_size(lam, self.degree)) for lam in _partitions(self.degree)]
        return [(c, invert(c), size) for c, size in reps]

    @cached_property
    def pair_orbits(self):
        """`_pair_orbits` over the pool in `itertools.permutations` order."""
        pool = all_perms(self.degree)
        canon = {p: p for p in pool}  # the pool's objects stand for every perm
        return _pair_orbits(self, pool, [canon[invert(p)] for p in pool], compose)

    @cached_property
    def characters(self):
        """(classes, index, sizes, columns): the cycle types in
        `_partitions` order, each one's position and class size, and per
        class the integer values on it of the irreducible characters
        chi^lambda, lambda in the same order.

        Murnaghan-Nakayama on beta-sets: chi^lambda at the cycle type
        (t, nu) is the sum over the rim hooks of length t of lambda of
        (-1)^leg chi^(lambda minus the hook)(nu).  With k beads at the
        first-column hook lengths of lambda, a rim hook of length t moves a
        bead b to a free c = b - t, and its leg is the number of beads
        between.  The columns are built along a depth-first walk of the
        cycle types with their parts added in ascending order: each column
        of a degree m < N is computed once, from its parent, and dropped
        once its children are, so the build holds the columns of one path
        and of their pending siblings, and the rim hooks of each degree.
        """
        N = self.degree
        parts = [list(_partitions(m)) for m in range(N + 1)]
        index = [{lam: i for i, lam in enumerate(ps)} for ps in parts]
        # rims[m][t]: (i, j, sign) for each rim hook of length t that takes
        # parts[m][i] to parts[m - t][j]
        rims: list[dict[int, list]] = [{} for _ in range(N + 1)]
        for m in range(1, N + 1):
            for i, lam in enumerate(parts[m]):
                k = len(lam)
                beads = [part + k - 1 - a for a, part in enumerate(lam)]
                for b in beads:
                    for c in set(range(b)).difference(beads):
                        moved = sorted([c if x == b else x for x in beads], reverse=True)
                        mu = tuple(y for a, x in enumerate(moved) if (y := x - (k - 1 - a)))
                        sign = -1 if sum(c < x < b for x in beads) % 2 else 1
                        rims[m].setdefault(b - c, []).append((i, index[m - b + c][mu], sign))
        built = {}
        stack = [((), 0, [1])]  # parts in ascending order, their sum, the column
        while stack:
            seq, m, col = stack.pop()
            if m == N:
                built[seq[::-1]] = col
                continue
            rest = N - m
            least = seq[-1] if seq else 1
            # every later part is at least t, so t = rest or 2t <= rest
            for t in [*range(least, rest // 2 + 1), *([rest] if rest >= least else [])]:
                child = [0] * len(parts[m + t])
                for i, j, sign in rims[m + t].get(t, ()):
                    child[i] += sign * col[j]
                stack.append((seq + (t,), m + t, child))
        classes = parts[N]
        return classes, index[N], [_class_size(nu, N) for nu in classes], [built[nu] for nu in classes]


def as_group(group: "int | SymmetricGroup | FiniteGroupTable") -> "SymmetricGroup | FiniteGroupTable":
    """The group an argument names: a degree N is S_N (a negative one
    raises ValueError), and a group is itself."""
    return SymmetricGroup(group) if isinstance(group, int) else group


def _within_budget(budget: int, factors) -> bool:
    """Whether the product of `factors` (each >= 1) is at most budget.  The
    partial products stop at the first that passes it, so N! entering as
    2..N costs no more for a huge N than for a small one."""
    return all(work <= budget for work in itertools.accumulate(factors, operator.mul))


def _refuse(charge: str, budget: int, figures: dict):
    """Raise the budget error that names what was charged, and its figures."""
    shown = ", ".join(f"{name}={value}" for name, value in figures.items())
    raise BudgetExceededError(f"{charge} exceeds the budget {budget} ({shown})")


def within_hom_budget(
    group: "int | SymmetricGroup | FiniteGroupTable", r: int, length: int, budget: int
) -> bool:
    """Whether a sweep of Hom(F_r, G) evaluating a word of this length,
    |G|^r x max(length, 1), is within budget; `group` is a group or an
    S_N degree N, with |G| = N!."""
    per_copy = as_group(group).order_factors
    return _within_budget(budget, itertools.chain([max(length, 1)], *[per_copy] * r))


def _check_hom_budget(group, letters, budget: int, r: int | None = None, what: str = "Hom sweep"):
    """Refuse the sweep `what` of Hom(F_r, G) evaluating `letters` unless
    `within_hom_budget`; r defaults to the largest generator index of
    the letters."""
    r = max((g for g, _ in letters), default=0) if r is None else r
    if not within_hom_budget(group, r, len(letters), budget):
        _refuse(f"{what} |G|^r x max(length, 1)", budget,
                {"|G|": group.order_text, "r": r, "max(length, 1)": max(len(letters), 1)})


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


class FiniteGroupTable(Frozen):
    """A finite group presented by its full multiplication table.

    Element 0 must be the identity.  The order cap, then the order and
    the name count, then all group axioms are checked at construction;
    the first violation is reported.  Associativity is checked by Light's
    test, over a generating set S of the table: n^2 |S| products, with
    |S| <= log2(n) for a group, instead of n^3.
    """

    _fields = ("order", "table", "names")
    identity = 0
    label = property(lambda self: f"cayley:{self.order}")
    order_factors = property(lambda self: (self.order,))
    order_text = property(lambda self: str(self.order))
    class_key = property(lambda self: self.class_of.__getitem__)

    def __init__(self, order: int, table: tuple[tuple[int, ...], ...], names: tuple[str, ...] = ()):
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "names", names)
        self.__post_init__()  # through the instance: bench/tracer.py wraps it on the class

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
        T, inv, pool = self.table, self.inverse, range(self.order)
        orbits = _orbit_reps(pool, lambda a: {T[T[g][a]][inv[g]] for g in pool})
        return [tuple(sorted(orbit)) for _, orbit in orbits]

    @cached_property
    def classes(self) -> list[tuple[int, int, int]]:
        """(c, c^-1, class size) per class, c its least element, in
        `conjugacy_classes` order: the r = 1 sweep."""
        return [(cls[0], self.inverse[cls[0]], len(cls)) for cls in self.conjugacy_classes]

    @cached_property
    def pair_orbits(self):
        """`_pair_orbits` over the pool in element order."""
        T = self.table
        return _pair_orbits(self, list(range(self.order)), list(self.inverse), lambda a, b: T[a][b])

    @cached_property
    def class_of(self) -> tuple[int, ...]:
        out = [0] * self.order
        for ci, cls in enumerate(self.conjugacy_classes):
            for a in cls:
                out[a] = ci
        return tuple(out)

    def name_of(self, a: int) -> str:
        return self.names[a] if self.names else str(a)

    def class_label(self, key: int) -> str:
        return self.name_of(self.conjugacy_classes[key][0])

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
        """The table of a Cayley JSON object: an integer "order", a
        "table" of integer rows and, optionally, distinct string "names"."""
        try:
            order, names = data["order"], data.get("names", [])
            table = tuple(tuple(row) for row in data["table"])
        except KeyError as e:
            raise ValueError(f"Cayley table JSON lacks the {e} key") from None
        except TypeError as e:
            raise ValueError(f"malformed Cayley table JSON: {e}") from None
        # type(), not isinstance(): JSON true and false are bools, an int subclass
        if {type(order), *map(type, itertools.chain.from_iterable(table))} != {int}:
            raise ValueError("malformed Cayley table JSON: the order and every entry must be integers")
        if type(names) is not list or {type(a) for a in names} - {str} or len(set(names)) < len(names):
            raise ValueError("malformed Cayley table JSON: the names must be distinct strings")
        return FiniteGroupTable(order, table, tuple(names))


# ----------------------------------------------------------------------
# Characters of S_N
# ----------------------------------------------------------------------


def _check_character_budget(N: int, budget: int):
    """Refuse the character table of S_N unless classes x classes x N is
    within budget, `classes` the partitions of every degree m <= N: each
    is one column of the build, and a column costs at most one step per
    rim hook of each partition of m, at most classes x N.  The partition
    counts come from Euler's pentagonal recurrence and stop once the
    charge passes the budget, so a huge N costs nothing to refuse (and a
    refusal prints the count reached)."""
    p, classes = [1], 1  # p(0); the classes of S_0
    for m in range(1, N + 1):
        if classes * classes * N > budget:
            break
        total, k = 0, 1
        while (g := k * (3 * k - 1) // 2) <= m:
            sign = 1 if k % 2 else -1
            total += sign * (p[m - g] + (p[m - g - k] if g + k <= m else 0))
            k += 1
        p.append(total)
        classes += total
    if classes * classes * N > budget:
        _refuse("character table classes x classes x N", budget, {"classes": classes, "N": N})


def _is_commutator(block) -> bool:
    """Whether a letter block is g^e h^f g^-e h^-f with g != h and signs e, f."""
    if len(block) != 4:
        return False
    (g, e), (h, f), third, fourth = block
    return g != h and third == (g, -e) and fourth == (h, -f)


def _character_measure(group: SymmetricGroup, factors) -> MeasureTable:
    """The measure on S_N of a product of independent factors, from the
    character table.  `factors` holds, per factor, None for a commutator
    [x, y] of two of its own letters, or its class counts (a Counter of
    cycle types summing to (N!)^r).

    Each factor has the Fourier coefficient fhat(chi) = sum_C mu(C)
    chi(C) / chi(1) (Frobenius: 1/chi(1)^2 for [x, y]); independent
    factors multiply them, and mu(C) = |C|/N! sum_chi chi(1) fhat(chi)
    chi(C).  All of it runs in integers over one common denominator."""
    classes, index, sizes, columns = group.characters
    dims = columns[-1]  # the last class is the identity's
    weights, power, denominator = [1] * len(dims), -1, math.factorial(group.degree)
    for counts in factors:
        if counts is None:
            power += 2
            continue
        power += 1
        denominator *= sum(counts.values())
        summed = [0] * len(dims)  # sum_C counts(C) chi(C), per chi
        for nu, n in counts.items():
            summed = [s + n * x for s, x in zip(summed, columns[index[nu]])]
        weights = list(map(operator.mul, weights, summed))
    # mu(C) = |C| sum_chi weight(chi) chi(C) / (denominator chi(1)^power)
    common = math.lcm(*dims) ** power
    weights = [w * (common // d**power) for w, d in zip(weights, dims)]
    denominator *= common
    support = []
    for nu, size, column in zip(classes, sizes, columns):
        numer = size * sum(map(operator.mul, weights, column))
        if numer:
            support.append((nu, Fraction(numer, denominator)))
    return MeasureTable(group.label, tuple(sorted(support)))


# ----------------------------------------------------------------------
# Measure tables and comparison
# ----------------------------------------------------------------------


class MeasureTable(Frozen):
    """Class-aggregated exact distribution of a word's image."""

    _fields = ("group", "support")

    def __init__(self, group: str, support: tuple[tuple[tuple[int, ...] | int, Fraction], ...]):
        object.__setattr__(self, "group", group)  # "S<N>" or "cayley:<order>"
        object.__setattr__(self, "support", support)

    @cached_property
    def as_dict(self) -> dict:
        return dict(self.support)

    def probability(self, key) -> Fraction:
        return self.as_dict.get(key, Fraction(0))


def _sweep_counts(letters, group: "SymmetricGroup | FiniteGroupTable") -> Counter:
    """Class key -> the number of the |G|^r tuples of Hom(F_r, G) that
    send the letter sequence into that class, r its largest generator
    index: the images are tallied over the class-collapsed sweep, each
    weighted by its class size, and then classified.  The identity word
    needs no sweep."""
    r = max((g for g, _ in letters), default=0)
    image, classify = group.word_image, group.class_key
    by_image = Counter() if r else Counter([group.identity])
    for size, elems, invs in class_collapsed_tuples(group, r) if r else ():
        by_image[image(letters, elems, invs)] += size
    # there are at most |G| images to classify
    counts: Counter = Counter()
    for img, weight in by_image.items():
        counts[classify(img)] += weight
    return counts


def _measure_plan(w: Word, group: "int | SymmetricGroup | FiniteGroupTable", budget: int):
    """Charge the measure of w on group against the budget, and return
    the work that computes it, a callable with no arguments: so a
    comparison charges both words before either is computed.

    The work runs on `whitehead_minimal(w)`.  On S_N, when its cyclic
    word splits into two or more blocks in disjoint letters
    (`words.disjoint_blocks`), or is one commutator of two letters, the
    measure comes from the character table (`_character_measure`): each
    block that is not a commutator is swept on its own, at its own rank.
    The table and each block's sweep are charged before any work starts.
    Every other word, and every word on a Cayley table, is swept whole.
    """
    group = as_group(group)
    letters = whitehead_minimal(w).letters
    if isinstance(group, SymmetricGroup) and letters:
        blocks = disjoint_blocks(letters)
        if len(blocks) > 1 or _is_commutator(blocks[0]):
            _check_character_budget(group.degree, budget)
            swept = [None if _is_commutator(b) else whitehead_minimal(Word(w.ambient_rank, b))
                     for b in blocks]
            for block in swept:
                if block is not None:
                    _check_hom_budget(group, block.letters, budget)
            return lambda: _character_measure(group, [
                None if block is None else _sweep_counts(block.letters, group) for block in swept])
    _check_hom_budget(group, letters, budget)

    def sweep() -> MeasureTable:
        counts = _sweep_counts(letters, group)
        total = sum(counts.values())
        support = sorted((k, Fraction(v, total)) for k, v in counts.items())
        return MeasureTable(group.label, tuple(support))

    return sweep


def word_measure_exact(
    w: Word, group: "int | SymmetricGroup | FiniteGroupTable", budget: int = DEFAULT_BUDGET
) -> MeasureTable:
    """Exact w-measure on S_N, given as its degree or its group (classes
    keyed by cycle type), or on a Cayley table (keyed by class index).

    The measure is invariant under Aut(F_r) and conjugation, so it is
    computed for `whitehead_minimal(w)`, a shortest word of the orbit of
    w (a primitive word becomes one letter), and the budget is costed on
    it.  On S_N a product of blocks in disjoint letters, or a commutator,
    is measured from the character table of S_N; every other word by the
    class-collapsed Hom sweep (`_measure_plan`).  The generators a sweep
    uses are x_1..x_r, the others integrate out; the identity word needs
    no sweep, but is charged one unit of work on S_N as on a table.
    """
    return _measure_plan(w, group, budget)()


class MeasureComparison(NamedTuple):
    equal: bool
    witness_class: "tuple[int, ...] | int | None" = None
    prob1: Fraction | None = None
    prob2: Fraction | None = None


def compare_measures(
    w1: Word, w2: Word, group: "int | SymmetricGroup | FiniteGroupTable", budget: int = DEFAULT_BUDGET
) -> MeasureComparison:
    """Exact equality of two word measures, with a witness class if not.
    Both words are charged against the budget before either is measured."""
    plans = [_measure_plan(w, group, budget) for w in (w1, w2)]
    m1, m2 = (plan() for plan in plans)
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
    _check_hom_budget(G, w.letters, budget, w.ambient_rank, "epimorphism enumeration")
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


def shuffled_blocks(rng: random.Random, N: int, r: int, count: int) -> list[list[int]]:
    """`count` samples of r uniform permutations of degree N, as r lists
    of count x N points: sample s of list g is the g-th permutation of
    sample s, shifted onto the points s*N .. s*N + N - 1.

    Sample by sample, then generator by generator, each block is one
    Fisher-Yates shuffle of its points, drawn exactly as
    `rng.shuffle(list(range(N)))` draws it (`Random._randbelow` by
    rejection on `getrandbits`), so the stream and every value are those
    of `Random.shuffle`; only the per-call overhead is gone."""
    getrandbits = rng.getrandbits
    steps = [(i, (i + 1).bit_length()) for i in range(N - 1, 0, -1)]
    out: list[list[int]] = [[] for _ in range(r)]
    for s in range(count):
        for points in out:
            block = list(range(s * N, s * N + N))
            for i, k in steps:
                j = getrandbits(k)
                while j > i:
                    j = getrandbits(k)
                block[i], block[j] = block[j], block[i]
            points += block
    return out


def random_tuple(rng: random.Random, N: int, r: int) -> tuple[tuple[Perm, ...], tuple[Perm, ...]]:
    """r independent uniform permutations of degree N and their inverses:
    one block of `shuffled_blocks`, the stream of one `rng.shuffle` of
    range(N) each."""
    perms = tuple(map(tuple, shuffled_blocks(rng, N, r, 1)))
    return perms, tuple(map(invert, perms))


def trw_monte_carlo(
    w: Word,
    N: int,
    samples: int,
    seed: "int | str",
    budget: int = DEFAULT_BUDGET,
) -> tuple[float, float]:
    """Unbiased sample estimate of trw_exact with its standard error.

    Deterministic for a fixed seed: every sample is drawn from the one
    stream `Random(f"{seed}/0")`, with the draws and values of one
    `Random.shuffle` per permutation.  Samples are drawn and evaluated in
    blocks of up to `MC_BLOCK_POINTS` points (`shuffled_blocks`): the
    word costs one gather per letter for the whole block, and an inverse
    only for a generator it uses inverted.  The work, samples x
    max(length, 1) letter evaluations on N points each, is checked
    against `budget` before the first sample.
    """
    if samples < 2:
        raise ValueError("need at least 2 samples")
    if N < 0:
        raise ValueError(f"symmetric group degree must be non-negative, got {N}")
    length = max(len(w), 1)
    if not _within_budget(budget, (samples, length, N)):
        _refuse("samples x max(length, 1) x N", budget,
                {"samples": samples, "max(length, 1)": length, "N": N})
    letters, r = _effective_letters(w)
    if not r:  # the identity word fixes all N points of every sample
        total, total_sq = N * samples, N * N * samples
    else:
        inverted = {g for g, s in letters if s == -1}
        rng = random.Random(f"{seed}/0")
        total = total_sq = 0
        per_block = max(1, MC_BLOCK_POINTS // max(N, 1))  # N < 1: empty samples
        for start in range(0, samples, per_block):
            perms = shuffled_blocks(rng, N, r, min(per_block, samples - start))
            invs = [invert(p) if g in inverted else None for g, p in enumerate(perms, 1)]
            img = word_image(letters, perms, invs)
            # the fixed points of each sample, from its N-point group
            fixed = list(map(sum, zip(*[map(operator.eq, img, range(len(img)))] * N)))
            total += sum(fixed)
            total_sq += sum(map(operator.mul, fixed, fixed))
    mean = total / samples
    var = (total_sq / samples - mean * mean) * samples / (samples - 1)
    stderr = math.sqrt(max(var, 0.0) / samples)
    return mean, stderr
