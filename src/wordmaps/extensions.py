"""Free-factor detection, algebraic extensions and primitivity ranks.

A subgroup M of a free group J is a free factor when some basis of M
extends to a basis of J.  The decision is a chain of exact reductions
on the morphism f: Gamma(M) -> Gamma(J), ending, for the pairs none of
them settles, in a Whitehead descent.  The image subgraph I = f(Gamma(M))
is a subgraph of Gamma(J) and so a free factor of J; hence M is a free
factor of J exactly when it is one of I, and a proper free factor has
strictly smaller rank.  The descent re-expresses M in a basis of I and
applies Whitehead automorphisms of F_rank(I) that strictly shrink its
core graph until none does.  It is complete by peak reduction (Gersten
1984): a core graph that is not the smallest of its Aut-orbit has a
strictly shrinking Whitehead move, and the rose (a wedge of distinctly
labeled loops at the base) is the unique smallest core graph of rank
rank M; so M is a free factor exactly when the descent reaches a rose.

The poset of H is the set of quotients of Gamma(H); it keeps one mark per
strict inclusion, which is its order too.  The free-factor closure of H
in J is the quotient inside J of least rank that is a free factor of J.
Neither the closure nor pi nor pi_iota needs the whole poset: one search
decides their candidate quotients rank by rank, in ascending order, and
stops at the first rank that holds what each looks for.
"""
from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass

from . import stallings
from .errors import BudgetExceededError, HypothesisError, InternalInvariantError
from .stallings import CoreGraph
from .words import WhiteheadMove, Word, enumerate_whitehead_moves, substitute

DEFAULT_RANK_CAP = 4

INFINITE_RANK = math.inf


def is_free_factor(M: CoreGraph, J: CoreGraph) -> bool:
    """Decide whether M is a free factor of J (requires M <= J).

    With f: Gamma(M) -> Gamma(J) the morphism, each step is exact:
    1. M == J or rank M = 0: True.
    2. rank M >= rank J: False, since J = M * K with K != 1 has the
       larger rank rank M + rank K.
    3. f injective on vertices: True.  Gamma(M) is then a subgraph of
       Gamma(J), and a spanning tree of it extends to one of Gamma(J),
       so a basis of M is part of a basis of J.
    4. Otherwise M <=_ff J iff M <=_ff I for the image subgraph I (a
       free factor of J by step 3; a free factor of J inside I is one
       of I by Kurosh), and rank M >= rank I gives False as in step 2.
    5. Otherwise the Whitehead descent on M rewritten in a basis of I,
       whose rank, at most rank J, must not pass DEFAULT_RANK_CAP.
    """
    f = stallings.morphism(M, J)
    if f is None:
        raise ValueError("M is not a subgroup of J")
    return _decide([(M, J, f)])[0]


def _reduce(M: CoreGraph, J: CoreGraph, f: list[int]) -> bool | CoreGraph:
    """Steps 1-4 of `is_free_factor`: the answer, or M rewritten in a
    basis of its image subgraph, the graph that the descent must take."""
    if M == J or M.rank == 0:
        return True
    if M.rank >= J.rank:
        return False
    if len(set(f)) == len(f):
        return True
    image = stallings.image(M, f)
    if M.rank >= image.rank:
        return False
    gens = [stallings.rewrite_in_basis(image, b) for b in stallings.basis(M)]
    inner = stallings.from_generators(gens, image.rank)
    if inner.rank != M.rank:
        raise InternalInvariantError("rank changed while rewriting in a basis")
    return inner


def _check_rank_cap(reduced: list[bool | CoreGraph]) -> None:
    """Refuse reduced pairs whose descent would pass the rank cap, before
    any of their descents runs."""
    k = max((g.ambient_rank for g in reduced if not isinstance(g, bool)), default=0)
    if k > DEFAULT_RANK_CAP:
        raise BudgetExceededError(
            f"free-factor search at image rank {k} exceeds the cap {DEFAULT_RANK_CAP}"
        )


def _settle(g: bool | CoreGraph) -> bool:
    """The answer to a reduced pair, by its descent when it needs one."""
    return g if isinstance(g, bool) else _is_free_factor_of_ambient(g, g.ambient_rank)


def _decide(pairs: list[tuple[CoreGraph, CoreGraph, list[int]]]) -> list[bool]:
    """M <=_ff J for each (M, J, morphism) pair.  Every pair is reduced
    first, so a descent over the rank cap stops the call before any
    descent runs."""
    reduced = [_reduce(M, J, f) for M, J, f in pairs]
    _check_rank_cap(reduced)
    return [_settle(g) for g in reduced]


@functools.cache
def _shrinking_moves(k: int) -> list[WhiteheadMove]:
    """The moves of `enumerate_whitehead_moves(k)` that can shrink a core
    graph, in its order: a signed permutation only relabels edges, and a
    multiplier move whose codes are all 0 is the identity."""
    return [m for m in enumerate_whitehead_moves(k) if m.kind == "mult" and any(m.codes)]


def _is_free_factor_of_ambient(M: CoreGraph, k: int) -> bool:
    """Is M a free factor of F_k?  Greedy strict Whitehead descent: take
    the first move whose folded image has fewer edges, until the graph is
    a rose (True) or no move shrinks it (False).  Each step removes an
    edge, so it folds at most (|E(M)| - rank M + 1) * |moves| graphs."""
    moves = _shrinking_moves(k)
    g = M
    while not g.is_rose:
        size, g_basis = len(g.edges), stallings.basis(g)
        folds = (stallings.from_generators([m.apply(b) for b in g_basis], k) for m in moves)
        g = next((h for h in folds if len(h.edges) < size), None)
        if g is None:
            return False
    return True


@dataclass
class ExtensionPoset:
    """The quotient set of a core graph with its free-factor marks: the
    keys of `ff_marks` are the strict inclusions (i, j), nodes[i] < nodes[j],
    and each value says whether nodes[i] is a free factor of nodes[j]."""

    base: CoreGraph
    nodes: list[CoreGraph]
    base_index: int
    ff_marks: dict[tuple[int, int], bool]
    alg_marks: list[bool]

    def algebraic_indices(self) -> list[int]:
        return [i for i, m in enumerate(self.alg_marks) if m]

    def algebraic_nodes(self) -> list[CoreGraph]:
        return [self.nodes[i] for i in self.algebraic_indices()]

    def proper_algebraic_nodes(self) -> list[CoreGraph]:
        return [
            self.nodes[i] for i in self.algebraic_indices() if i != self.base_index
        ]

    def to_json(self) -> str:
        nodes = []
        for i, g in enumerate(self.nodes):
            nodes.append(
                {
                    "key": g.canonical_key.decode(),
                    "rank": g.rank,
                    "basis": [str(b) for b in stallings.basis(g)],
                    "algebraic": self.alg_marks[i],
                    "is_base": i == self.base_index,
                }
            )
        edges = [
            {"from": i, "to": j, "free_factor": ff}
            for (i, j), ff in sorted(self.ff_marks.items())
        ]
        return json.dumps({"nodes": nodes, "edges": edges}, indent=2, sort_keys=True)

    def to_dot(self) -> str:
        """Hasse diagram of inclusion restricted to algebraic nodes."""
        alg = self.algebraic_indices()
        lines = ["digraph alg_extensions {"]
        for i in alg:
            label = ",".join(str(b) for b in stallings.basis(self.nodes[i])) or "1"
            shape = "doublecircle" if i == self.base_index else "ellipse"
            lines.append(f'  n{i} [shape={shape}, label="<{label}>"];')
        below = self.ff_marks.keys()
        for i in alg:
            for j in alg:
                # a covering relation: no algebraic node strictly between
                if (i, j) in below and not any((i, m) in below and (m, j) in below for m in alg):
                    lines.append(f"  n{i} -> n{j};")
        lines.append("}")
        return "\n".join(lines) + "\n"


def algebraic_extensions(H: CoreGraph) -> ExtensionPoset:
    """Enumerate the algebraic extensions of H among its folded quotients.

    A quotient J is algebraic iff no other quotient A with A <= J is a
    proper free factor of J; filtering inside the quotient set is sound
    because the free-factor closure of H inside any such A is itself a
    quotient of Gamma(H).
    """
    nodes = stallings.quotients(H)
    base_index = next(
        i for i, g in enumerate(nodes) if g.canonical_key == H.canonical_key
    )
    maps = {
        (i, j): f
        for i, A in enumerate(nodes)
        for j, J in enumerate(nodes)
        if i != j and (f := stallings.morphism(A, J)) is not None
    }
    marks = _decide([(nodes[i], nodes[j], f) for (i, j), f in maps.items()])
    ff_marks = dict(zip(maps, marks))
    has_proper_ff = {j for (_, j), ff in ff_marks.items() if ff}
    alg_marks = [j not in has_proper_ff for j in range(len(nodes))]
    return ExtensionPoset(H, nodes, base_index, ff_marks, alg_marks)


def _least_rank(candidates, pairs_of, wins) -> tuple[float, list[CoreGraph]]:
    """The least rank of the candidates that holds a winner, with its
    winners in candidate order, or (inf, []).  A rank's pairs_of pairs are
    all reduced, and the cap checked, before its descents; wins reads each
    candidate's answers lazily, so its descents stop where wins stops."""
    for m in sorted({J.rank for J in candidates}):
        layer = [J for J in candidates if J.rank == m]
        reduced = [[_reduce(*pair) for pair in pairs_of(J)] for J in layer]
        _check_rank_cap([g for gs in reduced for g in gs])
        winners = [J for J, gs in zip(layer, reduced) if wins(map(_settle, gs))]
        if winners:
            return m, winners
    return INFINITE_RANK, []


def _least_algebraic_rank(nodes, candidates) -> tuple[float, list[CoreGraph]]:
    """`_least_rank` of the algebraic candidates among the quotients
    `nodes`: a proper free factor has strictly smaller rank, so J is
    algebraic when no quotient of lower rank below it is a free factor."""
    def pairs_of(J):
        below = (A for A in nodes if A.rank < J.rank)
        return [(A, J, f) for A in below if (f := stallings.morphism(A, J)) is not None]
    return _least_rank(candidates, pairs_of, lambda answers: not any(answers))


def pi_details(H: CoreGraph) -> tuple[float, int, list[CoreGraph]]:
    """(pi, C, minimal-rank extensions) for the primitivity rank of H.

    The trivial subgroup gives (0, 1, [H]): following Puder-Parzanchevski,
    pi(1) = 0 because 1 is not primitive in J = {1}, the one subgroup of
    rank 0 that contains it.  Otherwise pi is infinite, with C = 0 and no
    extensions, exactly when H has no proper algebraic extension.  The
    proper quotients are decided rank by rank up to the least rank that
    holds one, whose extensions come in node order.
    """
    if H.rank == 0:
        return 0, 1, [H]
    nodes = stallings.quotients(H)
    m, winners = _least_algebraic_rank(nodes, [J for J in nodes if J != H])
    return m, len(winners), winners


def pi(H: CoreGraph) -> float:
    """Smallest rank of a proper algebraic extension of H (inf if none)."""
    return pi_details(H)[0]


def pi_of_word(w: Word) -> float:
    return pi(stallings.from_generators([w], w.ambient_rank))


def is_algebraic_in_ambient(H: CoreGraph, k: int) -> bool:
    """Is F_k an algebraic extension of H, i.e. is H in no proper free factor?"""
    top = stallings.rose(k)
    return ff_closure(H, top) == top


def pi_iota(H_gens: list[Word], k: int, images: list[Word]) -> tuple[float, int]:
    """Relative primitivity rank of H <=_alg F_k under x_i -> images[i].

    Returns (value, C): the smallest rank of an algebraic extension of
    the image subgroup not contained in the image of F_k, and the number
    of extensions attaining it; (inf, 0) when no extension escapes.  The
    test for an algebraic quotient J of Gamma(iota(H)) holds whether J
    escapes U, the image of F_k, or not; so the quotients inside U are
    dropped before any pair is reduced, and the rest decided as in `pi`.

    Its hypotheses, each a named HypothesisError checked in this order:
    the images are free (U has rank k), and H lies in no proper free
    factor of F_k.  `mobius.check_substitution_inequality` leaves both
    to this function.
    """
    if len(images) != k:
        raise ValueError(f"expected {k} images, got {len(images)}")
    r = max(im.ambient_rank for im in images)
    H = stallings.from_generators([g.with_rank(k) for g in H_gens], k)
    U = stallings.from_generators([im.with_rank(r) for im in images], r)
    if U.rank != k:
        raise HypothesisError("images are free", f"rank of image subgroup is {U.rank}")
    if not is_algebraic_in_ambient(H, k):
        raise HypothesisError(
            "H lies in no proper free factor of its ambient free group",
            f"H lies in a proper free factor of F_{k}",
        )
    iota_h = stallings.from_generators(
        [substitute(b.with_rank(k), images) for b in stallings.basis(H)], r
    )
    nodes = stallings.quotients(iota_h)
    escaping = [J for J in nodes if not stallings.subgroup_leq(J, U)]
    m, winners = _least_algebraic_rank(nodes, escaping)
    return m, len(winners)


def ff_closure(H: CoreGraph, J: CoreGraph) -> CoreGraph:
    """The unique A with H algebraic in A and A a free factor of J.

    A is a quotient of Gamma(H), and it lies in every free factor B of J
    that contains H, as a free factor of B; so A is the one quotient
    inside J of least rank that is a free factor of J.  The quotients are
    decided rank by rank, each by its one pair (A, J), and the search
    stops at the first rank that holds a free factor.
    """
    if not stallings.subgroup_leq(H, J):
        raise ValueError("H is not a subgroup of J")
    maps = {A: f for A in stallings.quotients(H) if (f := stallings.morphism(A, J)) is not None}
    rank, found = _least_rank(list(maps), lambda A: [(A, J, maps[A])], any)
    if len(found) > 1:
        raise InternalInvariantError(f"{len(found)} free factors of least rank {rank}")
    if not found:
        raise InternalInvariantError("no quotient of H is a free factor of J")
    return found[0]
