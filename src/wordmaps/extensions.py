"""Free-factor detection, algebraic extensions and primitivity ranks.

A subgroup M of a free group J is a free factor when some basis of M
extends to a basis of J.  The decision procedure re-expresses M in a
basis of J and runs an exhaustive, size-non-increasing search over
Whitehead automorphisms: M is a free factor of F_k exactly when the
search reaches a core graph that is a wedge of distinctly-labeled loops
at the base.  Peak reduction makes the non-increasing search complete.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

from . import stallings
from .errors import BudgetExceededError, HypothesisError, InternalInvariantError
from .stallings import CoreGraph
from .words import Word, enumerate_whitehead_moves, substitute

DEFAULT_RANK_CAP = 4
DEFAULT_STATE_CAP = 200_000

INFINITE_RANK = math.inf


def is_free_factor(M: CoreGraph, J: CoreGraph) -> bool:
    """Decide whether M is a free factor of J (requires M <= J)."""
    if not stallings.subgroup_leq(M, J):
        raise ValueError("M is not a subgroup of J")
    if M == J or M.rank == 0:
        return True
    k = J.rank
    if k > DEFAULT_RANK_CAP:
        raise BudgetExceededError(f"rank(J) = {k} exceeds the cap {DEFAULT_RANK_CAP}")
    gens_in_j = [stallings.rewrite_in_basis(J, b) for b in stallings.basis(M)]
    inner = stallings.from_generators(gens_in_j, k)
    if inner.rank != M.rank:
        raise InternalInvariantError("rank changed while rewriting in a basis")
    return _is_free_factor_of_ambient(inner, k)


def _is_free_factor_of_ambient(M: CoreGraph, k: int) -> bool:
    """Is M a free factor of F_k?  Whitehead search, size non-increasing."""
    if M.is_rose:
        return True
    moves = enumerate_whitehead_moves(k)
    visited = {M.canonical_key}
    frontier = [M]
    while frontier:
        nxt = []
        for g in frontier:
            g_basis = stallings.basis(g)
            for move in moves:
                images = [move.apply(b) for b in g_basis]
                h = stallings.from_generators(images, k)
                if len(h.edges) > len(g.edges) or h.canonical_key in visited:
                    continue
                if h.is_rose:
                    return True
                visited.add(h.canonical_key)
                if len(visited) > DEFAULT_STATE_CAP:
                    raise BudgetExceededError(
                        f"Whitehead search exceeded {DEFAULT_STATE_CAP} states"
                    )
                nxt.append(h)
        frontier = nxt
    return False


@dataclass
class ExtensionPoset:
    """The quotient set of a core graph with inclusion/free-factor marks."""

    base: CoreGraph
    nodes: list[CoreGraph]
    base_index: int
    leq: dict[tuple[int, int], bool]
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
            {"from": i, "to": j, "free_factor": self.ff_marks.get((i, j))}
            for (i, j), v in sorted(self.leq.items())
            if v and i != j
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
        for i in alg:
            for j in alg:
                if i == j or not self.leq[(i, j)]:
                    continue
                if any(
                    m not in (i, j) and self.leq[(i, m)] and self.leq[(m, j)]
                    for m in alg
                ):
                    continue  # not a covering relation
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
    n = len(nodes)
    leq = {
        (i, j): stallings.subgroup_leq(nodes[i], nodes[j])
        for i in range(n)
        for j in range(n)
    }
    ff_marks = {
        (i, j): is_free_factor(nodes[i], nodes[j])
        for i in range(n)
        for j in range(n)
        if i != j and leq[(i, j)]
    }
    alg_marks = [
        not any(i != j and leq[(i, j)] and ff_marks[(i, j)] for i in range(n))
        for j in range(n)
    ]
    return ExtensionPoset(H, nodes, base_index, leq, ff_marks, alg_marks)


def pi_details(H: CoreGraph) -> tuple[float, int, list[CoreGraph]]:
    """(pi, C, minimal-rank extensions) for the primitivity rank of H.

    The trivial subgroup gives (0, 1, [H]): following Puder-Parzanchevski,
    pi(1) = 0 because 1 is not primitive in J = {1}, the one subgroup of
    rank 0 that contains it.  Otherwise pi is infinite, with C = 0 and no
    extensions, exactly when H has no proper algebraic extension.
    """
    if H.rank == 0:
        return 0, 1, [H]
    proper = algebraic_extensions(H).proper_algebraic_nodes()
    if not proper:
        return INFINITE_RANK, 0, []
    m = min(g.rank for g in proper)
    winners = [g for g in proper if g.rank == m]
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


def pi_iota(
    H_gens: list[Word], k: int, images: list[Word]
) -> tuple[float, int]:
    """Relative primitivity rank of H <=_alg F_k under x_i -> images[i].

    Returns (value, C): the smallest rank of an algebraic extension of
    the image subgroup not contained in the image of F_k, and the number
    of extensions attaining it; (inf, 0) when no extension escapes.
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
            "H is algebraic in its ambient free group",
            "H lies in a proper free factor of F_k",
        )
    iota_h = stallings.from_generators(
        [substitute(b.with_rank(k), images) for b in stallings.basis(H)], r
    )
    poset = algebraic_extensions(iota_h)
    escaping = [
        g for g in poset.algebraic_nodes() if not stallings.subgroup_leq(g, U)
    ]
    if not escaping:
        return INFINITE_RANK, 0
    m = min(g.rank for g in escaping)
    return m, sum(1 for g in escaping if g.rank == m)


def ff_closure(H: CoreGraph, J: CoreGraph) -> CoreGraph:
    """The unique A with H algebraic in A and A a free factor of J."""
    if not stallings.subgroup_leq(H, J):
        raise ValueError("H is not a subgroup of J")
    candidates = [
        A
        for A in stallings.quotients(H)
        if stallings.subgroup_leq(A, J) and is_free_factor(A, J)
    ]
    for A in candidates:
        if all(stallings.subgroup_leq(A, B) for B in candidates):
            return A
    raise InternalInvariantError("no minimum among free-factor candidates")
