"""Folded core graphs for finitely generated subgroups of free groups.

A CoreGraph is stored in canonical form: vertices are numbered 0..n-1 in
the order of a breadth-first traversal from the base vertex 0, exploring
outgoing edges by ascending label and then incoming edges by ascending
label.  Two subgroups of the same ambient free group are equal iff their
canonical graphs are identical.  The numbering also fixes the spanning
tree behind `basis` and `rewrite_in_basis`: the breadth-first tree, whose
edge into a vertex w > 0 is its least edge to a vertex v < w.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .errors import BudgetExceededError, InternalInvariantError
from .words import Letter, Word, free_reduce

Edge = tuple[int, int, int]  # (tail, label, head)

DEFAULT_VERTEX_CAP = 12


@dataclass
class PreGraph:
    """A mutable, possibly unfolded labeled digraph with base vertex 0."""

    ambient_rank: int
    num_vertices: int = 1
    edges: list[Edge] = field(default_factory=list)

    def new_vertex(self) -> int:
        self.num_vertices += 1
        return self.num_vertices - 1

    def add_edge(self, tail: int, label: int, head: int):
        if not (1 <= label <= self.ambient_rank):
            raise ValueError(f"label {label} out of range")
        self.edges.append((tail, label, head))

    def add_word_loop(self, w: Word):
        """Attach a loop at the base spelling w (one edge per letter)."""
        cur = 0
        for i, (g, s) in enumerate(w.letters):
            nxt = 0 if i == len(w.letters) - 1 else self.new_vertex()
            if s == 1:
                self.add_edge(cur, g, nxt)
            else:
                self.add_edge(nxt, g, cur)
            cur = nxt


@dataclass(frozen=True)
class CoreGraph:
    """An immutable folded, pruned, canonically numbered core graph."""

    ambient_rank: int
    num_vertices: int
    edges: tuple[Edge, ...]

    @property
    def rank(self) -> int:
        return len(self.edges) - self.num_vertices + 1

    @cached_property
    def canonical_key(self) -> bytes:
        return repr((self.ambient_rank, self.num_vertices, self.edges)).encode()

    @cached_property
    def out_map(self) -> dict[tuple[int, int], int]:
        return {(u, lab): v for u, lab, v in self.edges}

    @cached_property
    def in_map(self) -> dict[tuple[int, int], int]:
        return {(v, lab): u for u, lab, v in self.edges}

    @property
    def is_rose(self) -> bool:
        """A wedge of loops at the base labeled by distinct generators."""
        return self.num_vertices == 1

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CoreGraph) and self.canonical_key == other.canonical_key
        )

    def __hash__(self) -> int:
        return hash(self.canonical_key)


# ----------------------------------------------------------------------
# Folding pipeline
# ----------------------------------------------------------------------


def _fold_edges(edges: list[Edge]) -> set[Edge]:
    """Identify edges until folded.  A merge keeps the smaller vertex, so
    the base 0 stays 0."""
    es = set(edges)
    rename: dict[int, int] = {}

    def root(v: int) -> int:
        while v in rename:
            v = rename[v]
        return v

    while True:
        seen_out: dict[tuple[int, int], int] = {}
        seen_in: dict[tuple[int, int], int] = {}
        merge: tuple[int, int] | None = None
        for u, lab, v in sorted(es):
            if (u, lab) in seen_out and seen_out[(u, lab)] != v:
                merge = (seen_out[(u, lab)], v)
                break
            seen_out[(u, lab)] = v
            if (v, lab) in seen_in and seen_in[(v, lab)] != u:
                merge = (seen_in[(v, lab)], u)
                break
            seen_in[(v, lab)] = u
        if merge is None:
            return es
        a, b = sorted(merge)
        rename[b] = a
        es = {(root(u), lab, root(v)) for u, lab, v in es}


def _prune(es: set[Edge]) -> set[Edge]:
    """Iteratively delete hanging-tree vertices (degree <= 1, not the base 0)."""
    while True:
        degree: dict[int, int] = {}
        for u, _, v in es:
            degree[u] = degree.get(u, 0) + 1
            degree[v] = degree.get(v, 0) + 1
        victims = {v for v, d in degree.items() if d <= 1 and v != 0}
        if not victims:
            return es
        es = {(u, lab, v) for u, lab, v in es if u not in victims and v not in victims}


def _canonicalize(ambient_rank: int, es: set[Edge]) -> CoreGraph:
    out: dict[tuple[int, int], int] = {}
    inc: dict[tuple[int, int], int] = {}
    vertices = {0}
    for u, lab, v in es:
        out[(u, lab)] = v
        inc[(v, lab)] = u
        vertices.add(u)
        vertices.add(v)
    order = [0]
    index = {0: 0}
    i = 0
    while i < len(order):
        v = order[i]
        for lab in range(1, ambient_rank + 1):
            for nbr_map in (out, inc):
                w = nbr_map.get((v, lab))
                if w is not None and w not in index:
                    index[w] = len(order)
                    order.append(w)
        i += 1
    if len(order) != len(vertices):
        raise InternalInvariantError("core graph is disconnected")
    canon = tuple(sorted((index[u], lab, index[v]) for u, lab, v in es))
    return CoreGraph(ambient_rank, len(order), canon)


def fold(pre: PreGraph) -> CoreGraph:
    """Fold, prune and canonicalize a pre-graph based at vertex 0."""
    return _canonicalize(pre.ambient_rank, _prune(_fold_edges(list(pre.edges))))


def from_generators(gens: list[Word], ambient_rank: int) -> CoreGraph:
    """The core graph of the subgroup generated by `gens` inside F_r."""
    for g in gens:
        if g.ambient_rank > ambient_rank:
            raise ValueError("generator rank exceeds ambient rank")
    pre = PreGraph(ambient_rank)
    for g in gens:
        if not g.is_identity:
            pre.add_word_loop(g)
    return fold(pre)


def rose(ambient_rank: int) -> CoreGraph:
    """The wedge of one loop per generator: the graph of F_r itself."""
    return CoreGraph(ambient_rank, 1, tuple((0, lab, 0) for lab in range(1, ambient_rank + 1)))


# ----------------------------------------------------------------------
# Queries
# ----------------------------------------------------------------------


def contains(H: CoreGraph, w: Word) -> bool:
    """Membership: w traces a loop at the base of Gamma(H)."""
    if w.ambient_rank > H.ambient_rank:
        raise ValueError("word rank exceeds graph rank")
    cur = 0
    for g, s in w.letters:
        nxt = H.out_map.get((cur, g)) if s == 1 else H.in_map.get((cur, g))
        if nxt is None:
            return False
        cur = nxt
    return cur == 0


def morphism(H: CoreGraph, J: CoreGraph) -> list[int] | None:
    """The base-preserving label-preserving graph morphism H -> J, if any.

    For folded graphs the morphism is unique, and it exists iff the
    subgroup of H is contained in the subgroup of J.
    """
    if H.ambient_rank != J.ambient_rank:
        raise ValueError("ambient ranks differ")
    f: list[int | None] = [None] * H.num_vertices
    f[0] = 0
    queue = [0]
    while queue:
        v = queue.pop()
        for lab in range(1, H.ambient_rank + 1):
            for here, there in ((H.out_map, J.out_map), (H.in_map, J.in_map)):
                w = here.get((v, lab))
                if w is None:
                    continue
                target = there.get((f[v], lab))
                if target is None:
                    return None
                if f[w] is None:
                    f[w] = target
                    queue.append(w)
                elif f[w] != target:
                    return None
    return f  # type: ignore[return-value]


def subgroup_leq(H: CoreGraph, J: CoreGraph) -> bool:
    return morphism(H, J) is not None


def image(H: CoreGraph, f: list[int]) -> CoreGraph:
    """The image of Gamma(H) under its morphism f (from `morphism`) into
    another core graph: a subgraph of the target through the base, folded
    and core because a morphism of folded graphs is an immersion, so it
    needs renumbering only."""
    return _canonicalize(H.ambient_rank, {(f[u], lab, f[v]) for u, lab, v in H.edges})


def _tree(H: CoreGraph) -> tuple[list[list[Letter]], list[Edge]]:
    """The spanning tree of the canonical numbering: the letters of each
    vertex's tree path from the base, and the non-tree edges in order.

    The numbering is a breadth-first order (labels ascending, outgoing
    before incoming), so the tree edge into a vertex w > 0 is the least
    (v, label, outgoing before incoming) among its edges to a v < w.
    """
    path: list[list[Letter] | None] = [[]] + [None] * (H.num_vertices - 1)
    tree: set[Edge] = set()
    for v, lab, incoming, w in sorted(
        (min(u, x), lab, u > x, max(u, x)) for u, lab, x in H.edges if u != x
    ):
        if path[w] is None:
            path[w] = path[v] + [(lab, -1 if incoming else 1)]
            tree.add((w, lab, v) if incoming else (v, lab, w))
    return path, [e for e in H.edges if e not in tree]  # type: ignore[return-value]


def basis(H: CoreGraph) -> list[Word]:
    """A deterministic free basis of H (one word per non-tree edge)."""
    path, non_tree = _tree(H)
    return [
        Word(
            H.ambient_rank,
            free_reduce(path[u] + [(lab, 1)] + [(g, -s) for g, s in reversed(path[v])]),
        )
        for u, lab, v in non_tree
    ]


def rewrite_in_basis(J: CoreGraph, w: Word) -> Word:
    """Express w (an element of the subgroup J) as a word in basis(J).

    The result lives in F_k with k = rank(J); tracing the loop of w in
    Gamma(J) and emitting one letter per non-tree edge crossed.
    """
    edge_index = {e: i for i, e in enumerate(_tree(J)[1])}
    k = max(J.rank, 1)
    cur = 0
    out: list[Letter] = []
    for g, s in w.letters:
        if s == 1:
            nxt = J.out_map.get((cur, g))
            if nxt is None:
                raise ValueError("word is not an element of the subgroup")
            e = (cur, g, nxt)
            if e in edge_index:
                out.append((edge_index[e] + 1, 1))
        else:
            nxt = J.in_map.get((cur, g))
            if nxt is None:
                raise ValueError("word is not an element of the subgroup")
            e = (nxt, g, cur)
            if e in edge_index:
                out.append((edge_index[e] + 1, -1))
        cur = nxt
    if cur != 0:
        raise ValueError("word is not an element of the subgroup")
    return Word(k, free_reduce(out))


# ----------------------------------------------------------------------
# Quotient enumeration
# ----------------------------------------------------------------------


def quotient_graphs(H: CoreGraph, max_vertices: int, budget: int | None = None):
    """Each folded quotient of Gamma(H) with at most `max_vertices`
    vertices, once, as (vertex count, edges) with the base at 0.

    H's vertices are placed in canonical order on points 0, 1, ... (an
    old point or the next new one) while every label stays a partial
    injection.  A quotient is the image of the unique morphism out of
    Gamma(H), so each one is reached once and needs no folding.  Each
    pass of the search loop is one step; a search that needs more than
    `budget` steps raises BudgetExceededError.
    """
    n = H.num_vertices
    # each edge is placed with its later endpoint; the first edge of a
    # vertex joins it to an earlier one, loops come last
    later: list[list[Edge]] = [[] for _ in range(n)]
    for e in sorted(H.edges, key=lambda e: (max(e[0], e[2]), min(e[0], e[2]))):
        later[max(e[0], e[2])].append(e)
    f = [0] * n
    out = [[None] * n for _ in range(H.ambient_rank + 1)]  # out[lab][point]
    inc = [[None] * n for _ in range(H.ambient_rank + 1)]
    edges: list[Edge] = []

    def place(i: int, p: int) -> bool:
        f[i] = p
        for u, lab, v in later[i]:
            a, b = f[u], f[v]
            t = out[lab][a]
            if t is None:
                if inc[lab][b] is not None:
                    return False
                out[lab][a], inc[lab][b] = b, a
                edges.append((a, lab, b))
            elif t != b:
                return False
        return True

    def forced(i: int) -> int | None:
        u, lab, v = later[i][0]
        return out[lab][f[u]] if v == i else inc[lab][f[v]]

    # choice points: (vertex, candidate points, points in use, edges kept)
    stack = [(0, iter(range(min(1, max_vertices))), 0, 0)]
    steps = found = 0
    while stack:
        if budget is not None and steps >= budget:
            raise BudgetExceededError(
                f"quotient search passed the budget {budget}: {steps} steps, {found} quotients"
            )
        steps += 1
        i, candidates, m, kept = stack[-1]
        while len(edges) > kept:
            a, lab, b = edges.pop()
            out[lab][a] = inc[lab][b] = None
        if (p := next(candidates, None)) is None:
            stack.pop()
            continue
        m = max(m, p + 1)
        ok = place(i, p)
        i += 1
        while ok and i < n and (p := forced(i)) is not None:
            ok = place(i, p)
            i += 1
        if ok and i == n:
            found += 1
            yield m, tuple(edges)
        elif ok:
            stack.append((i, iter(range(min(m + 1, max_vertices))), m, len(edges)))


def quotients(H: CoreGraph) -> list[CoreGraph]:
    """All folded vertex-identification quotients of Gamma(H), the
    candidate overgroups hosting every algebraic extension of H; H may
    have at most DEFAULT_VERTEX_CAP vertices."""
    n = H.num_vertices
    if n > DEFAULT_VERTEX_CAP:
        raise BudgetExceededError(
            f"quotient enumeration needs {n} vertices, cap is {DEFAULT_VERTEX_CAP}"
        )
    found = [_canonicalize(H.ambient_rank, es) for _, es in quotient_graphs(H, n)]
    return sorted(found, key=lambda g: (len(g.edges), g.canonical_key))


# ----------------------------------------------------------------------
# Export
# ----------------------------------------------------------------------


def to_dot(H: CoreGraph) -> str:
    lines = ["digraph core {"]
    lines.append('  v0 [shape=doublecircle, label="v0"];')
    for v in range(1, H.num_vertices):
        lines.append(f'  v{v} [shape=circle, label="v{v}"];')
    for u, lab, v in H.edges:
        letter = chr(ord("a") + lab - 1)
        lines.append(f'  v{u} -> v{v} [label="{letter}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"

