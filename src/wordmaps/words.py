"""Freely reduced words in finitely generated free groups.

Generators are the letters a..z (at most 26), with uppercase denoting the
inverse of the corresponding lowercase letter.  A word literal supports
juxtaposition, parentheses, `^n` exponents (possibly negative) and the
commutator bracket `[u,v] = u v u^-1 v^-1`.  Whitespace is ignored.
"""
from __future__ import annotations

import itertools
from collections import Counter
from typing import Iterable, NamedTuple, Sequence

from .errors import WordSyntaxError

MAX_RANK = 26
# Guard against `x^1000000000`-style blowups in parsing and in powers
# built by `mobius.check_power_gap`.
MAX_PARSED_LENGTH = 1_000_000

Letter = tuple[int, int]  # (generator index, 1-based; sign +1/-1)


def free_reduce(letters: Iterable[Letter]) -> tuple[Letter, ...]:
    stack: list[Letter] = []
    for g, s in letters:
        if stack and stack[-1][0] == g and stack[-1][1] == -s:
            stack.pop()
        else:
            stack.append((g, s))
    return tuple(stack)


class Record:
    """Base of the package's plain value classes: repr and == (between
    instances of one class) follow `_fields`, the constructor's arguments
    in order, as a dataclass generates them.  As for a dataclass that is
    not frozen, instances do not hash."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()


class Frozen(Record):
    """An immutable Record, as a frozen dataclass: it hashes as the tuple
    of its fields, assigning or deleting an attribute raises
    AttributeError, and so `__init__` sets its fields with
    `object.__setattr__`."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Word(Frozen):
    """An immutable freely reduced word in F_r."""

    __slots__ = _fields = ("ambient_rank", "letters")
    ambient_rank: int
    letters: tuple[Letter, ...]

    def __init__(self, ambient_rank: int, letters: tuple[Letter, ...] = ()):
        object.__setattr__(self, "ambient_rank", ambient_rank)
        object.__setattr__(self, "letters", letters)
        if not (1 <= ambient_rank <= MAX_RANK):
            raise ValueError(f"ambient rank must be in 1..{MAX_RANK}")
        for g, s in letters:
            if not (1 <= g <= ambient_rank):
                raise ValueError(f"generator index {g} exceeds rank {ambient_rank}")
            if s not in (1, -1):
                raise ValueError("letter sign must be +1 or -1")
        for (g1, s1), (g2, s2) in zip(letters, letters[1:]):
            if g1 == g2 and s1 == -s2:
                raise ValueError("word is not freely reduced")

    def __reduce__(self):
        # slots are restored by assignment, which Frozen refuses
        return Word, (self.ambient_rank, self.letters)

    # -- constructors -------------------------------------------------

    @staticmethod
    def identity(rank: int = 1) -> "Word":
        return Word(rank, ())

    @staticmethod
    def generator(index: int, rank: int | None = None) -> "Word":
        return Word(rank if rank is not None else index, ((index, 1),))

    # -- basic queries ------------------------------------------------

    def __len__(self) -> int:
        return len(self.letters)

    @property
    def is_identity(self) -> bool:
        return not self.letters

    def with_rank(self, rank: int) -> "Word":
        """The same word viewed inside a (possibly larger) free group."""
        return Word(rank, self.letters)

    # -- group operations ---------------------------------------------

    def __mul__(self, other: "Word") -> "Word":
        rank = max(self.ambient_rank, other.ambient_rank)
        return Word(rank, free_reduce(self.letters + other.letters))

    def inverse(self) -> "Word":
        return Word(self.ambient_rank, tuple((g, -s) for g, s in reversed(self.letters)))

    def __pow__(self, d: int) -> "Word":
        base = self if d >= 0 else self.inverse()
        return Word(self.ambient_rank, free_reduce(base.letters * abs(d)))

    def conjugate_by(self, c: "Word") -> "Word":
        """c * self * c^-1."""
        return c * self * c.inverse()

    # -- printing -----------------------------------------------------

    def __str__(self) -> str:
        if not self.letters:
            return "1"
        chars = []
        for g, s in self.letters:
            ch = chr(ord("a") + g - 1)
            chars.append(ch if s == 1 else ch.upper())
        return "".join(chars)


# ----------------------------------------------------------------------
# Parsing
# ----------------------------------------------------------------------


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def peek(self) -> str | None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        return self.text[self.pos] if self.pos < len(self.text) else None

    def take(self) -> str:
        ch = self.peek()
        if ch is None:
            raise WordSyntaxError("unexpected end of input", self.pos)
        self.pos += 1
        return ch

    def expect(self, ch: str):
        got = self.peek()
        if got != ch:
            raise WordSyntaxError(f"expected {ch!r}", self.pos)
        self.pos += 1

    def expect_end(self):
        if self.peek() is not None:
            raise WordSyntaxError(f"unexpected character {self.peek()!r}", self.pos)

    def parse_word(self, used: int = 0) -> list[Letter]:
        """A word's letters, unreduced; `used` letters precede it in its literal."""
        out: list[Letter] = []
        while True:
            ch = self.peek()
            if ch is None or ch in ("]", ")", ","):
                return out
            term = self.parse_term()
            if used + len(out) + len(term) > MAX_PARSED_LENGTH:
                raise WordSyntaxError("word literal too long", self.pos)
            out.extend(term)

    def parse_term(self) -> list[Letter]:
        atom = self.parse_atom()
        if self.peek() == "^":
            self.take()
            n = self.parse_int()
            if abs(n) * len(atom) > MAX_PARSED_LENGTH:
                raise WordSyntaxError("exponent overflow", self.pos)
            if n < 0:
                atom = [(g, -s) for g, s in reversed(atom)]
            atom = atom * abs(n)
        return atom

    def parse_atom(self) -> list[Letter]:
        pos = self.pos
        ch = self.take()
        if ch == "(":
            inner = self.parse_word()
            self.expect(")")
            return inner
        if ch == "[":
            u = self.parse_word()
            self.expect(",")
            v = self.parse_word(len(u))
            self.expect("]")
            ui = [(g, -s) for g, s in reversed(u)]
            vi = [(g, -s) for g, s in reversed(v)]
            return u + v + ui + vi
        if ch == "1":
            return []
        if ch.isalpha():
            if ch.islower():
                return [(ord(ch) - ord("a") + 1, 1)]
            return [(ord(ch.lower()) - ord("a") + 1, -1)]
        raise WordSyntaxError(f"unexpected character {ch!r}", pos)

    def parse_int(self) -> int:
        sign = 1
        if self.peek() == "-":
            self.take()
            sign = -1
        ch = self.peek()
        if ch is None or not ch.isdigit():
            raise WordSyntaxError("expected an integer exponent", self.pos)
        n = 0
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            n = 10 * n + int(self.text[self.pos])
            self.pos += 1
        return sign * n


def parse(text: str, ambient_rank: int | None = None) -> Word:
    """Parse a word literal into a freely reduced Word.

    With an explicit `ambient_rank`, letters map alphabetically (a=1 ..
    z=26) and must fit within the declared rank.  Without one, the
    distinct letters that occur are renumbered compactly (preserving
    alphabetical order), so e.g. "[x,y]" is a word in F_2.
    """
    p = _Parser(text)
    letters = p.parse_word()
    p.expect_end()
    return _as_words([letters], ambient_rank)[0]


def parse_list(text: str, ambient_rank: int | None = None) -> list[Word]:
    """Parse comma-separated word literals, e.g. "[a,b], a^2".

    Only top-level commas separate words.  Without `ambient_rank`, one
    compact renumbering is shared by all the words, so "a^2,b" gives
    a^2 and b in F_2.
    """
    return parse_lists([text], ambient_rank)[0]


def parse_lists(texts: Sequence[str], ambient_rank: int | None = None) -> list[list[Word]]:
    """Several comma-separated lists whose words share one letter numbering."""
    lists = []
    for text in texts:
        p = _Parser(text)
        lists.append([p.parse_word()])
        used = 0  # letters of the list's earlier words
        while p.peek() == ",":
            p.take()
            used += len(lists[-1][-1])
            lists[-1].append(p.parse_word(used))
        p.expect_end()
    words = iter(_as_words([w for items in lists for w in items], ambient_rank))
    return [[next(words) for _ in items] for items in lists]


def _as_words(items: list[list[Letter]], ambient_rank: int | None) -> list[Word]:
    used = sorted({g for letters in items for g, _ in letters})
    if ambient_rank is None:
        remap = {g: i + 1 for i, g in enumerate(used)}
        items = [[(remap[g], s) for g, s in letters] for letters in items]
        ambient_rank = max(len(remap), 1)
    elif used and used[-1] > ambient_rank:
        raise WordSyntaxError(
            f"generator index {used[-1]} exceeds declared rank {ambient_rank}", 0
        )
    return [Word(ambient_rank, free_reduce(letters)) for letters in items]


# ----------------------------------------------------------------------
# Structural operations
# ----------------------------------------------------------------------


def substitute(w: Word, images: Sequence[Word]) -> Word:
    """The image of w under the homomorphism x_i -> images[i-1].

    w must live in F_k with k == len(images); the images must all share an
    ambient rank (the maximum is taken).
    """
    if w.ambient_rank != len(images):
        raise ValueError(
            f"arity mismatch: word has rank {w.ambient_rank}, got {len(images)} images"
        )
    rank = max((im.ambient_rank for im in images), default=1)
    out: list[Letter] = []
    for g, s in w.letters:
        im = images[g - 1].letters
        out.extend(im if s == 1 else [(h, -t) for h, t in reversed(im)])
    return Word(rank, free_reduce(out))


def cyclic_reduce(w: Word) -> tuple[Word, Word]:
    """Write w = c * core * c^-1 with core cyclically reduced."""
    letters = list(w.letters)
    conj: list[Letter] = []
    while len(letters) >= 2 and letters[0][0] == letters[-1][0] and letters[0][1] == -letters[-1][1]:
        conj.append(letters[0])
        letters = letters[1:-1]
    return Word(w.ambient_rank, tuple(letters)), Word(w.ambient_rank, tuple(conj))


def maximal_root(w: Word) -> tuple[Word, int]:
    """Write w = u^b with u not a proper power (b maximal)."""
    if w.is_identity:
        raise ValueError("the identity word has no maximal root")
    core, conj = cyclic_reduce(w)
    # the least rotation fixing the cyclic core is its period, a divisor
    # of its length
    t = "".join(chr(2 * g + (s < 0)) for g, s in core.letters)
    p = (t + t).find(t, 1)
    b = len(core) // p
    u = Word(w.ambient_rank, core.letters[:p]).conjugate_by(conj)
    return u, b


def is_dth_power_in_free(w: Word, d: int) -> bool:
    """True iff w = v^d for some v in the ambient free group."""
    if d <= 0:
        raise ValueError("d must be positive")
    if w.is_identity:
        return True
    _, b = maximal_root(w)
    return b % d == 0


def disjoint_blocks(letters: Sequence[Letter]) -> list[tuple[Letter, ...]]:
    """The finest split of a cyclic word into arcs whose generator sets are
    pairwise disjoint, over every rotation; the arcs of a product
    u_1 ... u_k in disjoint letters, read from one cut.

    Cut c falls before letter c.  A set of cuts splits the word so iff,
    for every generator, all of them fall into one gap between cyclically
    consecutive occurrences of it.  So the cuts that lie in the same gap
    for every generator form such a set, and the largest of these classes
    (the first, on a tie) is the finest split: O(length x generators).
    One arc, the word itself, when no two cuts agree.
    """
    occurrences = Counter(g for g, _ in letters)
    counts = dict.fromkeys(occurrences, 0)  # occurrences before the cut
    classes: dict[tuple[int, ...], list[int]] = {}
    for c, (g, _) in enumerate(letters):
        gaps = tuple(counts[h] % m for h, m in occurrences.items())
        classes.setdefault(gaps, []).append(c)
        counts[g] += 1
    cuts = max(classes.values(), key=len, default=[0])
    doubled = tuple(letters) * 2
    return [doubled[a:b] for a, b in zip(cuts, cuts[1:] + [cuts[0] + len(letters)])]


# ----------------------------------------------------------------------
# Whitehead moves
# ----------------------------------------------------------------------

# Codes for how a type-II move treats a generator x (with multiplier a):
#   0: x -> x    1: x -> x a    2: x -> a^-1 x    3: x -> a^-1 x a
_MULT_CODES = (0, 1, 2, 3)


class WhiteheadMove(NamedTuple):
    """A Whitehead automorphism of F_rank.

    kind "perm": a signed permutation of the basis (type I);
    kind "mult": a multiplier letter a and a per-generator code (type II),
    which `images` reads off the table above; a's own generator is fixed.
    """

    rank: int
    kind: str
    perm: tuple[int, ...] | None = None  # 0-based images of generator indices
    signs: tuple[int, ...] | None = None
    multiplier: Letter | None = None
    codes: tuple[int, ...] | None = None

    def images(self) -> tuple[Word, ...]:
        r = self.rank
        if self.kind == "perm":
            assert self.perm is not None and self.signs is not None
            return tuple(Word(r, ((p + 1, s),)) for p, s in zip(self.perm, self.signs))
        assert self.multiplier is not None and self.codes is not None
        g, s = self.multiplier
        out = []
        for x, c in enumerate(self.codes, start=1):
            if x == g:
                c = 0
            before = ((g, -s),) if c in (2, 3) else ()
            after = ((g, s),) if c in (1, 3) else ()
            out.append(Word(r, before + ((x, 1),) + after))
        return tuple(out)

    def apply(self, w: Word) -> Word:
        if w.ambient_rank > self.rank:
            raise ValueError(
                f"move is defined on rank {self.rank}, word has rank {w.ambient_rank}"
            )
        return substitute(w.with_rank(self.rank), self.images())


def enumerate_whitehead_moves(rank: int) -> list[WhiteheadMove]:
    """All type-I signed permutations and all type-II multiplier moves."""
    moves: list[WhiteheadMove] = []
    for perm in itertools.permutations(range(rank)):
        for signs in itertools.product((1, -1), repeat=rank):
            moves.append(WhiteheadMove(rank, "perm", perm=perm, signs=tuple(signs)))
    for g in range(1, rank + 1):
        for s in (1, -1):
            for codes in itertools.product(_MULT_CODES, repeat=rank):
                if codes[g - 1] == 0:
                    moves.append(WhiteheadMove(rank, "mult", multiplier=(g, s), codes=codes))
    return moves


# ----------------------------------------------------------------------
# Whitehead minimisation
# ----------------------------------------------------------------------
#
# Here a cyclic word is a list of letter codes: v = 2(g - 1) + (s < 0)
# stands for the letter (g, s), and v ^ 1 for its inverse.  Its
# Whitehead (star) graph has the letters as vertices and one edge
# {x, y^-1} per cyclically adjacent pair xy, so a letter's degree deg(a)
# counts the occurrences of a and a^-1.  For a set A of letters holding a
# but not a^-1, the Whitehead automorphism (A, a) fixes a and sends every
# other letter x to a^-1 x if x^-1 is in A, then to (...) a if x is in A.
# It changes the cyclic length by exactly cap(A) - deg(a), cap(A) the
# number of edges that leave A (Lyndon-Schupp, Prop. I.4.16); and a
# cyclic word that is not the shortest of its Aut(F_r)-orbit has a
# strictly shortening one (Whitehead).  A cut below deg(a) is found by a
# max-flow from a to a^-1.


def _star_graph(core: list[int], n: int) -> list[list[int]]:
    """The Whitehead graph of a cyclically reduced word on the letters
    0..n-1, as an edge-multiplicity matrix."""
    graph = [[0] * n for _ in range(n)]
    x = core[-1]
    for y in core:
        graph[x][y ^ 1] += 1
        graph[y ^ 1][x] += 1
        x = y
    return graph


def _shortening_cut(graph: list[list[int]], a: int) -> "set[int] | None":
    """A minimum cut A of the star graph that holds a but not a^-1, from
    a max-flow, when cap(A) < deg(a); None when every such cut has
    capacity deg(a), so that no (A, a) shortens the word.  The flow grows
    by breadth-first augmenting paths; once a^-1 is out of reach, the
    letters reached from a are the least minimum cut, the same one for
    every maximum flow."""
    t = a ^ 1
    res = [row[:] for row in graph]
    deg, flow = sum(graph[a]), 0
    while flow < deg:
        parent = [-1] * len(graph)
        parent[a] = a
        queue = [a]
        for u in queue:
            for v, c in enumerate(res[u]):
                if c and parent[v] < 0:
                    parent[v] = u
                    queue.append(v)
            if parent[t] >= 0:
                break
        else:  # a^-1 is out of reach: the reached letters are a minimum cut
            return set(queue)
        push, v = deg, t
        while v != a:
            u = parent[v]
            push = min(push, res[u][v])
            v = u
        v = t
        while v != a:
            u = parent[v]
            res[u][v] -= push
            res[v][u] += push
            v = u
        flow += push
    return None


def _apply_whitehead(core: list[int], A: set[int], a: int) -> list[int]:
    """The cyclic reduction of (A, a)(core)."""
    out: list[int] = []
    for x in core:
        if x >> 1 == a >> 1:
            image: tuple[int, ...] = (x,)
        else:
            image = ((a ^ 1,) if x ^ 1 in A else ()) + (x,) + ((a,) if x in A else ())
        for y in image:
            if out and out[-1] == y ^ 1:
                out.pop()
            else:
                out.append(y)
    return _cyclic_core(out)


def _cyclic_core(word: list[int]) -> list[int]:
    i, j = 0, len(word) - 1
    while i < j and word[i] == word[j] ^ 1:
        i += 1
        j -= 1
    return word[i : j + 1]


# the letter of each code, and the code of each letter
_LETTERS = tuple((g, s) for g in range(1, MAX_RANK + 1) for s in (1, -1))
_CODES = {letter: v for v, letter in enumerate(_LETTERS)}


def _compact(word: list[int]) -> list[int]:
    """Renumber the generators of a coded word 0, 1, ... in order of
    first occurrence."""
    gens = list(dict.fromkeys([x >> 1 for x in word]))
    if gens == list(range(len(gens))):
        return word
    index = {g: 2 * i for i, g in enumerate(gens)}
    return [index[x >> 1] | (x & 1) for x in word]


def whitehead_minimal(w: Word) -> Word:
    """A shortest cyclically reduced word in the Aut(F_r)-orbit of the
    conjugacy class of w, in the same ambient rank, its generators
    renumbered x_1, x_2, ... in order of first occurrence (a permutation
    of the basis is an automorphism too).

    Starting from the cyclic core, each step takes the first generator a
    with a cut A below deg(a) and applies (A, a), shortening the word by
    deg(a) - cap(A); it stops when no generator has one.  A step runs at
    most r max-flows on the 2r letters, so the cost is polynomial in rank
    and length.  A word of length 1 is primitive; length 0 is the
    identity.
    """
    core = _compact(_cyclic_core(list(map(_CODES.__getitem__, w.letters))))
    n = 2 * len({x >> 1 for x in core})  # the letters, numbered 0..n-1
    shortened = False
    while len(core) > 1:
        graph = _star_graph(core, n)
        for a in range(0, n, 2):
            A = _shortening_cut(graph, a)
            if A is not None:
                core = _apply_whitehead(core, A, a)
                shortened = True
                break
        else:
            break
    letters = map(_LETTERS.__getitem__, _compact(core) if shortened else core)
    return Word(w.ambient_rank, tuple(letters))
