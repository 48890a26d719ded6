"""Span tracer that wraps wordmaps' public functions from outside.

Every wrapped call records a span (name, start, end, parent span, query
id).  Self time is computed as each span closes: its duration minus the
time covered by its child spans.  Calls run on one thread, so spans
nest and the stack is exact.  Spans stay in memory, in flat arrays, and
are written out at the end; past SPAN_CAP spans only the aggregates
are kept.

A wrap target that no longer exists is reported as absent instead of
raising, so a refactor that deletes an internal does not break the
traced run.
"""
from __future__ import annotations

import gzip
import importlib
import inspect
import math
import time
from array import array
from contextlib import contextmanager

MARK = "__bench_wrapped__"
SPAN_CAP = 300_000  # spans kept in memory; later ones only enter the aggregates

# (module, attribute, span name).  A function imported by name into
# another module is wrapped in that namespace too, under the same span
# name, because its callers look it up there.
TARGETS = [
    ("words", "parse", "words.parse"),
    ("cli", "parse", "words.parse"),
    ("words", "substitute", "words.substitute"),
    ("extensions", "substitute", "words.substitute"),
    ("mobius", "substitute", "words.substitute"),
    ("cli", "substitute", "words.substitute"),
    ("words", "enumerate_whitehead_moves", "words.enumerate_whitehead_moves"),
    ("extensions", "enumerate_whitehead_moves", "words.enumerate_whitehead_moves"),
    ("stallings", "fold", "stallings.fold"),
    ("stallings", "from_generators", "stallings.from_generators"),
    ("stallings", "quotients", "stallings.quotients"),
    ("stallings", "subgroup_leq", "stallings.subgroup_leq"),
    ("stallings", "basis", "stallings.basis"),
    ("stallings", "rewrite_in_basis", "stallings.rewrite_in_basis"),
    ("extensions", "is_free_factor", "extensions.is_free_factor"),
    ("extensions", "algebraic_extensions", "extensions.algebraic_extensions"),
    ("extensions", "pi_details", "extensions.pi_details"),
    ("extensions", "ff_closure", "extensions.ff_closure"),
    ("measures", "trw_exact", "measures.trw_exact"),
    ("mobius", "trw_exact", "measures.trw_exact"),
    ("measures", "phi_exact", "measures.phi_exact"),
    ("measures", "trw_monte_carlo", "measures.trw_monte_carlo"),
    ("measures", "word_measure_exact", "measures.word_measure_exact"),
    ("measures", "compare_measures", "measures.compare_measures"),
    ("measures", "epi_image", "measures.epi_image"),
    ("measures", "FiniteGroupTable.__post_init__", "measures.FiniteGroupTable"),
    ("mobius", "derive_R", "mobius.derive_R"),
    ("mobius", "phi_via_expansion", "mobius.phi_via_expansion"),
    ("mobius", "check_power_gap", "mobius.check_power_gap"),
    ("mobius", "fit_expansion", "mobius.fit_expansion"),
    ("perm_powers", "word_power_obstruction", "perm_powers.word_power_obstruction"),
    ("perm_powers", "moments_exact", "perm_powers.moments_exact"),
    ("perm_powers", "evaluate_word", "perm_powers.evaluate_word"),
    ("measures", "evaluate_word", "perm_powers.evaluate_word"),
]

# Span names the launcher and the benchmark open themselves.
OWN_SPANS = ["cli.main", "cli.import", "cli.process"]

SPAN_NAMES = sorted({name for _, _, name in TARGETS} | set(OWN_SPANS))


def bell(n: int) -> int:
    """Number of set partitions of n points (Bell triangle)."""
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[0]


def partition_count(n: int) -> int:
    """Number of integer partitions of n (conjugacy classes of S_n)."""
    ways = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            ways[total] += ways[total - part]
    return ways[n]


def _used_generators(words) -> int:
    return len({g for w in words for g, _ in w.letters})


def sn_tuples(words, N: int) -> int:
    """Hom tuples the class-collapsed S_N sweep visits: p(N) * (N!)^(r-1)."""
    r = _used_generators(words)
    return partition_count(N) * math.factorial(N) ** (r - 1) if r else 0


def group_tuples(w, group) -> int:
    """Hom tuples of one word measure: S_N sweep, or |G|^r on a table."""
    if isinstance(group, int):
        return sn_tuples([w], group)
    r = _used_generators([w])
    return group.order**r if r else 1


class Tracer:
    def __init__(self):
        self.query = -1
        self._ids: dict[str, int] = {}
        self.names: list[str] = []
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.total_s: list[float] = []
        self.active: list[int] = []
        self.counters: dict[str, float] = {}
        self.absent: list[str] = []
        self.hook_errors = 0
        self.spans_total = 0
        self._stack: list[list] = []  # [child time, stored span index, name id]
        self._installed: list[tuple[object, str, object]] = []
        self.s_name = array("i")
        self.s_parent = array("i")
        self.s_query = array("i")
        self.s_start = array("d")
        self.s_end = array("d")
        for name in SPAN_NAMES:
            self._id(name)

    # -- spans ----------------------------------------------------------

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
            self.total_s.append(0.0)
            self.active.append(0)
        return nid

    def enter(self, nid: int) -> list:
        stack = self._stack
        parent = stack[-1][1] if stack else -1
        idx = -1
        if len(self.s_name) < SPAN_CAP:
            idx = len(self.s_name)
            self.s_name.append(nid)
            self.s_parent.append(parent)
            self.s_query.append(self.query)
            self.s_start.append(0.0)
            self.s_end.append(0.0)
        frame = [0.0, idx, nid]
        stack.append(frame)
        self.active[nid] += 1
        return frame

    def exit(self, frame: list, t0: float, t1: float):
        stack = self._stack
        stack.pop()
        dur = t1 - t0
        nid = frame[2]
        self.active[nid] -= 1
        self.calls[nid] += 1
        self.self_s[nid] += dur - frame[0]
        self.total_s[nid] += dur
        self.spans_total += 1
        if stack:
            stack[-1][0] += dur
        idx = frame[1]
        if idx >= 0:
            self.s_start[idx] = t0
            self.s_end[idx] = t1

    @contextmanager
    def span(self, name: str):
        frame = self.enter(self._id(name))
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.exit(frame, t0, time.perf_counter())

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span of the given name."""
        with self.span(name):
            return fn(*args, **kwargs)

    def is_active(self, name: str) -> bool:
        nid = self._ids.get(name)
        return nid is not None and self.active[nid] > 0

    def count(self, name: str, k: float = 1):
        self.counters[name] = self.counters.get(name, 0) + k

    # -- wrapping -------------------------------------------------------

    def wrap(self, name: str, fn, hook=None):
        nid = self._id(name)
        tracer = self

        def wrapper(*args, **kwargs):
            frame = tracer.enter(nid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit(frame, t0, time.perf_counter())
            if hook is not None:
                try:
                    hook(tracer, fn, args, kwargs, result)
                except Exception:  # a counter must never fail the query
                    tracer.hook_errors += 1
            return result

        setattr(wrapper, MARK, True)
        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self):
        """Wrap every target that exists; record the rest as absent."""
        for module_name, attr, name in TARGETS:
            try:
                owner = importlib.import_module(f"wordmaps.{module_name}")
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, leaf)
            except (ImportError, AttributeError):
                self.absent.append(f"{module_name}.{attr}")
                continue
            if getattr(original, MARK, False):
                continue
            setattr(owner, leaf, self.wrap(name, original, HOOKS.get(name)))
            self._installed.append((owner, leaf, original))

    def uninstall(self):
        for owner, leaf, original in reversed(self._installed):
            setattr(owner, leaf, original)
        self._installed.clear()

    # -- merging a child process's trace --------------------------------

    def export(self) -> dict:
        n = len(self.s_name)
        return {
            "names": self.names,
            "calls": self.calls,
            "self_s": self.self_s,
            "total_s": self.total_s,
            "counters": self.counters,
            "absent": self.absent,
            "hook_errors": self.hook_errors,
            "spans_total": self.spans_total,
            "spans": [
                [self.s_name[i], self.s_parent[i], self.s_start[i], self.s_end[i]]
                for i in range(n)
            ],
        }

    def merge(self, data: dict):
        """Fold a child's exported trace into this one, under the open span."""
        remap = [self._id(name) for name in data["names"]]
        for cid, nid in enumerate(remap):
            self.calls[nid] += data["calls"][cid]
            self.self_s[nid] += data["self_s"][cid]
            self.total_s[nid] += data["total_s"][cid]
        for name, k in data["counters"].items():
            self.count(name, k)
        for name in data["absent"]:
            if name not in self.absent:
                self.absent.append(name)
        self.hook_errors += data["hook_errors"]
        self.spans_total += data["spans_total"]
        frame = self._stack[-1] if self._stack else None
        parent = frame[1] if frame else -1
        base = len(self.s_name)
        for nid, par, start, end in data["spans"]:
            if par < 0 and frame is not None:
                frame[0] += end - start
            if len(self.s_name) >= SPAN_CAP:
                continue
            self.s_name.append(remap[nid])
            self.s_parent.append(parent if par < 0 else base + par)
            self.s_query.append(self.query)
            self.s_start.append(start)
            self.s_end.append(end)

    # -- output ---------------------------------------------------------

    def totals(self, name: str) -> tuple[int, float, float]:
        """(calls, self seconds, total seconds) of one span name."""
        nid = self._ids.get(name)
        if nid is None:
            return 0, 0.0, 0.0
        return self.calls[nid], self.self_s[nid], self.total_s[nid]

    def write_spans(self, path) -> int:
        """Write stored spans as gzipped CSV; returns how many were written."""
        n = len(self.s_name)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span,parent,query,name,start,end\n")
            for i in range(n):
                fh.write(
                    f"{i},{self.s_parent[i]},{self.s_query[i]},"
                    f"{self.names[self.s_name[i]]},"
                    f"{self.s_start[i]!r},{self.s_end[i]!r}\n"
                )
        return n


def calibrate_overhead(rounds: int = 20_000) -> float:
    """Seconds a wrapper adds to one call, span storage included, measured
    on a no-op."""

    def noop():
        return None

    tracer = Tracer()
    wrapped = tracer.wrap("calibration", noop)
    t0 = time.perf_counter()
    for _ in range(rounds):
        noop()
    bare = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(rounds):
        wrapped()
    return max((time.perf_counter() - t0 - bare) / rounds, 0.0)


# -- counters taken at the same boundaries as the spans ------------------


def _arg(fn, args, kwargs, name):
    return inspect.signature(fn).bind(*args, **kwargs).arguments[name]


def _free_factor(tracer, fn, args, kwargs, result):
    if result:
        tracer.count("extensions.is_free_factor.true")


def _from_generators(tracer, fn, args, kwargs, result):
    if tracer.is_active("extensions.is_free_factor"):
        tracer.count("extensions.whitehead_states")


def _quotients(tracer, fn, args, kwargs, result):
    tracer.count("stallings.quotients.graphs", len(result))
    tracer.count("stallings.quotients.partitions", bell(_arg(fn, args, kwargs, "H").num_vertices))


def _algebraic_extensions(tracer, fn, args, kwargs, result):
    tracer.count("extensions.algebraic_extensions.nodes", len(result.nodes))
    tracer.count("extensions.algebraic_extensions.ff_pairs", len(result.ff_marks))


def _phi_exact(tracer, fn, args, kwargs, result):
    gens = _arg(fn, args, kwargs, "H_gens")
    tracer.count("measures.phi_exact.hom_tuples", sn_tuples(gens, _arg(fn, args, kwargs, "N")))


def _monte_carlo(tracer, fn, args, kwargs, result):
    tracer.count("measures.trw_monte_carlo.samples", _arg(fn, args, kwargs, "samples"))


def _derive_r(tracer, fn, args, kwargs, result):
    tracer.count("mobius.derive_R.phi_terms", len(result.values))


def _word_measure(tracer, fn, args, kwargs, result):
    tuples = group_tuples(_arg(fn, args, kwargs, "w"), _arg(fn, args, kwargs, "group"))
    tracer.count("measures.word_measure_exact.hom_tuples", tuples)


def _compare(tracer, fn, args, kwargs, result):
    group = _arg(fn, args, kwargs, "group")
    tuples = sum(group_tuples(_arg(fn, args, kwargs, w), group) for w in ("w1", "w2"))
    tracer.count("measures.compare_measures.hom_tuples", tuples)


def _epi_image(tracer, fn, args, kwargs, result):
    w, G = _arg(fn, args, kwargs, "w"), _arg(fn, args, kwargs, "G")
    tracer.count("measures.epi_image.hom_tuples", G.order**w.ambient_rank)


HOOKS = {
    "extensions.is_free_factor": _free_factor,
    "stallings.from_generators": _from_generators,
    "stallings.quotients": _quotients,
    "extensions.algebraic_extensions": _algebraic_extensions,
    "measures.phi_exact": _phi_exact,
    "measures.trw_monte_carlo": _monte_carlo,
    "mobius.derive_R": _derive_r,
    "measures.word_measure_exact": _word_measure,
    "measures.compare_measures": _compare,
    "measures.epi_image": _epi_image,
}
