"""The derivation R over the algebraic-extension poset and the checks
built on it: the expansion of expected fixed points, the strict trace
inequality for non-free-factor substitutions, and the power gap.

R is defined per N by
    Phi_{H,J}(N) = sum over M with H <=_alg M <=_alg J of R_{H,M}(N),
computed bottom-up over the finitely many algebraic extensions of H.
Each Phi_{H,J} is evaluated after identifying J with F_rank(J) through
its graph basis, as a sum over the quotients of H's graph in that basis.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import extensions, measures, stallings
from .errors import HypothesisError
from .extensions import INFINITE_RANK, ExtensionPoset
from .measures import DEFAULT_BUDGET, trw_exact
from .stallings import CoreGraph
from .words import Word, maximal_root, substitute


@dataclass
class DerivationTable:
    base: CoreGraph
    poset: ExtensionPoset
    N: int
    values: dict[int, Fraction]  # poset node index -> R_{H,node}(N)
    phi: dict[int, Fraction]  # poset node index -> Phi_{H,node}(N)


def _phi_of_node(H: CoreGraph, J: CoreGraph, N: int, budget: int) -> Fraction:
    gens = [stallings.rewrite_in_basis(J, b) for b in stallings.basis(H)]
    return measures.phi_exact(gens, J.rank, N, budget=budget)


def derive_R(H: CoreGraph, N: int, budget: int = DEFAULT_BUDGET) -> DerivationTable:
    """Compute R_{H,J}(N) for every algebraic extension J of H."""
    poset = extensions.algebraic_extensions(H)
    alg = poset.algebraic_indices()
    below = {j: [i for i in alg if (i, j) in poset.ff_marks] for j in alg}
    values: dict[int, Fraction] = {}
    phis: dict[int, Fraction] = {}
    # topological order by number of algebraic predecessors
    for j in sorted(alg, key=lambda j: len(below[j])):
        phis[j] = _phi_of_node(H, poset.nodes[j], N, budget)
        values[j] = phis[j] - sum((values[i] for i in below[j]), Fraction(0))
    return DerivationTable(H, poset, N, values, phis)


def phi_via_expansion(
    H: CoreGraph,
    ambient_rank: int,
    N: int,
    budget: int = DEFAULT_BUDGET,
) -> Fraction:
    """Phi_{H,F}(N) as the sum of R over all algebraic extensions of H,
    each Phi_{H,J} taken in a basis of J rather than in F_r."""
    if H.ambient_rank > ambient_rank:
        raise ValueError("graph rank exceeds the requested ambient rank")
    table = derive_R(H, N, budget=budget)
    return sum(table.values.values(), Fraction(0))


# ----------------------------------------------------------------------
# Asymptotic fit of the trace expansion
# ----------------------------------------------------------------------


@dataclass
class FitResult:
    pi_estimate: float  # may be math.inf
    c_estimate: float
    residuals: list[float]
    pi_combinatorial: float
    c_combinatorial: int
    traces: list[tuple[int, Fraction]]


def fit_expansion(
    w: Word, N_range: list[int], budget: int = DEFAULT_BUDGET
) -> FitResult:
    """Estimate pi(w) and the leading coefficient from exact traces.

    The exponent comes from successive log-ratios of Tr(N) - 1; the
    coefficient from the largest N (the most asymptotic sample).  Both
    are compared against the combinatorial values from the extension
    poset.
    """
    if len(N_range) < 3:
        raise ValueError("need at least 3 values of N")
    traces = [(N, trw_exact(w, N, budget=budget)) for N in N_range]
    tails = [(N, tr - 1) for N, tr in traces]
    H = stallings.from_generators([w], w.ambient_rank)
    pi_comb, c_comb, _ = extensions.pi_details(H)
    nonzero = [(N, t) for N, t in tails if t != 0]
    if not nonzero:
        return FitResult(INFINITE_RANK, 0.0, [0.0] * len(tails), pi_comb, c_comb, traces)
    slopes = []
    for (N1, t1), (N2, t2) in zip(nonzero, nonzero[1:]):
        slopes.append(
            math.log(abs(float(t2)) / abs(float(t1))) / math.log(N2 / N1)
        )
    pi_est = float(round(1 - (sum(slopes) / len(slopes)))) if slopes else 1.0
    N_last, t_last = nonzero[-1]
    c_est = float(t_last) * N_last ** (pi_est - 1)
    residuals = [float(t) - c_est * N ** (1 - pi_est) for N, t in tails]
    return FitResult(pi_est, c_est, residuals, pi_comb, c_comb, traces)


# ----------------------------------------------------------------------
# Strict trace inequality for non-free-factor substitutions
# ----------------------------------------------------------------------


@dataclass
class InequalityRow:
    N: int
    lhs: Fraction  # Tr_w(N)
    rhs: Fraction  # Tr_{w(u_1..u_k)}(N)
    strict: bool


@dataclass
class InequalityReport:
    word: str
    images: list[str]
    pi_iota: float
    count: int
    rows: list[InequalityRow]

    @property
    def all_strict(self) -> bool:
        return all(row.strict for row in self.rows)


def check_substitution_inequality(
    w: Word,
    images: list[Word],
    N_range: list[int],
    budget: int = DEFAULT_BUDGET,
) -> InequalityReport:
    """Exact both-sides comparison of Tr_w and Tr_{w(u_1..u_k)}.

    Each failed hypothesis is a named HypothesisError, checked in this
    order: the images do not generate a free factor of F_r; then, by
    `extensions.pi_iota`, the images are free and w lies in no proper
    free factor of F_k.
    """
    k = w.ambient_rank
    if len(images) != k:
        raise ValueError(f"expected {k} images, got {len(images)}")
    r = max(im.ambient_rank for im in images)
    U = stallings.from_generators([im.with_rank(r) for im in images], r)
    if extensions.is_free_factor(U, stallings.rose(r)):
        raise HypothesisError(
            "images do not generate a free factor",
            "the substituted word is equivalent to w itself",
        )
    value, count = extensions.pi_iota([w], k, images)
    composed = substitute(w, images)
    rows = []
    for N in N_range:
        lhs = trw_exact(w, N, budget=budget)
        rhs = trw_exact(composed, N, budget=budget)
        rows.append(InequalityRow(N, lhs, rhs, rhs > lhs))
    return InequalityReport(str(w), [str(im) for im in images], value, count, rows)


# ----------------------------------------------------------------------
# Power gap
# ----------------------------------------------------------------------


def divisor_count(d: int) -> int:
    return sum(1 for i in range(1, d + 1) if d % i == 0)


@dataclass
class PowerGapRow:
    N: int
    tr_u: Fraction
    tr_ud: Fraction
    gap: Fraction  # Tr_{u^d} - Tr_u
    deviation: Fraction  # gap - (delta(d) - 1)


@dataclass
class PowerGapReport:
    word: str
    d: int
    delta: int
    rows: list[PowerGapRow]


def check_power_gap(
    u: Word,
    d: int,
    N_range: list[int],
    budget: int = DEFAULT_BUDGET,
) -> PowerGapReport:
    """Tabulate f_u(N) = Tr_{u^d}(N) - Tr_u(N) against delta(|d|) - 1
    (Tr_{u^-d} = Tr_{u^d}); d = 0 is rejected."""
    if d == 0:
        raise ValueError("the power gap needs d != 0")
    if u.is_identity:
        raise HypothesisError("u is a non-power", "u is the identity")
    _, b = maximal_root(u)
    if b != 1:
        raise HypothesisError("u is a non-power", f"u is a proper {b}th power")
    delta = divisor_count(abs(d))
    ud = u**d
    rows = []
    for N in N_range:
        tr_u = trw_exact(u, N, budget=budget)
        tr_ud = trw_exact(ud, N, budget=budget)
        gap = tr_ud - tr_u
        rows.append(PowerGapRow(N, tr_u, tr_ud, gap, gap - (delta - 1)))
    return PowerGapReport(str(u), d, delta, rows)
