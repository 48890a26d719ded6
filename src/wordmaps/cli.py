"""Batch command-line front end.

Every operation of the library is exposed as a subcommand producing a
reproducible CSV, JSON or DOT artifact.  Artifacts are byte-stable for a
fixed input, seed and version: header comments echo the configuration
(excluding --out, which never affects the numbers), and all
exact values are printed as integer numerator/denominator pairs.

The parser is built from one table: a new subcommand is one row of
`COMMANDS` plus one `cmd_*` handler, and each shared argument (`WORD`,
`GENS`, `N`, `BUDGET`, ...) is declared once.  A run builds only the row
its argv names (`main`); `build_parser()` still builds every row.

Exit codes: 0 success; 2 usage or word-syntax error; 3 hypothesis
violation (the named hypothesis is echoed); 4 budget exceeded;
5 internal invariant failure.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from typing import TYPE_CHECKING, NamedTuple

import wordmaps

from .errors import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    HypothesisError,
    InternalInvariantError,
    WordSyntaxError,
)
from .words import cyclic_reduce, maximal_root, parse, parse_list, parse_lists, substitute

# The computing modules are reached as attributes of the package
# (`wordmaps.measures`, ...), which imports each on first use, so that a
# command loads only what it calls; the names below serve annotations only.
if TYPE_CHECKING:
    from collections.abc import Callable
    from fractions import Fraction

    from .stallings import CoreGraph


# ----------------------------------------------------------------------
# Argument helpers
# ----------------------------------------------------------------------


class NRangeError(ValueError, argparse.ArgumentTypeError):
    """A malformed N range; as an ArgumentTypeError, argparse prints its
    message as the reason."""


def parse_n_range(text: str) -> range:
    """Inclusive "a..b", or a single integer, as a range: its size does
    not depend on how many N it holds."""
    lo, dots, hi = text.partition("..")
    try:
        out = range(int(lo), int(hi if dots else lo) + 1)
    except ValueError:
        raise NRangeError(f"invalid N range {text!r}") from None
    if not out:
        raise NRangeError(f"empty N range {text!r}")
    if out[0] < 1:
        raise NRangeError("N must be positive")
    return out


class _Budget(argparse.Action):
    """Stores a --budget, refusing a negative one before any work starts."""

    def __call__(self, parser, namespace, value, option_string=None):
        if value < 0:
            raise argparse.ArgumentError(self, f"budget must be non-negative, got {value}")
        setattr(namespace, self.dest, value)


def parse_group(text: str):
    """"S<k>" for a symmetric group, or "cayley:<path>" for a JSON table."""
    if text.startswith("S") and text[1:].isdigit():
        n = int(text[1:])
        if n < 1:
            raise ValueError(f"symmetric group degree must be positive in {text!r}")
        return n
    if text.startswith("cayley:"):
        path = text[len("cayley:") :]
        try:
            with open(path) as fh:
                data = json.load(fh)
        except OSError as e:
            raise ValueError(f"cannot read Cayley table {path!r}: {e.strerror}") from None
        return wordmaps.measures.FiniteGroupTable.from_json_dict(data)
    raise ValueError(f"unrecognized group specifier {text!r}")


def _dec(x: Fraction) -> str:
    return f"{float(x):.15g}"


def _frac_fields(x: Fraction) -> list:
    return [x.numerator, x.denominator, _dec(x)]


def _pi_json(value: float):
    return "infinity" if value == math.inf else int(value)


# ----------------------------------------------------------------------
# Artifact emission
# ----------------------------------------------------------------------

_CONFIG_SKIP = {"out", "func", "command", "subcommand"}


def _config_echo(args: argparse.Namespace) -> str:
    items = sorted(
        (k, v) for k, v in vars(args).items() if k not in _CONFIG_SKIP and v is not None
    )
    # an N range echoes as the list of its values
    return " ".join(f"{k}={list(v) if isinstance(v, range) else v}" for k, v in items)


def _emit(args, text: str, summary: str):
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text)
        print(summary)
        print(f"wrote {args.out}")
    else:
        print(summary)
        sys.stdout.write(text)


def emit_csv(args, columns: list[str], rows: list[list]):
    lines = [
        f"# version={wordmaps.__version__}",
        f"# command={args.command} {args.subcommand}",
        f"# config={_config_echo(args)}",
        f"# seed={getattr(args, 'seed', None)}",
        ",".join(columns),
    ]
    lines += [",".join(str(c) for c in row) for row in rows]
    text = "\n".join(lines) + "\n"
    _emit(args, text, f"{args.command} {args.subcommand}: {len(rows)} row(s)")


def emit_per_n(args, value):
    """The CSV of one exact rational value(N) per N of --n."""
    rows = [[N] + _frac_fields(value(N)) for N in args.n]
    emit_csv(args, ["N", "numerator", "denominator", "decimal"], rows)


def emit_json(args, obj, summary: str | None = None):
    meta = {
        "version": wordmaps.__version__,
        "command": f"{args.command} {args.subcommand}",
        "config": _config_echo(args),
        "seed": getattr(args, "seed", None),
    }
    text = json.dumps({"meta": meta, "result": obj}, indent=2, sort_keys=True) + "\n"
    _emit(args, text, summary or f"{args.command} {args.subcommand}")


def emit_dot(args, text: str):
    _emit(args, text, f"{args.command} {args.subcommand}: DOT graph")


# ----------------------------------------------------------------------
# word subcommands
# ----------------------------------------------------------------------


def cmd_word_parse(args):
    w = parse(args.word, args.rank)
    emit_json(
        args,
        {"input": args.word, "word": str(w), "rank": w.ambient_rank, "length": len(w)},
        f"{w} (rank {w.ambient_rank}, length {len(w)})",
    )


def cmd_word_reduce(args):
    w = parse(args.word, args.rank)
    core, conj = cyclic_reduce(w)
    emit_json(
        args,
        {
            "reduced": str(w),
            "cyclic_core": str(core),
            "conjugator": str(conj),
        },
        f"reduced: {w}; cyclic core: {core}",
    )


def cmd_word_root(args):
    w = parse(args.word, args.rank)
    u, b = maximal_root(w)
    emit_json(args, {"root": str(u), "exponent": b}, f"{w} = ({u})^{b}")


def cmd_word_substitute(args):
    w = parse(args.word, args.rank)
    images = parse_list(args.images, args.image_rank)
    result = substitute(w, images)
    emit_json(args, {"result": str(result)}, f"image: {result}")


# ----------------------------------------------------------------------
# graph subcommands
# ----------------------------------------------------------------------


def _graph_from_args(args) -> CoreGraph:
    gens = parse_list(args.gens, args.rank)
    rank = args.rank or max(g.ambient_rank for g in gens)
    return wordmaps.stallings.from_generators([g.with_rank(rank) for g in gens], rank)


def cmd_graph_fold(args):
    g = _graph_from_args(args)
    if args.format == "dot":
        emit_dot(args, wordmaps.stallings.to_dot(g))
        return
    emit_json(
        args,
        {
            "vertices": g.num_vertices,
            "edges": sorted(g.edges),
            "rank": g.rank,
            "basis": [str(b) for b in wordmaps.stallings.basis(g)],
        },
        f"core graph: {g.num_vertices} vertices, {len(g.edges)} edges, rank {g.rank}",
    )


def cmd_graph_export(args):
    emit_dot(args, wordmaps.stallings.to_dot(_graph_from_args(args)))


# ----------------------------------------------------------------------
# ext subcommands
# ----------------------------------------------------------------------


def cmd_ext_ae(args):
    poset = wordmaps.extensions.algebraic_extensions(_graph_from_args(args))
    if args.format == "dot":
        emit_dot(args, poset.to_dot())
        return
    _emit(
        args,
        poset.to_json() + "\n",
        f"{len(poset.algebraic_indices())} algebraic extension(s) "
        f"among {len(poset.nodes)} quotient(s)",
    )


def cmd_ext_pi(args):
    w = parse(args.word, args.rank)
    H = wordmaps.stallings.from_generators([w], w.ambient_rank)
    value, count, winners = wordmaps.extensions.pi_details(H)
    emit_json(
        args,
        {
            "pi": _pi_json(value),
            "C": count,
            "extensions": [[str(b) for b in wordmaps.stallings.basis(g)] for g in winners],
        },
        f"pi = {_pi_json(value)}, C = {count}",
    )


def cmd_ext_pi_iota(args):
    gens = parse_list(args.gens, args.rank)
    images = parse_list(args.images, args.image_rank)
    value, count = wordmaps.extensions.pi_iota(gens, args.rank, images)
    emit_json(
        args,
        {"pi_iota": _pi_json(value), "C": count},
        f"pi_iota = {_pi_json(value)}, C = {count}",
    )


def cmd_ext_ff_closure(args):
    texts = [args.gens, args.in_gens] if args.in_gens else [args.gens]
    H_gens, *J_gens = parse_lists(texts, args.rank)
    rank = H_gens[0].ambient_rank
    stallings = wordmaps.stallings
    H = stallings.from_generators(H_gens, rank)
    J = stallings.from_generators(J_gens[0], rank) if J_gens else stallings.rose(rank)
    A = wordmaps.extensions.ff_closure(H, J)
    basis = [str(b) for b in stallings.basis(A)]
    emit_json(
        args,
        {"rank": A.rank, "basis": basis},
        f"free-factor closure: <{', '.join(basis) or '1'}> (rank {A.rank})",
    )


# ----------------------------------------------------------------------
# measure subcommands
# ----------------------------------------------------------------------


def cmd_measure_trw(args):
    w = parse(args.word, args.rank)
    if args.mc:
        rows = []
        for N in args.n:
            mean, err = wordmaps.measures.trw_monte_carlo(
                w, N, args.samples, args.seed, args.budget
            )
            rows.append([N, f"{mean:.15g}", f"{err:.15g}"])
        emit_csv(args, ["N", "estimate", "stderr"], rows)
        return
    emit_per_n(args, lambda N: wordmaps.measures.trw_exact(w, N, budget=args.budget))


def cmd_measure_phi(args):
    gens = parse_list(args.gens, args.rank)
    emit_per_n(args, lambda N: wordmaps.measures.phi_exact(gens, args.rank, N, budget=args.budget))


def cmd_measure_table(args):
    w = parse(args.word, args.rank)
    group = parse_group(args.group)
    table = wordmaps.measures.word_measure_exact(w, group, budget=args.budget)
    label = wordmaps.measures.as_group(group).class_label
    rows = [[f'"{label(key)}"'] + _frac_fields(p) for key, p in table.support]
    emit_csv(args, ["class", "numerator", "denominator", "decimal"], rows)


def cmd_measure_compare(args):
    w1 = parse(args.w1, args.rank)
    w2 = parse(args.w2, args.rank)
    group = parse_group(args.group)
    cmp = wordmaps.measures.compare_measures(w1, w2, group, budget=args.budget)
    obj = {"equal": cmp.equal}
    if not cmp.equal:
        obj |= {
            "witness_class": wordmaps.measures.as_group(group).class_label(cmp.witness_class),
            "prob1": str(cmp.prob1),
            "prob2": str(cmp.prob2),
        }
    emit_json(args, obj, "verdict: " + ("equal" if cmp.equal else "unequal"))


def cmd_measure_epiim(args):
    w = parse(args.word, args.rank)
    group = parse_group(args.group)
    if not isinstance(group, wordmaps.measures.FiniteGroupTable):
        raise ValueError("epiim requires a cayley:<path> group")
    image = sorted(wordmaps.measures.epi_image(w, group, budget=args.budget))
    emit_json(
        args,
        {"image": [group.name_of(a) for a in image], "count": len(image)},
        f"image of the word under surjections: {len(image)} element(s)",
    )


# ----------------------------------------------------------------------
# mobius subcommands
# ----------------------------------------------------------------------


def cmd_mobius_derive(args):
    if len(args.n) != 1:
        raise ValueError("mobius derive takes a single N, not a range")
    H = _graph_from_args(args)
    table = wordmaps.mobius.derive_R(H, args.n[0], budget=args.budget)
    rows = []
    for i in sorted(table.values):
        g = table.poset.nodes[i]
        basis = ".".join(str(b) for b in wordmaps.stallings.basis(g)) or "1"
        rows.append(
            [f'"{basis}"', g.rank]
            + _frac_fields(table.phi[i])
            + _frac_fields(table.values[i])
        )
    emit_csv(
        args,
        ["extension", "rank", "phi_num", "phi_den", "phi", "R_num", "R_den", "R"],
        rows,
    )


def cmd_mobius_via_expansion(args):
    H = _graph_from_args(args)
    rank = args.rank or H.ambient_rank
    emit_per_n(args, lambda N: wordmaps.mobius.phi_via_expansion(H, rank, N, budget=args.budget))


def cmd_mobius_fit(args):
    w = parse(args.word, args.rank)
    fit = wordmaps.mobius.fit_expansion(w, args.n, budget=args.budget)
    emit_json(
        args,
        {
            "pi_estimate": _pi_json(fit.pi_estimate),
            "c_estimate": fit.c_estimate,
            "pi_combinatorial": _pi_json(fit.pi_combinatorial),
            "c_combinatorial": fit.c_combinatorial,
            "residuals": fit.residuals,
            "traces": [[N, str(t)] for N, t in fit.traces],
        },
        f"pi ~ {_pi_json(fit.pi_estimate)}, leading coefficient ~ {fit.c_estimate:.4g}",
    )


def cmd_mobius_inequality(args):
    w = parse(args.word, args.rank)
    images = parse_list(args.images, args.image_rank)
    report = wordmaps.mobius.check_substitution_inequality(w, images, args.n, budget=args.budget)
    if args.format == "json":
        emit_json(
            args,
            {
                "pi_iota": _pi_json(report.pi_iota),
                "C": report.count,
                "all_strict": report.all_strict,
                "rows": [
                    {"N": r.N, "lhs": str(r.lhs), "rhs": str(r.rhs), "strict": r.strict}
                    for r in report.rows
                ],
            },
            f"strict at every N: {report.all_strict}",
        )
        return
    rows = [
        [r.N, r.lhs.numerator, r.lhs.denominator, r.rhs.numerator, r.rhs.denominator,
         "strict" if r.strict else "NOT-STRICT"]
        for r in report.rows
    ]
    emit_csv(args, ["N", "lhs_num", "lhs_den", "rhs_num", "rhs_den", "verdict"], rows)


def cmd_mobius_power_gap(args):
    u = parse(args.word, args.rank)
    report = wordmaps.mobius.check_power_gap(u, args.d, args.n, budget=args.budget)
    rows = [
        [r.N, r.gap.numerator, r.gap.denominator, report.delta - 1,
         r.deviation.numerator, r.deviation.denominator]
        for r in report.rows
    ]
    emit_csv(
        args,
        ["N", "gap_num", "gap_den", "expected", "dev_num", "dev_den"],
        rows,
    )


# ----------------------------------------------------------------------
# perm subcommands
# ----------------------------------------------------------------------


def cmd_perm_cycle_type(args):
    p = wordmaps.perm_powers.parse_cycles(args.perm, args.degree)
    ct = wordmaps.perm_powers.cycle_type(p)
    emit_json(
        args,
        {"degree": ct.degree, "cycle_type": str(ct)},
        f"cycle type: {ct}",
    )


def cmd_perm_is_power(args):
    p = wordmaps.perm_powers.parse_cycles(args.perm, args.degree)
    ok = wordmaps.perm_powers.is_dth_power(p, args.d)
    emit_json(args, {"is_power": ok}, f"is a {args.d}th power: {ok}")


def cmd_perm_root(args):
    p = wordmaps.perm_powers.parse_cycles(args.perm, args.degree)
    root = wordmaps.perm_powers.dth_root(p, args.d)
    emit_json(
        args,
        {"root": wordmaps.perm_powers.format_cycles(root) if root is not None else None},
        "no root" if root is None else f"root: {wordmaps.perm_powers.format_cycles(root)}",
    )


def cmd_perm_moments(args):
    rows = []
    for N in args.n:
        first, second = wordmaps.perm_powers.moments_exact(args.b, args.t, N)
        rows.append([N] + _frac_fields(first) + _frac_fields(second))
    emit_csv(
        args,
        ["N", "first_num", "first_den", "first", "second_num", "second_den", "second"],
        rows,
    )


def cmd_perm_obstruction(args):
    w = parse(args.word, args.rank)
    verdict = wordmaps.perm_powers.word_power_obstruction(
        w, args.d, args.n, sample_budget=args.sample_budget, seed=args.seed
    )
    obj = {
        "word": verdict.word,
        "d": verdict.d,
        "witness_degree": verdict.witness_degree,
        "witness": [wordmaps.perm_powers.format_cycles(p) for p in verdict.witness_tuple]
        if verdict.witness_tuple
        else None,
        "is_power_in_free_group": verdict.is_power_in_free_group,
        "conclusive": verdict.conclusive,
    }
    summary = (
        f"witness at N = {verdict.witness_degree}"
        if verdict.conclusive
        else "no witness found (inconclusive)"
    )
    emit_json(args, obj, summary)


# ----------------------------------------------------------------------
# The command table
# ----------------------------------------------------------------------


def _arg(flag: str, **kwargs) -> tuple[str, dict]:
    """One argument spec: the option string and its add_argument keywords."""
    return flag, kwargs


WORD = _arg("--word", required=True)
RANK = _arg("--rank", type=int)
RANK_REQUIRED = _arg("--rank", type=int, required=True)
GENS = _arg("--gens", required=True, help="comma-separated generator words")
N = _arg("--n", required=True, type=parse_n_range, help='N or inclusive range "a..b"')
IMAGES = _arg("--images", required=True, help="comma-separated image words")
IMAGE_RANK = _arg("--image-rank", type=int)
GROUP = _arg("--group", required=True, help='"S<k>" or "cayley:<path>"')
PERM = _arg("--perm", required=True, help='cycle notation, e.g. "(1 2 3)(4 5)"')
DEGREE = _arg("--degree", type=int, required=True)
D = _arg("--d", type=int, required=True)
BUDGET = _arg("--budget", type=int, default=DEFAULT_BUDGET, action=_Budget,
              help="cap: Tr/Phi quotient-search steps, or Hom tuples x word length")
OUT = _arg("--out", help="write the artifact to this file")

GROUPS = {
    "word": "parse and transform words",
    "graph": "folded core graphs of finitely generated subgroups",
    "ext": "algebraic extensions and primitivity ranks",
    "measure": "exact and sampled word measures",
    "mobius": "derivation of the joint-fixed-point functional over the "
    "algebraic-extension poset",
    "perm": "cycle statistics and d-th powers of permutations",
}


class Command(NamedTuple):
    """One subcommand: its arguments come before --out, then --format if
    `formats` lists choices (the first is the default).  A list among
    `args` is a mutually exclusive group."""

    group: str
    name: str
    help: str
    args: list
    handler: Callable
    formats: list[str] | None = None


COMMANDS = [
    Command("word", "parse", "parse a word literal and freely reduce it", [WORD, RANK],
            cmd_word_parse),
    Command("word", "reduce", "free and cyclic reduction", [WORD, RANK], cmd_word_reduce),
    Command("word", "root", "maximal root: write w = u^b with b maximal", [WORD, RANK],
            cmd_word_root),
    Command("word", "substitute", "apply x_i -> u_i to a word",
            [WORD, RANK, IMAGES, IMAGE_RANK], cmd_word_substitute),
    Command("graph", "fold", "fold the wedge of generator loops", [GENS, RANK],
            cmd_graph_fold, ["json", "dot"]),
    Command("graph", "export", "DOT rendering of the folded core graph", [GENS, RANK],
            cmd_graph_export),
    Command("ext", "ae", "enumerate the algebraic extensions of a subgroup", [GENS, RANK],
            cmd_ext_ae, ["json", "dot"]),
    Command("ext", "pi", "smallest rank of a proper algebraic extension of <w> "
            "(infinite iff w is primitive), with the number C attaining it",
            [WORD, RANK], cmd_ext_pi),
    Command("ext", "pi-iota", "relative version under a substitution x_i -> u_i: smallest "
            "rank of an algebraic extension of the image escaping the image subgroup",
            [GENS, RANK_REQUIRED, IMAGES, IMAGE_RANK], cmd_ext_pi_iota),
    Command("ext", "ff-closure", "the smallest free factor of the ambient subgroup "
            "containing H",
            [GENS, RANK, _arg("--in-gens", help="generators of the ambient subgroup J "
                              "(default: all of F_r)")], cmd_ext_ff_closure),
    Command("measure", "trw", "expected number of fixed points of the image of w under a "
            "uniform random homomorphism to S_N",
            [WORD, RANK, N, [_arg("--exact", action="store_true", default=True),
                             _arg("--mc", action="store_true", default=False)],
             _arg("--samples", type=int), _arg("--seed"), BUDGET], cmd_measure_trw),
    Command("measure", "phi", "expected number of common fixed points of the images of the "
            "generators of H under a uniform random homomorphism to S_N",
            [GENS, RANK_REQUIRED, N, BUDGET], cmd_measure_phi),
    Command("measure", "table", "exact class-aggregated distribution of the image of w",
            [WORD, RANK, GROUP, BUDGET], cmd_measure_table),
    Command("measure", "compare", "exact equality test of two word measures, with witness",
            [_arg("--w1", required=True), _arg("--w2", required=True), RANK, GROUP,
             _arg("--exact", action="store_true", default=True,
                  help="exact enumeration (the only mode for comparison)"), BUDGET],
            cmd_measure_compare),
    Command("measure", "epiim", "set of values of w over surjective homomorphisms only",
            [WORD, RANK, GROUP, BUDGET], cmd_measure_epiim),
    Command("mobius", "derive", "R values of every algebraic extension of H at one N",
            [GENS, RANK, N, BUDGET], cmd_mobius_derive),
    Command("mobius", "via-expansion", "reconstruct the ambient expected-fixed-point value "
            "as the sum of R over all algebraic extensions",
            [GENS, RANK, N, BUDGET], cmd_mobius_via_expansion),
    Command("mobius", "fit", "fit the 1 + C N^(1-pi) expansion of the expected fixed points "
            "of w and compare with the combinatorial pi and C",
            [WORD, RANK, N, BUDGET], cmd_mobius_fit),
    Command("mobius", "inequality", "strict increase of the expected fixed points under a "
            "substitution whose images do not generate a free factor; the hypothesis "
            "validator rejects words lying in a proper free factor",
            [WORD, RANK, IMAGES, IMAGE_RANK, N, BUDGET], cmd_mobius_inequality,
            ["csv", "json"]),
    Command("mobius", "power-gap", "gap between the expected fixed points of u^d and of u, "
            "against the number of divisors of |d| minus one (d != 0)",
            [WORD, RANK, D, N, BUDGET], cmd_mobius_power_gap),
    Command("perm", "cycle-type", "cycle type of a permutation", [PERM, DEGREE],
            cmd_perm_cycle_type),
    Command("perm", "is-power", "d-th power test: for every cycle length t, the number of "
            "t-cycles must be divisible by the product over primes p | t of p^(v_p(d))",
            [PERM, DEGREE, D], cmd_perm_is_power),
    Command("perm", "root", "construct a d-th root, or report none", [PERM, DEGREE, D],
            cmd_perm_root),
    Command("perm", "moments", "exact first and second moments of the number of t-cycles "
            "of sigma^b for uniform sigma in S_N",
            [_arg("--b", type=int, required=True), _arg("--t", type=int, required=True), N],
            cmd_perm_moments),
    Command("perm", "obstruction", "search homomorphisms to S_N for an image of w that is "
            "not a d-th power; a witness proves w is not one",
            [WORD, RANK, D, N, _arg("--sample-budget", type=int, default=10_000),
             _arg("--seed", required=True)], cmd_perm_obstruction),
]


def _add(parser, spec):
    if isinstance(spec, list):
        group = parser.add_mutually_exclusive_group()
        for member in spec:
            _add(group, member)
    else:
        flag, kwargs = spec
        parser.add_argument(flag, **kwargs)


def build_parser(commands: list[Command] = COMMANDS) -> argparse.ArgumentParser:
    """The parser of the six groups, holding the subparsers of `commands`
    (by default every row of the table)."""
    ap = argparse.ArgumentParser(
        prog="wordmaps",
        description="Exact word measures on symmetric and finite groups, "
        "algebraic-extension posets, and the d-th power calculus of permutations.",
    )
    ap.add_argument("--version", action="version", version=wordmaps.__version__)
    top = ap.add_subparsers(dest="command", required=True)
    groups = {
        name: top.add_parser(name, help=text).add_subparsers(dest="subcommand", required=True)
        for name, text in GROUPS.items()
    }
    for cmd in commands:
        p = groups[cmd.group].add_parser(cmd.name, help=cmd.help)
        specs = [*cmd.args, OUT]
        if cmd.formats:
            specs.append(_arg("--format", choices=cmd.formats, default=cmd.formats[0]))
        for spec in specs:
            _add(p, spec)
        p.set_defaults(func=cmd.handler)
    return ap


def _validate(args):
    if getattr(args, "mc", False):
        if args.samples is None or args.seed is None:
            raise ValueError("--mc requires both --samples and --seed")
    elif hasattr(args, "mc"):
        if args.samples is not None or args.seed is not None:
            raise ValueError("--samples/--seed are only valid with --mc")


def main(argv: list[str] | None = None) -> int:
    """Run the command argv names (by default sys.argv[1:]).  When its
    first two words name a command, the parser holds only that command's
    subparser: the help, usage errors and parse are those of the full
    parser, since argparse reads no other subparser, and every group
    stays for the top-level usage line.  Any other argv gets the full
    parser."""
    argv = list(sys.argv[1:] if argv is None else argv)
    named = [cmd for cmd in COMMANDS if [cmd.group, cmd.name] == argv[:2]]
    ap = build_parser(named or COMMANDS)
    try:
        try:
            args = ap.parse_args(argv)
        except SystemExit as e:  # argparse usage errors / --help
            return int(e.code or 0)
        _validate(args)
        args.func(args)
        return 0
    except WordSyntaxError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except HypothesisError as e:
        print(f"hypothesis violated: {e.hypothesis} -- {e.detail}", file=sys.stderr)
        return 3
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except BudgetExceededError as e:
        print(f"budget exceeded: {e}", file=sys.stderr)
        return 4
    except InternalInvariantError as e:
        print(f"internal invariant failure: {e}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
