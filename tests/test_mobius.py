from fractions import Fraction

import pytest

from wordmaps import extensions, mobius, stallings
from wordmaps.errors import HypothesisError
from wordmaps.extensions import INFINITE_RANK
from wordmaps.measures import phi_exact
from wordmaps.stallings import from_generators
from wordmaps.words import parse


def graph(gens, rank):
    return from_generators([parse(g, rank) for g in gens], rank)


# -- derivation -------------------------------------------------------


def test_derive_single_node_for_primitive():
    table = mobius.derive_R(graph(["a"], 1), 4)
    # <a> = F_1 is its own only algebraic extension; R = Phi = 1
    assert list(table.values.values()) == [Fraction(1)]


def test_derive_splits_power():
    H = graph(["a^2"], 1)
    table = mobius.derive_R(H, 5)
    # Phi_{H,H} = 1 (the generator itself), Phi_{H,F_1} = 2 -> R at top = 1
    vals = {
        tuple(str(b) for b in stallings.basis(table.poset.nodes[i])): v
        for i, v in table.values.items()
    }
    assert vals == {("aa",): Fraction(1), ("a",): Fraction(1)}


def test_derive_commutator_top_value():
    H = graph(["[a,b]"], 2)
    table = mobius.derive_R(H, 4)
    vals = {
        tuple(str(b) for b in stallings.basis(table.poset.nodes[i])): v
        for i, v in table.values.items()
    }
    assert vals[("baBA",)] == 1
    assert vals[("a", "b")] == Fraction(4, 3) - 1


# -- expansion equality -----------------------------------------------

CORPUS = [
    (["a"], 1),
    (["a^2"], 1),
    (["a^3"], 1),
    (["[a,b]"], 2),
    (["a^2", "ab"], 2),
]


@pytest.mark.parametrize("gens,rank", CORPUS)
@pytest.mark.parametrize("N", [3, 4, 5])
def test_phi_via_expansion_matches_exact(gens, rank, N):
    H = graph(gens, rank)
    words = [parse(g, rank) for g in gens]
    assert mobius.phi_via_expansion(H, rank, N) == phi_exact(words, rank, N)


# -- fit --------------------------------------------------------------


def test_fit_commutator():
    fit = mobius.fit_expansion(parse("[a,b]", 2), [4, 5, 6, 7])
    assert fit.pi_estimate == 2
    assert fit.pi_combinatorial == 2 and fit.c_combinatorial == 1
    assert abs(fit.c_estimate - 1) <= 0.2


def test_fit_primitive_reports_infinite():
    fit = mobius.fit_expansion(parse("ab", 2), [3, 4, 5])
    assert fit.pi_estimate == INFINITE_RANK
    assert fit.pi_combinatorial == INFINITE_RANK


def test_fit_of_the_trivial_word_agrees_with_pi_zero():
    fit = mobius.fit_expansion(parse("1", 1), [3, 4, 5, 6])
    assert fit.pi_estimate == fit.pi_combinatorial == 0
    assert fit.c_combinatorial == 1


def test_fit_needs_three_points():
    with pytest.raises(ValueError):
        mobius.fit_expansion(parse("[a,b]", 2), [4, 5])


# -- strict inequality ------------------------------------------------


def test_inequality_commutator_squared_generator():
    rep = mobius.check_substitution_inequality(
        parse("[a,b]", 2), [parse("a^2", 2), parse("b", 2)], [5, 6]
    )
    assert rep.all_strict
    assert rep.pi_iota == 2 and rep.count == 3


def test_inequality_rank_one():
    rep = mobius.check_substitution_inequality(parse("a", 1), [parse("a^2", 1)], [2, 3])
    assert rep.all_strict
    assert [(r.lhs, r.rhs) for r in rep.rows] == [(1, 2), (1, 2)]


def test_inequality_rejects_primitive_word():
    for n in (2, 3):
        with pytest.raises(HypothesisError) as exc:
            mobius.check_substitution_inequality(
                parse("ab", 2), [parse(f"a^{n}", 2), parse("b", 2)], [3]
            )
        assert "free factor" in exc.value.hypothesis


def test_inequality_rejects_free_factor_images():
    with pytest.raises(HypothesisError):
        mobius.check_substitution_inequality(
            parse("[a,b]", 2), [parse("a", 2), parse("b", 2)], [3]
        )


def test_inequality_rejects_non_free_images():
    with pytest.raises(HypothesisError):
        mobius.check_substitution_inequality(
            parse("[a,b]", 2), [parse("a", 1), parse("a^2", 1)], [3]
        )


def test_inequality_decides_the_word_hypothesis_once(monkeypatch):
    calls = []
    decide = extensions.is_algebraic_in_ambient

    def counted(H, k):
        calls.append(k)
        return decide(H, k)

    monkeypatch.setattr(extensions, "is_algebraic_in_ambient", counted)
    images = [parse("a^2", 2), parse("b", 2)]
    mobius.check_substitution_inequality(parse("[a,b]", 2), images, [3])
    assert calls == [2]
    calls.clear()
    with pytest.raises(HypothesisError):
        mobius.check_substitution_inequality(parse("ab", 2), images, [3])
    assert calls == [2]


# -- power gap --------------------------------------------------------


@pytest.mark.parametrize("d", [2, 3, 4])
def test_power_gap_flat(d):
    rep = mobius.check_power_gap(parse("a", 1), d, list(range(d, 8)))
    assert all(row.deviation == 0 for row in rep.rows)


def test_power_gap_rejects_proper_power():
    with pytest.raises(HypothesisError):
        mobius.check_power_gap(parse("a^2", 1), 2, [3])


def test_power_gap_at_negative_d_matches_positive_d():
    rep = mobius.check_power_gap(parse("a", 1), -3, list(range(3, 8)))
    assert rep.delta == 2 and all(row.deviation == 0 for row in rep.rows)


def test_power_gap_rejects_d_zero():
    with pytest.raises(ValueError, match="d != 0"):
        mobius.check_power_gap(parse("a", 1), 0, [3])


def test_divisor_count():
    assert [mobius.divisor_count(d) for d in (1, 2, 3, 4, 6, 12)] == [1, 2, 2, 3, 4, 6]


# -- value classes ----------------------------------------------------


# each record class, its fields in constructor order and its dataclass-format repr
RECORDS = [
    (mobius.DerivationTable, {"poset": None, "values": {0: Fraction(1)}, "phi": {}},
     "DerivationTable(poset=None, values={0: Fraction(1, 1)}, phi={})"),
    (mobius.FitResult, {"pi_estimate": 2.0, "c_estimate": 1.0, "residuals": [0.0],
                        "pi_combinatorial": 2, "c_combinatorial": 1, "traces": [(3, 1)]},
     "FitResult(pi_estimate=2.0, c_estimate=1.0, residuals=[0.0], pi_combinatorial=2, "
     "c_combinatorial=1, traces=[(3, 1)])"),
    (mobius.InequalityRow, {"N": 3, "lhs": 1, "rhs": 2, "strict": True},
     "InequalityRow(N=3, lhs=1, rhs=2, strict=True)"),
    (mobius.InequalityReport, {"word": "a", "images": ["b"], "pi_iota": 2, "count": 1,
                               "rows": []},
     "InequalityReport(word='a', images=['b'], pi_iota=2, count=1, rows=[])"),
    (mobius.PowerGapRow, {"N": 3, "tr_u": 1, "tr_ud": 2, "gap": 1, "deviation": 0},
     "PowerGapRow(N=3, tr_u=1, tr_ud=2, gap=1, deviation=0)"),
    (mobius.PowerGapReport, {"word": "a", "d": 2, "delta": 2, "rows": []},
     "PowerGapReport(word='a', d=2, delta=2, rows=[])"),
]


@pytest.mark.parametrize("cls, fields, text", RECORDS, ids=[cls.__name__ for cls, _, _ in RECORDS])
def test_records_keep_their_dataclass_contract(cls, fields, text):
    record = cls(*fields.values())
    assert repr(record) == text
    assert record == cls(**fields)
    assert [getattr(record, name) for name in fields] == list(fields.values())
