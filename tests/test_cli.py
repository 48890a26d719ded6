import json
import shlex
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from wordmaps import cli, perm_powers
from wordmaps.measures import FiniteGroupTable


def run(capsys, *argv):
    rc = cli.main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


# -- helpers ----------------------------------------------------------


def test_parse_n_range():
    assert list(cli.parse_n_range("3..6")) == [3, 4, 5, 6]
    assert list(cli.parse_n_range("4")) == [4]
    with pytest.raises(ValueError):
        cli.parse_n_range("5..3")
    with pytest.raises(ValueError):
        cli.parse_n_range("0")
    with pytest.raises(ValueError, match="positive"):
        cli.parse_n_range("0..3")


def test_parse_n_range_does_not_build_the_range():
    # a list of 10^9 ints would take about 40 GB
    tracemalloc.start()
    try:
        n_range = cli.parse_n_range("1..1000000000")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert (len(n_range), n_range[0], n_range[-1]) == (10**9, 1, 10**9)


def test_parse_group_symmetric():
    assert cli.parse_group("S5") == 5
    with pytest.raises(ValueError):
        cli.parse_group("D4")


@pytest.mark.parametrize(
    "argv,message",
    [
        (["measure", "table", "--word", "x", "--group", "S0"], "degree must be positive"),
        (["measure", "table", "--word", "x", "--group", "S00"], "degree must be positive"),
        (["perm", "obstruction", "--word", "x^2y^2", "--d", "2", "--n", "2..3",
          "--seed", "0", "--sample-budget", "-1"], "sample budget must be non-negative"),
    ],
    ids=["S0", "S00", "negative-sample-budget"],
)
def test_out_of_range_input_exits_2(capsys, argv, message):
    rc, out, err = run(capsys, *argv)
    assert rc == 2 and out == "" and message in err


@pytest.mark.parametrize(
    "argv,reason",
    [
        (["measure", "trw", "--word", "x", "--n", "0"], "argument --n: N must be positive"),
        (["measure", "trw", "--word", "x", "--n", "5..3"], "argument --n: empty N range '5..3'"),
        (["measure", "trw", "--word", "x", "--n", "3.."], "argument --n: invalid N range '3..'"),
        (["measure", "phi", "--gens", "a", "--rank", "1", "--n", "3", "--budget", "-5"],
         "argument --budget: budget must be non-negative, got -5"),
    ],
    ids=["n-zero", "n-empty-range", "n-open-range", "negative-budget"],
)
def test_usage_error_names_its_reason(capsys, argv, reason):
    rc, out, err = run(capsys, *argv)
    assert (rc, out) == (2, "")
    assert err.startswith("usage: ")
    assert err.splitlines()[-1] == f"wordmaps {argv[0]} {argv[1]}: error: {reason}"


def test_budget_zero_refuses_all_work(capsys):
    rc, out, err = run(capsys, "measure", "phi", "--gens", "a", "--rank", "1", "--n", "3",
                       "--budget", "0")
    assert (rc, out) == (4, "")
    assert err == "budget exceeded: quotient search passed the budget 0: 0 steps, 0 quotients\n"


@pytest.mark.parametrize("word,group", [("1", "S5"), ("[a,b]", "S1"), ("aab", "S1"),
                                        ("1", "Z3"), ("[a,b]", "Z3")])
def test_budget_zero_refuses_measure_tables_on_both_kinds_of_group(capsys, tmp_path, word, group):
    if group == "Z3":
        path = tmp_path / "z3.json"
        path.write_text(json.dumps({"order": 3, "table": FiniteGroupTable.cyclic(3).table}))
        group = f"cayley:{path}"
    argv = ["measure", "table", "--word", word, "--group", group, "--budget"]
    rc, out, err = run(capsys, *argv, "0")
    assert (rc, out) == (4, "") and err.startswith("budget exceeded: ")
    # the identity word and a primitive word cost one unit of work
    if word in ("1", "aab"):
        assert run(capsys, *argv, "1")[0] == 0


@pytest.mark.parametrize("word,images", [("ab", "a^2,b"), ("[a,b]", "a^2,a^4")])
def test_pi_iota_and_inequality_name_the_same_hypothesis(capsys, word, images):
    common = ["--rank", "2", "--images", images, "--image-rank", "2"]
    pi_iota = run(capsys, "ext", "pi-iota", "--gens", word, *common)
    inequality = run(capsys, "mobius", "inequality", "--word", word, *common, "--n", "3")
    assert pi_iota == inequality
    rc, out, err = pi_iota
    assert (rc, out) == (3, "") and err.startswith("hypothesis violated: ")


def test_parse_group_cayley(tmp_path):
    G = FiniteGroupTable.cyclic(4)
    path = tmp_path / "z4.json"
    path.write_text(
        json.dumps(
            {"order": 4, "table": [list(r) for r in G.table], "names": list(G.names)}
        )
    )
    loaded = cli.parse_group(f"cayley:{path}")
    assert loaded.table == G.table


# -- subcommands ------------------------------------------------------


def test_word_parse(capsys):
    rc, out, _ = run(capsys, "word", "parse", "--word", "xyXY")
    assert rc == 0
    assert '"word": "abAB"' in out


def test_word_syntax_error_exit_code(capsys):
    rc, _, err = run(capsys, "word", "parse", "--word", "x^")
    assert rc == 2 and "error" in err


def test_trw_csv_golden(capsys, tmp_path):
    out_file = tmp_path / "trw.csv"
    rc, _, _ = run(
        capsys,
        "measure", "trw", "--word", "x^3 y^2", "--n", "3..4", "--exact",
        "--out", str(out_file),
    )
    assert rc == 0
    lines = out_file.read_text().splitlines()
    assert lines[0].startswith("# version=")
    assert lines[4] == "N,numerator,denominator,decimal"
    assert lines[5] == "3,3,2,1.5"
    assert lines[6].startswith("4,4,3,1.3333")


def test_rerun_is_byte_identical(capsys, tmp_path):
    blobs = []
    for name in ("a.json", "b.json"):
        f = tmp_path / name
        rc, _, _ = run(capsys, "ext", "pi", "--word", "[x,y]", "--out", str(f))
        assert rc == 0
        blobs.append(f.read_bytes())
    assert blobs[0] == blobs[1]


def test_ext_pi_json(capsys):
    rc, out, _ = run(capsys, "ext", "pi", "--word", "[x,y]")
    assert rc == 0
    assert '"pi": 2' in out and '"C": 1' in out


def test_ext_pi_primitive_is_infinite(capsys):
    rc, out, _ = run(capsys, "ext", "pi", "--word", "xy")
    assert rc == 0 and '"pi": "infinity"' in out


def test_ext_pi_of_the_trivial_word_is_zero(capsys):
    rc, out, _ = run(capsys, "ext", "pi", "--word", "1", "--rank", "2")
    assert rc == 0 and out.splitlines()[0] == "pi = 0, C = 1"


def test_measure_compare_equal(capsys):
    rc, out, _ = run(
        capsys,
        "measure", "compare", "--w1", "[x,y]", "--w2", "xyxY", "--group", "S4",
        "--exact",
    )
    assert rc == 0 and "verdict: equal" in out


def test_mc_requires_seed(capsys):
    rc, _, err = run(
        capsys, "measure", "trw", "--word", "x", "--n", "3", "--mc", "--samples", "100"
    )
    assert rc == 2 and "--seed" in err


def test_exact_forbids_seed(capsys):
    rc, _, err = run(
        capsys, "measure", "trw", "--word", "x", "--n", "3", "--seed", "1"
    )
    assert rc == 2


def test_mc_runs_with_seed(capsys):
    rc, out, _ = run(
        capsys,
        "measure", "trw", "--word", "x^2", "--n", "3", "--mc",
        "--samples", "200", "--seed", "1",
    )
    assert rc == 0 and "estimate,stderr" in out


def test_hypothesis_exit_code(capsys):
    rc, _, err = run(
        capsys,
        "mobius", "inequality", "--word", "ab", "--rank", "2",
        "--images", "a^2,b", "--image-rank", "2", "--n", "3",
    )
    assert rc == 3 and "free factor" in err


def test_budget_exit_code(capsys):
    rc, _, err = run(
        capsys,
        "measure", "trw", "--word", "[x,y]", "--n", "10", "--budget", "10",
    )
    assert rc == 4 and "budget" in err.lower()


def test_trw_at_large_N_is_answered(capsys):
    rc, out, _ = run(capsys, "measure", "trw", "--word", "[x,y]", "--n", "1000")
    assert rc == 0 and out.splitlines()[-1].startswith("1000,1000,999,")


def test_moments_reject_zero_b_and_nonpositive_t(capsys):
    for b, t in (("0", "2"), ("1", "0"), ("2", "-2")):
        rc, _, err = run(capsys, "perm", "moments", "--b", b, "--t", t, "--n", "4")
        assert rc == 2 and "b != 0 and t >= 1" in err
    # sigma^-1 has the cycle type of sigma
    rc, out, _ = run(capsys, "perm", "moments", "--b", "-1", "--t", "2", "--n", "3..4")
    assert rc == 0 and out.splitlines()[-2:] == ["3,1,2,0.5,1,2,0.5", "4,1,2,0.5,3,4,0.75"]


def test_mobius_derive_rejects_a_range(capsys):
    rc, _, err = run(
        capsys, "mobius", "derive", "--gens", "[a,b]", "--rank", "2", "--n", "3..5"
    )
    assert rc == 2 and "single N" in err


def test_workers_option_is_gone(capsys):
    rc, _, err = run(capsys, "measure", "trw", "--word", "[x,y]", "--n", "3", "--workers", "2")
    assert rc == 2 and "--workers" in err


def test_gens_list_keeps_bracket_commas(capsys):
    rc, out, _ = run(
        capsys, "mobius", "via-expansion", "--gens", "[a,b]", "--rank", "2", "--n", "3..5"
    )
    assert rc == 0
    assert out.splitlines()[-3:] == ["3,3,2,1.5", "4,4,3,1.33333333333333", "5,5,4,1.25"]


def test_word_list_shares_one_letter_map(capsys):
    rc, out, _ = run(capsys, "graph", "fold", "--gens", "a^2,b")
    assert rc == 0 and "rank 2" in out.splitlines()[0]
    rc, out, _ = run(capsys, "word", "substitute", "--word", "[x,y]", "--images", "a^2,b")
    assert rc == 0 and out.splitlines()[0] == "image: aabAAB"


def _readme_examples() -> list[str]:
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return [line for line in text.splitlines() if line.startswith("wordmaps ")]


def test_readme_lists_cli_examples():
    assert len(_readme_examples()) >= 10


@pytest.mark.parametrize("line", _readme_examples())
def test_readme_cli_example_runs(capsys, line):
    argv = shlex.split(line)[1:]
    rc, _, err = run(capsys, *argv)
    assert rc == 0, err


def test_readme_command_reference_lists_every_subcommand():
    # one "group subcommand  summary" line per subcommand, in parser order
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("### Command reference", 1)[1].split("```text\n", 1)[1]
    listed = [tuple(line.split(None, 2)) for line in block.split("```", 1)[0].splitlines()]
    groups = cli.build_parser()._subparsers._group_actions[0].choices
    assert listed == [
        (group, sub.dest, sub.help)
        for group, parser in groups.items()
        for sub in parser._subparsers._group_actions[0]._choices_actions
    ]


GOLDEN = Path(__file__).resolve().parent / "golden"

_GOLDEN_CASES = [
    *(
        (["ext", "ae", "--gens", gens, "--rank", "2", "--format", fmt], f"ae_{name}.{fmt}")
        for gens, name in [("a^2,ab", "a2_ab"), ("[a,b]", "comm_ab"), ("aab", "aab"), ("ABab", "ABab")]
        for fmt in ("json", "dot")
    ),
    # posets that the exhaustive Whitehead search took minutes to build
    *(
        (["ext", "ae", "--gens", gens, "--rank", "2", "--format", "json"], f"ae_{name}.json")
        for gens, name in [("a^2bAb", "a2bAb"), ("a^2b^2a^-1b", "a2b2Ab"), ("a^3b^3", "a3b3"),
                           ("a^2b^2a^2b^-1", "a2b2a2B")]
    ),
    (["ext", "pi", "--word", "[x,y]"], "pi_comm_xy.json"),
    (["ext", "pi", "--word", "a^2b^2"], "pi_a2b2.json"),
    (["ext", "pi", "--word", "a^3b"], "pi_a3b.json"),
    # pi needs only the lowest ranks, under the cap that their posets pass
    (["ext", "pi", "--word", "[a,b]^2"], "pi_comm_ab_squared.json"),
    (["ext", "pi", "--word", "[a,b][a,c]"], "pi_comm_ab_comm_ac.json"),
    # pi_iota decides only the lowest ranks of the image's quotients, where
    # the whole poset of the image stops at the rank cap
    (["ext", "pi-iota", "--gens", "a^3b^3", "--rank", "2", "--images", "a,bab",
      "--image-rank", "2"], "pi_iota_a3b3_under_a_bab.json"),
    (["ext", "pi-iota", "--gens", "[a,b]^2", "--rank", "2", "--images", "a,b^2",
      "--image-rank", "2"], "pi_iota_comm_ab_squared_under_a_b2.json"),
    (["ext", "ff-closure", "--gens", "a^2", "--in-gens", "a^2,b", "--rank", "2"],
     "ff_closure_a2_in_a2_b.json"),
    # closures equal to H, strictly between H and J, and equal to J
    (["ext", "ff-closure", "--gens", "ab^2", "--in-gens", "a,b^2", "--rank", "2"],
     "ff_closure_ab2_in_a_b2.json"),
    (["ext", "ff-closure", "--gens", "[a,b]", "--rank", "3"], "ff_closure_comm_ab_in_F3.json"),
    (["ext", "ff-closure", "--gens", "[a,b^2]", "--in-gens", "a,b^2", "--rank", "2"],
     "ff_closure_comm_ab2_in_a_b2.json"),
]


@pytest.mark.parametrize("argv,name", _GOLDEN_CASES, ids=[n for _, n in _GOLDEN_CASES])
def test_poset_artifacts_match_the_golden_files(capsys, argv, name):
    # stdout, summary line included, pinned byte for byte
    rc, out, err = run(capsys, *argv)
    assert (rc, err) == (0, "")
    assert out == (GOLDEN / name).read_text()


def test_ff_closure_lists_share_one_letter_numbering(capsys):
    # without --rank, --gens and --in-gens number their letters together
    def result(gens, in_gens):
        rc, out, err = run(capsys, "ext", "ff-closure", "--gens", gens, "--in-gens", in_gens)
        assert (rc, err) == (0, "")
        return json.loads(out.split("\n", 1)[1])["result"]

    pinned = (GOLDEN / "ff_closure_a2_in_a2_b.json").read_text().split("\n", 1)[1]
    assert result("a^2", "a^2,b") == json.loads(pinned)["result"]
    assert result("b^2", "a,b") == {"basis": ["b"], "rank": 1}


def test_rank_cap_exits_before_any_search(capsys):
    # the full poset reduces every pair before its first descent
    t0 = time.perf_counter()
    rc, out, err = run(capsys, "ext", "ae", "--gens", "[a,b]^2")
    assert time.perf_counter() - t0 < 5
    assert rc == 4 and out == ""
    assert err == "budget exceeded: free-factor search at image rank 5 exceeds the cap 4\n"


def test_rank_cap_refuses_a_twelve_vertex_poset_in_seconds(capsys):
    # 2,453 quotients: the first pair over the cap stops the n^2 loop of
    # morphisms, and the message names its image rank
    t0 = time.perf_counter()
    rc, out, err = run(capsys, "ext", "ae", "--gens", "aaababbabbab", "--rank", "2")
    assert time.perf_counter() - t0 < 5
    assert rc == 4 and out == ""
    assert err == "budget exceeded: free-factor search at image rank 5 exceeds the cap 4\n"


def test_pi_of_a_twelve_vertex_power_answers_in_seconds(capsys):
    # pi stops at rank 1, where <[a,b]> is algebraic, and never reaches
    # the ranks that pass the cap
    t0 = time.perf_counter()
    rc, out, err = run(capsys, "ext", "pi", "--word", "[a,b]^3")
    assert time.perf_counter() - t0 < 5
    assert (rc, err) == (0, "")
    assert json.loads(out.split("\n", 1)[1])["result"] == {
        "C": 1, "extensions": [["baBA"]], "pi": 1}


def test_inequality_under_a_twelve_vertex_image_answers_in_seconds(capsys):
    # pi_iota stops at rank 2 among the 2,225 quotients of the image graph
    t0 = time.perf_counter()
    rc, out, err = run(capsys, "mobius", "inequality", "--word", "a^3b^3", "--rank", "2",
                       "--images", "aab,b", "--image-rank", "2", "--n", "3..4")
    assert time.perf_counter() - t0 < 5
    assert (rc, err) == (0, "")
    assert out.splitlines()[-2:] == ["3,3,2,5,2,strict", "4,4,3,13,6,strict"]


def test_pi_iota_past_the_rank_cap_still_exits_4(capsys):
    # no rank under 5 holds an escaping algebraic extension, and the
    # search stops at an image of rank 5, over the cap
    rc, out, err = run(capsys, "ext", "pi-iota", "--gens", "BabA", "--rank", "2",
                       "--images", "BC,BCA", "--image-rank", "3")
    assert rc == 4 and out == ""
    assert err == "budget exceeded: free-factor search at image rank 5 exceeds the cap 4\n"


def test_perm_root_self_check_exits_5(capsys, monkeypatch):
    # a root that fails its own check is a bug, reported as one
    monkeypatch.setattr(perm_powers, "power_of_permutation", lambda p, d: tuple(range(len(p))))
    rc, out, err = run(capsys, "perm", "root", "--perm", "(1 2)(3 4)", "--degree", "4", "--d", "2")
    assert rc == 5 and out == ""
    assert err == ("internal invariant failure: constructed root to the power 2 "
                   "is not the permutation\n")


def test_power_gap_csv(capsys):
    rc, out, _ = run(
        capsys, "mobius", "power-gap", "--word", "a", "--rank", "1",
        "--d", "3", "--n", "3..5",
    )
    assert rc == 0
    assert "3,1,1,1,0,1" in out


def test_graph_export_dot(capsys):
    rc, out, _ = run(capsys, "graph", "export", "--gens", "a^2,ab", "--rank", "2")
    assert rc == 0 and out.count("->") >= 3 and "digraph" in out


def test_perm_root(capsys):
    rc, out, _ = run(
        capsys, "perm", "root", "--perm", "(1 2)(3 4)", "--degree", "4", "--d", "2"
    )
    assert rc == 0 and '"root"' in out


@pytest.mark.parametrize("degree", ["0", "-2"])
@pytest.mark.parametrize(
    "argv",
    [("cycle-type",), ("is-power", "--d", "2"), ("root", "--d", "2")],
    ids=["cycle-type", "is-power", "root"],
)
def test_perm_rejects_a_degree_below_one(capsys, argv, degree):
    rc, out, err = run(capsys, "perm", *argv, "--perm", "", "--degree", degree)
    assert rc == 2 and out == ""
    assert err == f"error: degree must be positive, got {degree}\n"


def test_perm_obstruction_requires_seed(capsys):
    rc, _, err = run(
        capsys, "perm", "obstruction", "--word", "x^2y^2", "--d", "2", "--n", "2..3"
    )
    assert rc == 2


def test_power_gap_at_negative_d_uses_divisors_of_abs_d(capsys):
    rc, out, _ = run(
        capsys, "mobius", "power-gap", "--word", "a", "--rank", "1",
        "--d", "-3", "--n", "3..5",
    )
    assert rc == 0
    assert out.splitlines()[-3:] == ["3,1,1,1,0,1", "4,1,1,1,0,1", "5,1,1,1,0,1"]


def test_power_gap_rejects_d_zero(capsys):
    rc, _, err = run(
        capsys, "mobius", "power-gap", "--word", "a", "--rank", "1",
        "--d", "0", "--n", "3..5",
    )
    assert rc == 2 and "d != 0" in err


def test_identity_word_table_on_a_large_symmetric_group(capsys):
    rc, out, _ = run(capsys, "measure", "table", "--word", "1", "--group", "S30")
    assert rc == 0 and out.splitlines()[-1] == '"' + " ".join(["1"] * 30) + '",1,1,1'


@pytest.mark.parametrize(
    "data,message",
    [
        (None, "cannot read Cayley table"),
        ({"table": [[0]]}, "lacks the 'order' key"),
        ({"order": 1}, "lacks the 'table' key"),
        ({"order": 2, "table": [[0, 1], [1, 0]], "names": ["e"]}, "1 names for a group of order 2"),
        ({"order": 2, "table": [[0, 1], [1, 0]], "names": ["e", "a", "b"]}, "3 names"),
        ({"order": 0, "table": []}, "group order 0 is below 1"),
        ({"order": 2, "table": [[0, "a"], [1, 0]]}, "malformed Cayley table JSON"),
    ],
    ids=["missing-file", "no-order", "no-table", "short-names", "long-names", "order-0",
         "wrong-type"],
)
def test_malformed_cayley_json_exits_2(capsys, tmp_path, data, message):
    path = tmp_path / "g.json"
    if data is not None:
        path.write_text(json.dumps(data))
    rc, out, err = run(capsys, "measure", "table", "--word", "x", "--group", f"cayley:{path}")
    assert rc == 2 and out == ""
    assert err.startswith("error: ") and message in err and err.count("\n") == 1


def test_mc_budget_exit_code(capsys):
    # 20,000 samples x length 4 x N = 5 is 400,000
    argv = ["measure", "trw", "--word", "[a,b]", "--n", "5", "--mc",
            "--samples", "20000", "--seed", "1"]
    assert run(capsys, *argv, "--budget", "400000")[0] == 0
    rc, out, err = run(capsys, *argv, "--budget", "399999")
    assert (rc, out) == (4, "")
    assert err == ("budget exceeded: samples x max(length, 1) x N exceeds the budget 399999 "
                   "(samples=20000, max(length, 1)=4, N=5)\n")


def test_primitive_word_table_is_costed_on_one_letter(capsys):
    # a^2b is primitive: the S9 sweep is the one-letter sweep, 9! x 1
    rc, out, _ = run(capsys, "measure", "table", "--word", "a^2b", "--group", "S9")
    rc_x, out_x, _ = run(capsys, "measure", "table", "--word", "x", "--group", "S9")
    rows = [line for line in out.splitlines() if not line.startswith("#")]
    assert (rc, rc_x) == (0, 0)
    assert rows == [line for line in out_x.splitlines() if not line.startswith("#")]
    assert len(rows) == 1 + 1 + 30  # summary, header, p(9) classes


def test_commutator_table_on_s8_comes_from_characters(capsys):
    # the sweep would cost (8!)^2 x 4 > 10^9 and exit 4; the character
    # table of S8 costs 67^2 x 8
    rc, out, err = run(capsys, "measure", "table", "--word", "[a,b]", "--group", "S8")
    rows = [line.rsplit(",", 3) for line in out.splitlines()[6:]]
    assert (rc, err) == (0, "") and len(rows) == 12  # the 12 even classes of S8
    assert sum(Fraction(int(num), int(den)) for _, num, den, _ in rows) == 1


def test_non_associative_cayley_table_exits_2(capsys, tmp_path):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"order": 3, "table": [[0, 1, 2], [1, 1, 0], [2, 0, 2]]}))
    rc, out, err = run(capsys, "measure", "table", "--word", "x", "--group", f"cayley:{path}")
    assert (rc, out) == (2, "")
    assert err == "error: associativity fails at (1,1,2)\n"
