"""What a fresh interpreter loads, and every subcommand run as its own
process.

In-process tests share one interpreter, so a module that some earlier
test imported hides a missing import in a command.  These tests start
`python` anew for each case.
"""
import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import wordmaps
from wordmaps import cli

SRC = Path(wordmaps.__file__).resolve().parents[1]

# Every name the package exported when `__init__` imported all modules.
EXPORTS = [
    ("errors", "BudgetExceededError"),
    ("errors", "HypothesisError"),
    ("errors", "InternalInvariantError"),
    ("errors", "WordSyntaxError"),
    ("words", "Word"),
    ("words", "WhiteheadMove"),
    ("words", "cyclic_reduce"),
    ("words", "enumerate_whitehead_moves"),
    ("words", "is_dth_power_in_free"),
    ("words", "maximal_root"),
    ("words", "parse"),
    ("words", "substitute"),
    ("stallings", "CoreGraph"),
    ("stallings", "fold"),
    ("stallings", "from_generators"),
    ("stallings", "rose"),
    ("extensions", "ExtensionPoset"),
    ("extensions", "algebraic_extensions"),
    ("extensions", "ff_closure"),
    ("extensions", "is_free_factor"),
    ("extensions", "pi"),
    ("extensions", "pi_details"),
    ("extensions", "pi_iota"),
    ("extensions", "pi_of_word"),
    ("measures", "FiniteGroupTable"),
    ("measures", "MeasureComparison"),
    ("measures", "MeasureTable"),
    ("measures", "compare_measures"),
    ("measures", "epi_image"),
    ("measures", "phi_exact"),
    ("measures", "trw_exact"),
    ("measures", "trw_monte_carlo"),
    ("measures", "word_measure_exact"),
    ("mobius", "DerivationTable"),
    ("mobius", "FitResult"),
    ("mobius", "check_power_gap"),
    ("mobius", "check_substitution_inequality"),
    ("mobius", "derive_R"),
    ("mobius", "fit_expansion"),
    ("mobius", "phi_via_expansion"),
    ("perm_powers", "CycleType"),
    ("perm_powers", "cycle_type"),
    ("perm_powers", "dth_root"),
    ("perm_powers", "is_dth_power"),
    ("perm_powers", "moments_exact"),
    ("perm_powers", "parse_cycles"),
    ("perm_powers", "power_of_permutation"),
    ("perm_powers", "word_power_obstruction"),
]


def python(*args: str, cwd=None) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        env=dict(os.environ, PYTHONPATH=path),
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=120,
    )


def modules_loaded_by_cli(*argv: str, cwd=None) -> set[str]:
    """Every module loaded by `python -m wordmaps.cli ARGV`, standard
    library included, as they stand when the interpreter exits."""
    script = (
        "import atexit, json, runpy, sys; "
        "atexit.register(lambda: sys.stderr.write(json.dumps(sorted(sys.modules)))); "
        "runpy.run_module('wordmaps.cli', run_name='__main__', alter_sys=True)"
    )
    proc = python("-c", script, *argv, cwd=cwd)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stderr))


def loaded_by_cli(*argv: str, cwd=None) -> set[str]:
    """wordmaps modules loaded by `python -m wordmaps.cli ARGV`."""
    return {m for m in modules_loaded_by_cli(*argv, cwd=cwd) if m.startswith("wordmaps.")}


# Modules that no run of the CLI needs: `dataclasses` (which loads
# `inspect`, `ast`, `dis`, `tokenize`, ...) and `inspect` cost a run
# milliseconds of start-up.
UNNEEDED = {"dataclasses", "inspect"}


# -- import graph -----------------------------------------------------


def test_import_wordmaps_loads_only_errors():
    proc = python(
        "-c",
        "import json, sys, wordmaps; "
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('wordmaps'))))",
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == ["wordmaps", "wordmaps.errors"]


def test_import_wordmaps_cli_loads_only_errors_and_words():
    proc = python(
        "-c",
        "import json, sys, wordmaps.cli; "
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('wordmaps'))))",
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == ["wordmaps", "wordmaps.cli", "wordmaps.errors",
                                       "wordmaps.words"]


def test_import_wordmaps_cli_loads_neither_dataclasses_nor_inspect():
    proc = python("-c", "import json, sys, wordmaps.cli; print(json.dumps(sorted(sys.modules)))")
    assert proc.returncode == 0, proc.stderr
    assert not set(json.loads(proc.stdout)) & UNNEEDED


def function_local_imports(path: Path) -> list[str]:
    """"file:line" of each import statement inside a function body, other
    than in an `if TYPE_CHECKING:` block."""
    tree = ast.parse(path.read_text())
    allowed = {
        id(node)
        for block in ast.walk(tree)
        if isinstance(block, ast.If) and ast.unparse(block.test).endswith("TYPE_CHECKING")
        for stmt in block.body
        for node in ast.walk(stmt)
    }
    return sorted({
        f"{path.name}:{node.lineno}"
        for func in ast.walk(tree)
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        for node in ast.walk(func)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in allowed
    })


def test_no_function_local_imports():
    # a submodule is reached through the package (`wordmaps.measures`),
    # whose __getattr__ imports it on first use: the one lazy path
    files = sorted((SRC / "wordmaps").glob("*.py"))
    assert len(files) > 5
    assert [hit for path in files for hit in function_local_imports(path)] == []


# What an isinstance test of a group's kind names: the int of an S_N
# degree, the tuple of a cycle-type key, or a group class.
GROUP_KINDS = {"int", "tuple", "SymmetricGroup", "FiniteGroupTable"}


def group_kind_tests(path: Path) -> list[str]:
    """"file:function" of each function that calls isinstance with a type
    among GROUP_KINDS, naming the innermost function around the call."""
    tree = ast.parse(path.read_text())
    owner = {}
    # ast.walk visits an enclosing function before the functions inside it
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(func):
                if isinstance(node, ast.Call) and ast.unparse(node.func) == "isinstance":
                    names = {n.id if isinstance(n, ast.Name) else n.attr
                             for n in ast.walk(node.args[-1])
                             if isinstance(n, (ast.Name, ast.Attribute))}
                    if names & GROUP_KINDS:
                        owner[node] = func.name
    return sorted({f"{path.name}:{name}" for name in owner.values()})


def test_only_three_functions_test_a_groups_kind():
    # S_N and Cayley tables answer to one interface: only the coercion of
    # a degree, the character-route choice and the S_N refusal of
    # `measure epiim` may ask which kind a group is
    files = sorted((SRC / "wordmaps").glob("*.py"))
    assert [hit for path in files for hit in group_kind_tests(path)] == [
        "cli.py:cmd_measure_epiim", "measures.py:_measure_plan", "measures.py:as_group",
    ]


def test_word_root_loads_no_computing_module():
    loaded = loaded_by_cli("word", "root", "--word", "x^4")
    assert "wordmaps.words" in loaded
    assert not loaded & {
        f"wordmaps.{m}" for m in ("stallings", "extensions", "measures", "mobius", "perm_powers")
    }


def test_perm_cycle_type_loads_no_core_graph_module():
    loaded = loaded_by_cli("perm", "cycle-type", "--perm", "(1 2 3)", "--degree", "4")
    assert "wordmaps.perm_powers" in loaded
    assert not loaded & {f"wordmaps.{m}" for m in ("stallings", "extensions", "mobius")}


@pytest.mark.parametrize(
    "argv",
    [["measure", "table", "--word", "aab", "--group", "S4"],
     ["measure", "compare", "--w1", "xyXYxy", "--w2", "[x,y]", "--group", "S4"]],
    ids=["table", "compare"],
)
def test_measure_commands_load_no_core_graph_module(argv):
    # the Whitehead minimisation lives in `words`, not in `extensions`
    loaded = loaded_by_cli(*argv)
    assert {"wordmaps.words", "wordmaps.measures"} <= loaded
    assert not loaded & {f"wordmaps.{m}" for m in ("stallings", "extensions", "mobius")}


def test_every_old_export_resolves_to_its_submodule_object():
    script = f"""
import importlib, json, wordmaps
listed = set(dir(wordmaps))
star = {{}}
exec("from wordmaps import *", star)
bad = []
for module, name in {EXPORTS!r}:
    want = getattr(importlib.import_module("wordmaps." + module), name)
    if name not in listed or star.get(name) is not want or getattr(wordmaps, name) is not want:
        bad.append(name)
print(json.dumps(bad))
"""
    proc = python("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


def test_submodules_and_unknown_names():
    assert wordmaps.measures.trw_exact is wordmaps.trw_exact
    assert sorted(wordmaps.__all__) == sorted(name for _, name in EXPORTS)
    with pytest.raises(AttributeError, match="no_such_name"):
        wordmaps.no_such_name


def test_every_tracer_wrap_target_resolves():
    # bench/tracer.py wraps functions by (module, attribute) and reports a
    # name that no longer resolves as absent, so a rename here would
    # silently drop its spans from a traced benchmark run
    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    absent = []
    for module, attr, _ in tracer.TARGETS:
        owner = importlib.import_module(f"wordmaps.{module}")
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if owner is None:
            absent.append(f"{module}.{attr}")
    assert tracer.TARGETS and absent == []


# -- every subcommand in a fresh process ------------------------------

CAYLEY_Z3 = {"order": 3, "table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]]}

SUBCOMMANDS = {
    ("word", "parse"): ["--word", "xyXY"],
    ("word", "reduce"): ["--word", "yxyY"],
    ("word", "root"): ["--word", "x^4"],
    ("word", "substitute"): ["--word", "[x,y]", "--images", "a^2,b"],
    ("graph", "fold"): ["--gens", "a^2,ab"],
    ("graph", "export"): ["--gens", "a^2,ab", "--rank", "2"],
    ("ext", "ae"): ["--gens", "a^2,ab", "--rank", "2"],
    ("ext", "pi"): ["--word", "a^2", "--rank", "2"],
    ("ext", "pi-iota"): ["--gens", "[a,b]", "--rank", "2", "--images", "a^2,b"],
    ("ext", "ff-closure"): ["--gens", "a^2", "--rank", "2"],
    ("measure", "trw"): ["--word", "x^2", "--n", "2..3"],
    ("measure", "phi"): ["--gens", "a^2,ab", "--rank", "2", "--n", "2"],
    ("measure", "table"): ["--word", "x^2", "--group", "S3"],
    ("measure", "compare"): ["--w1", "[x,y]", "--w2", "xyxY", "--group", "S3"],
    ("measure", "epiim"): ["--word", "x", "--group", "cayley:z3.json"],
    ("mobius", "derive"): ["--gens", "a^2", "--rank", "1", "--n", "3"],
    ("mobius", "via-expansion"): ["--gens", "a^2", "--rank", "1", "--n", "3"],
    ("mobius", "fit"): ["--word", "a^2", "--n", "3..5"],
    ("mobius", "inequality"): ["--word", "[a,b]", "--rank", "2", "--images", "a^2,b",
                               "--n", "3"],
    ("mobius", "power-gap"): ["--word", "a", "--rank", "1", "--d", "2", "--n", "3"],
    ("perm", "cycle-type"): ["--perm", "(1 2 3)", "--degree", "4"],
    ("perm", "is-power"): ["--perm", "(1 2)(3 4)", "--degree", "4", "--d", "2"],
    ("perm", "root"): ["--perm", "(1 2)(3 4)", "--degree", "4", "--d", "2"],
    ("perm", "moments"): ["--b", "2", "--t", "2", "--n", "4"],
    ("perm", "obstruction"): ["--word", "x^2", "--d", "2", "--n", "2..3", "--seed", "0"],
}


def test_every_subcommand_has_a_fresh_process_case():
    groups = cli.build_parser()._subparsers._group_actions[0].choices
    listed = {
        (group, sub)
        for group, parser in groups.items()
        for sub in parser._subparsers._group_actions[0].choices
    }
    assert listed == set(SUBCOMMANDS)


# The wordmaps.* modules each case of SUBCOMMANDS loads, besides
# `wordmaps`, `wordmaps.errors` and `wordmaps.words`.
LOADS = {
    ("word", "parse"): "",
    ("word", "reduce"): "",
    ("word", "root"): "",
    ("word", "substitute"): "",
    ("graph", "fold"): "stallings",
    ("graph", "export"): "stallings",
    ("ext", "ae"): "stallings extensions",
    ("ext", "pi"): "stallings extensions",
    ("ext", "pi-iota"): "stallings extensions",
    ("ext", "ff-closure"): "stallings extensions",
    ("measure", "trw"): "measures stallings",
    ("measure", "phi"): "measures stallings",
    ("measure", "table"): "measures",
    ("measure", "compare"): "measures",
    ("measure", "epiim"): "measures",
    ("mobius", "derive"): "stallings extensions measures mobius",
    ("mobius", "via-expansion"): "stallings extensions measures mobius",
    ("mobius", "fit"): "stallings extensions measures mobius",
    ("mobius", "inequality"): "stallings extensions measures mobius",
    ("mobius", "power-gap"): "stallings extensions measures mobius",
    ("perm", "cycle-type"): "measures perm_powers",
    ("perm", "is-power"): "measures perm_powers",
    ("perm", "root"): "measures perm_powers",
    ("perm", "moments"): "measures perm_powers",
    ("perm", "obstruction"): "measures perm_powers",
}


@pytest.mark.parametrize("command", sorted(SUBCOMMANDS), ids="-".join)
def test_subcommand_runs_in_a_fresh_process(tmp_path, command):
    # it writes its artifact, loads exactly the wordmaps modules LOADS
    # lists, and loads neither dataclasses nor inspect
    (tmp_path / "z3.json").write_text(json.dumps(CAYLEY_Z3))
    modules = modules_loaded_by_cli(
        *command, *SUBCOMMANDS[command], "--out", "artifact", cwd=tmp_path
    )
    assert (tmp_path / "artifact").read_text().strip()
    want = {"errors", "words", *LOADS[command].split()}
    assert {m for m in modules if m.startswith("wordmaps.")} == {f"wordmaps.{m}" for m in want}
    assert not modules & UNNEEDED


@pytest.mark.parametrize("group", [None, "word", "graph", "ext", "measure", "mobius", "perm"])
def test_help_runs_in_a_fresh_process(group):
    proc = python("-m", "wordmaps.cli", *filter(None, [group]), "--help")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: wordmaps")
