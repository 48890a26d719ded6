"""The command-line surface pinned byte for byte.

`golden/cli_signature.json` records every parser (the top level, the 6
groups and the 25 subcommands): its usage line and, per action, the
dest, option strings, default, type name, required flag, choices,
nargs, const and mutually exclusive group.  `golden/cli_subcommands.json`
holds what one sample run of each subcommand prints, and
`golden/cli_usage_errors.json` the stderr and exit code of argparse
usage errors.  The width of argparse's output follows COLUMNS, so every
test here fixes it at 80.

`cli.main` builds only the subparser of the command its argv names; the
tests at the end hold that parser to the full one.
"""
import argparse
import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from test_imports import CAYLEY_Z3, SUBCOMMANDS
from wordmaps import cli

GOLDEN = Path(__file__).resolve().parent / "golden"

USAGE_ERRORS = {
    "missing-required": ["mobius", "inequality", "--word", "[a,b]", "--rank", "2",
                         "--images", "a^2,b"],
    "unknown-flag": ["measure", "trw", "--word", "x", "--n", "3", "--workers", "2"],
    "non-integer-rank": ["measure", "phi", "--gens", "a^2", "--rank", "two", "--n", "3"],
    "exact-and-mc": ["measure", "trw", "--word", "x", "--n", "3", "--exact", "--mc"],
}


@pytest.fixture(autouse=True)
def fixed_width(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")


def _parsers(parser: argparse.ArgumentParser):
    yield parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                yield from _parsers(sub)


def _action(parser: argparse.ArgumentParser, action: argparse.Action) -> dict:
    groups = parser._mutually_exclusive_groups
    return {
        "dest": action.dest,
        "option_strings": action.option_strings,
        "default": action.default,
        "type": getattr(action.type, "__name__", None),
        "required": action.required,
        "choices": None if action.choices is None else list(action.choices),
        "nargs": action.nargs,
        "const": action.const,
        "mutex": next((i for i, g in enumerate(groups) if action in g._group_actions), None),
    }


def _signature(parser: argparse.ArgumentParser) -> list:
    return [parser.prog, parser.format_usage(), [_action(parser, a) for a in parser._actions]]


def signature() -> list:
    """[prog, usage line, actions] for each parser, in parser order."""
    return [_signature(p) for p in _parsers(cli.build_parser())]


def run(argv: list[str] | None) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def run_sample(command: tuple[str, str]) -> dict:
    """The SUBCOMMANDS sample of `command`, run in the current directory
    with the Z3 Cayley table that `measure epiim` reads."""
    Path("z3.json").write_text(json.dumps(CAYLEY_Z3))
    return run([*command, *SUBCOMMANDS[command]])


def _golden(name: str):
    return json.loads((GOLDEN / name).read_text())


def test_every_parser_keeps_its_signature():
    assert signature() == _golden("cli_signature.json")


@pytest.mark.parametrize("command", sorted(SUBCOMMANDS), ids="-".join)
def test_subcommand_sample_prints_the_golden_bytes(tmp_path, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    assert run_sample(command) == _golden("cli_subcommands.json")[" ".join(command)]


@pytest.mark.parametrize("case", sorted(USAGE_ERRORS))
def test_usage_error_keeps_its_stderr_and_exit_code(case):
    assert run(USAGE_ERRORS[case]) == _golden("cli_usage_errors.json")[case]


# -- the parser main builds -------------------------------------------


@pytest.mark.parametrize("command", sorted(SUBCOMMANDS), ids="-".join)
def test_main_builds_only_the_named_subparser(monkeypatch, command):
    # its help is the full parser's, and the top level and the command
    # keep their golden signatures
    full = {p.prog: p for p in _parsers(cli.build_parser())}
    built, build = [], cli.build_parser

    def recording_build(*args):
        built.append(build(*args))
        return built[-1]

    monkeypatch.setattr(cli, "build_parser", recording_build)
    prog = " ".join(["wordmaps", *command])
    argv = [*command, "--help"]
    assert run(argv) == {"argv": argv, "exit": 0, "stdout": full[prog].format_help(), "stderr": ""}
    [parser] = built
    parsers = {p.prog: p for p in _parsers(parser)}
    assert sorted(parsers) == sorted(["wordmaps", prog, *(f"wordmaps {g}" for g in cli.GROUPS)])
    golden = {entry[0]: entry for entry in _golden("cli_signature.json")}
    assert _signature(parsers["wordmaps"]) == golden["wordmaps"]
    assert _signature(parsers[prog]) == golden[prog]


@pytest.mark.parametrize("command", sorted(SUBCOMMANDS), ids="-".join)
def test_main_without_argv_reads_sys_argv(tmp_path, monkeypatch, command):
    # as the `wordmaps` console script calls it
    monkeypatch.chdir(tmp_path)
    want = run_sample(command)
    monkeypatch.setattr(sys, "argv", ["wordmaps", *want["argv"]])
    assert run(None) == {**want, "argv": None}
