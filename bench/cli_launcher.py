"""Traced stand-in for `python -m wordmaps.cli`.

Usage: cli_launcher.py TRACE_OUT ARG...

Imports wordmaps.cli inside a `cli.import` span, installs the tracer's
wrappers, runs `wordmaps.cli.main(ARGS)` inside a `cli.main` span, writes
the exported trace to TRACE_OUT as JSON and exits with main's code.
Only the traced run of the benchmark uses this; untraced runs start the
plain module.
"""
import json
import sys

from tracer import Tracer


def run(trace_out: str, argv: list[str]) -> int:
    tracer = Tracer()
    cli = tracer.call("cli.import", __import__, "wordmaps.cli", fromlist=["main"])
    tracer.install()
    try:
        code = tracer.call("cli.main", cli.main, argv)
    finally:
        tracer.uninstall()
        with open(trace_out, "w") as fh:
            json.dump(tracer.export(), fh)
    return code


if __name__ == "__main__":
    sys.exit(run(sys.argv[1], sys.argv[2:]))
