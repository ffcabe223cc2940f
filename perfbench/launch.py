"""Run one ratsemi CLI invocation and record when its phases begin and end.

Usage: python3 launch.py --src SRC --timing FILE [--trace RUN_ID]
       [--setup-only] -- <ratsemi cli arguments>

The subcommand functions in ``ratsemi.cli._COMMANDS`` are wrapped so that the
moment the subcommand is dispatched (imports done, config parsed) and the
moment it returns are read from the system-wide monotonic clock, which the
parent process shares.  With --setup-only the subcommand is not run, which
measures set-up alone.  With --trace the span hooks from spans.py are
installed first.  The timings, and the spans if any, go to FILE as JSON once
the CLI has returned.
"""
import time

LAUNCH = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402


def _wrap_command(fn, marks, tracer, setup_only):
    def command(cfg, args):
        marks["dispatch"] = time.perf_counter()
        try:
            if setup_only:
                return 0
            if tracer is not None:
                return tracer.wrap(fn, "cli.command")(cfg, args)
            return fn(cfg, args)
        finally:
            marks["return"] = time.perf_counter()

    return command


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", required=True)
    ap.add_argument("--timing", required=True)
    ap.add_argument("--trace", default=None, metavar="RUN_ID")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = ap.parse_args()
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    src = os.path.abspath(args.src)
    sys.path.insert(0, src)
    marks = {"launch": LAUNCH, "import_start": time.perf_counter()}
    from ratsemi import cli

    marks["imported"] = time.perf_counter()
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        print(f"ratsemi was imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 97

    tracer = None
    if args.trace is not None:
        import spans

        tracer = spans.Tracer(args.trace)
        spans.install(tracer)
    cli._COMMANDS = tuple(
        (name, _wrap_command(fn, marks, tracer, args.setup_only), text)
        for name, fn, text in cli._COMMANDS
    )
    code = cli.main(cli_args)
    sys.stdout.flush()
    record = {"marks": marks, "exit_code": code}
    if tracer is not None:
        record.update(tracer.dump())
    with open(args.timing, "w") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
