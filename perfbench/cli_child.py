"""Traced stand-in for ``python -m ellprod.cli``.

Usage: cli_child.py SPANS_PATH ARG...

Imports ellprod.cli, wraps the library (see tracing.py), runs
``ellprod.cli.main(ARG...)`` and writes the spans to SPANS_PATH.  Stdout,
stderr and the exit code are those of the real CLI.
"""

import sys

import tracing


def main():
    spans_path, argv = sys.argv[1], sys.argv[2:]
    import ellprod.cli
    tracer = tracing.Tracer()
    tracer.install()
    tracer.job = 0
    try:
        code = ellprod.cli.main(argv)
    except SystemExit as exc:  # argparse rejects the arguments
        code = exc.code
    finally:
        tracer.job = None
        sys.stdout.flush()
        tracing.write_records(spans_path, tracer.records())
    return code


if __name__ == "__main__":
    sys.exit(main())
