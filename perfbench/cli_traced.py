"""``ngtmsv`` command line with the layer hooks installed.

Usage: ``python3 cli_traced.py SPANS_FILE <ngtmsv arguments>``. Runs the CLI
as the console script would and writes the spans to SPANS_FILE on exit.
The traced eval-cli run starts one of these per call.
"""

import sys

import tracing


def main() -> int:
    import ngtmsv.cli

    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        return ngtmsv.cli.main(sys.argv[2:])
    finally:
        tracer.dump(sys.argv[1])


if __name__ == "__main__":
    sys.exit(main())
