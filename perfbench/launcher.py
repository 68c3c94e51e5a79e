"""Start one hinfgp CLI process with the benchmark's layer wrappers installed.

Usage: python3 perfbench/launcher.py SPANS_FILE <hinfgp CLI arguments>

The traced cli-cold run starts its children through this script instead of
``python -m hinfgp.cli``.  It times ``import hinfgp.cli`` as an
``import.hinfgp`` span, installs the wrappers, calls ``hinfgp.cli.main`` and
writes the spans to SPANS_FILE when the process ends.
"""

import sys
import time
from pathlib import Path

import tracing


def main() -> int:
    spans_file, *cli_args = sys.argv[1:]
    tracer = tracing.Tracer()
    began = time.perf_counter()
    import hinfgp.cli

    tracer.span("import.hinfgp", began, time.perf_counter())
    tracer.install()
    try:
        return hinfgp.cli.main(cli_args)
    finally:
        tracing.dump(tracer.spans, Path(spans_file))


if __name__ == "__main__":
    sys.exit(main())
