"""`python -m braidhom.cli` under the tracer, for traced rep-cold runs.

    PYTHONPATH=src python3 perfbench/cli_traced.py TRACE.json rep --n 5 --m 2 --word=1,-2

Times the import of braidhom.cli, installs the tracer, runs cli.main with the
remaining arguments (stdout is the command's own output) and writes the
spans, counters and import time to TRACE.json.
"""

import json
import sys
from time import perf_counter

start = perf_counter()
import braidhom.cli  # noqa: E402

import_s = perf_counter() - start

import tracing  # noqa: E402


def main() -> int:
    trace_file, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = braidhom.cli.main(argv)
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        with open(trace_file, "w", encoding="utf-8") as handle:
            json.dump(dict(tracer.export(), import_s=import_s), handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
