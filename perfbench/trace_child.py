"""Bootstrap for a traced ``dfb`` child process.

    python perfbench/trace_child.py <dfb arguments>

Times interpreter start (from the parent's ``DFB_BENCH_SPAWN`` clock
reading) and ``import dfblang.cli``, installs the same wrappers as the
in-process tracer, runs ``dfblang.cli.main`` and writes the aggregated
spans as JSON to ``DFB_BENCH_TRACE_OUT``. The exit code is ``main``'s.
"""

import time

STARTED = time.clock_gettime(time.CLOCK_MONOTONIC)

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    before = time.clock_gettime(time.CLOCK_MONOTONIC)
    import dfblang.cli

    import_s = time.clock_gettime(time.CLOCK_MONOTONIC) - before
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    code = 3
    try:
        code = dfblang.cli.main(sys.argv[1:])
    except SystemExit as exc:  # argparse rejected the arguments
        code = exc.code
    finally:
        dumped = tracer.dump()
        dumped["interpreter_s"] = STARTED - float(os.environ["DFB_BENCH_SPAWN"])
        dumped["import_s"] = import_s
        with open(os.environ["DFB_BENCH_TRACE_OUT"], "w", encoding="utf-8") as fh:
            json.dump(dumped, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
