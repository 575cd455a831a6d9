"""One traced CLI invocation in a fresh process: ``cli_child.py SPANS.json ARGV...``.

Imports edgeperf, installs the tracer on the library and on ``cli.run``, runs
``cli.run(ARGV)`` as ``python -m edgeperf.cli ARGV`` would, then writes the
spans and whether numpy got loaded to SPANS.json.
"""

import json
import sys

import tracing


def main():
    import edgeperf.cli as cli
    from edgeperf import energy, fitting, latency, planner, profiles
    from edgeperf.errors import EdgeperfError

    tracer = tracing.Tracer(EdgeperfError)
    modules = {"cli": cli, "energy": energy, "fitting": fitting, "latency": latency,
               "planner": planner, "profiles": profiles}
    tracer.install(modules, tracing.LIBRARY + tracing.CLI_ENTRY)
    code = cli.run(sys.argv[2:])
    sys.stdout.flush()
    with open(sys.argv[1], "w", encoding="utf-8") as fh:
        json.dump({"numpy": "numpy" in sys.modules, "spans": tracer.export()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
