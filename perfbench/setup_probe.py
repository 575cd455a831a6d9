"""Time one fresh set-up: ``setup_probe.py WORKLOAD FIELD... < TEXT``.

The clock starts before ``import edgeperf`` and stops after
``default_registry()``, ``default_config_table()`` and one warm-up op. Before
it starts, the probe imports only what a fresh interpreter has loaded
already, so all of edgeperf's import work lands inside ``setup_s``. The
warm-up op comes in as data: its fields as arguments, its CSV text on stdin.
Prints ``<setup_s> <numpy loaded: 0|1>``.
"""

import sys
import time

import ops


class Op:
    pass


def main():
    workload, fields, text = sys.argv[1], sys.argv[2:], sys.stdin.read()
    op = Op()
    op.text = text
    if workload == "budget-sweep":
        model, input_len, budget, output_len, want_total, want_power = fields
        op = (model, int(input_len), float(budget), int(output_len), want_total == "1", want_power == "1")
    elif workload == "fit-batch":
        op.kind, op.phase, op.field = fields
    else:
        objectives, max_latency, max_cost = fields
        op.objectives = tuple(objectives.split(","))
        op.max_latency, op.max_cost = float(max_latency), float(max_cost)

    t0 = time.perf_counter()
    ep = ops.EdgeperfModules()
    registry = ep.edgeperf.default_registry()
    ep.edgeperf.default_config_table()
    if workload == "budget-sweep":
        ops.run_budget_op(op, ep, registry)
    elif workload == "fit-batch":
        ops.run_fit_op(op, ep)
    else:
        ops.run_frontier_op(op, ep)
    setup_s = time.perf_counter() - t0
    print(setup_s, int("numpy" in sys.modules))


if __name__ == "__main__":
    main()
