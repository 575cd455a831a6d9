"""Spans around the calls into each edgeperf layer, and the per-layer metrics.

The tracer replaces public functions at their module attributes. Calls that
a module makes through its own globals are therefore traced too, which is how
``max_output_tokens`` shows its ``decode_latency`` evaluations and
``fit_piecewise`` its inner ``fit_exp_decay``/``fit_log_curve`` fits. Calls
bound by ``from ... import`` (``energy.decode_energy`` calling
``decode_latency``, ``planner`` calling ``_read_text_csv``) are not traced and
stay in the caller's self time.

Spans live in flat arrays (name, start, end, parent span, op id, error flag
and two sizes) and are written out when the run ends. Standard library only.
"""

from __future__ import annotations

import statistics
import time
from array import array


def _out_len(args, kwargs, result):
    return 0, len(result)


def _decode_sizes(args, kwargs, result):
    profile = args[0]
    output_len = args[2] if len(args) > 2 else kwargs["output_len"]
    return output_len, int(output_len >= profile.decode_power.threshold)


def _pareto_sizes(args, kwargs, result):
    return len(args[0]), len(result)


# (module, function, sizes); sizes returns (n_in, n_out) for a completed call.
LIBRARY = [
    ("profiles", "load_profiles", None),
    ("profiles", "load_measurements", _out_len),
    ("latency", "max_output_tokens", None),
    ("latency", "decode_latency", None),
    ("latency", "total_latency", None),
    ("energy", "decode_energy", _decode_sizes),
    ("energy", "total_energy", None),
    ("energy", "prefill_power", None),
    ("fitting", "fit_prefill_latency", None),
    ("fitting", "fit_decode_latency", None),
    ("fitting", "fit_log_curve", None),
    ("fitting", "fit_exp_decay", None),
    ("fitting", "fit_piecewise", None),
    ("fitting", "mape", None),
    ("planner", "load_config_table", _out_len),
    ("planner", "pareto_frontier", _pareto_sizes),
    ("planner", "best_under_latency", None),
    ("planner", "best_under_cost", None),
]
CLI_ENTRY = [("cli", "run", None)]
LAYERS = ("import", "cli", "profiles", "latency", "energy", "fitting", "planner", "harness")
_COLUMNS = ("name", "start", "end", "parent", "op", "err", "n_in", "n_out")


class Tracer:
    def __init__(self, error_type):
        self.error_type = error_type
        self.names: list[str] = []
        self.name, self.start, self.end = array("l"), array("q"), array("q")
        self.parent, self.op, self.err = array("l"), array("l"), array("b")
        self.n_in, self.n_out = array("q"), array("q")
        self.op_id = 0
        self._stack: list[int] = []
        self._undo = []

    def _name_id(self, name):
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def install(self, modules, entries):
        for mod, attr, sizes in entries:
            module = modules[mod]
            fn = getattr(module, attr)
            setattr(module, attr, self._wrap(fn, self._name_id(f"{mod}.{attr}"), sizes))
            self._undo.append((module, attr, fn))

    def uninstall(self):
        for module, attr, fn in reversed(self._undo):
            setattr(module, attr, fn)
        self._undo.clear()

    def _wrap(self, fn, nid, sizes):
        clock, stack, error_type = time.perf_counter_ns, self._stack, self.error_type
        name, start, end, parent, err = self.name, self.start, self.end, self.parent, self.err
        n_in, n_out, op = self.n_in, self.n_out, self.op

        def traced(*args, **kwargs):
            i = len(name)
            name.append(nid)
            parent.append(stack[-1] if stack else -1)
            op.append(self.op_id)
            err.append(0)
            n_in.append(0)
            n_out.append(0)
            end.append(0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except error_type:
                err[i] = 1
                raise
            finally:
                end[i] = clock()
                stack.pop()
            if sizes is not None:
                n_in[i], n_out[i] = sizes(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def export(self) -> dict:
        data = {c: getattr(self, c).tolist() for c in _COLUMNS}
        data["name"] = [self.names[i] for i in data["name"]]
        return data

    def absorb(self, data, op_id):
        """Append spans exported by another process, as op ``op_id``."""
        base = len(self.name)
        self.name.extend(self._name_id(n) for n in data["name"])
        for col in ("start", "end", "err", "n_in", "n_out"):
            getattr(self, col).extend(data[col])
        self.parent.extend(p + base if p >= 0 else -1 for p in data["parent"])
        self.op.extend(op_id for _ in data["op"])

    def write_csv(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(",".join(_COLUMNS) + "\n")
            cols = [getattr(self, c) for c in _COLUMNS]
            for row in zip(*cols):
                fh.write(",".join([self.names[row[0]]] + [str(v) for v in row[1:]]) + "\n")


class _Stats:
    __slots__ = ("durs", "busy", "self_ns", "errors", "n_in", "n_out")

    def __init__(self):
        self.durs, self.busy, self.self_ns, self.errors = array("q"), 0, 0, 0
        self.n_in, self.n_out = array("q"), array("q")


def summarize(tracer: Tracer, op_ns: int, extra_layer_ns: dict) -> tuple[dict, dict]:
    """Per-function stats and per-layer self time.

    ``op_ns`` is the traced ops' total wall time. What no root span covers is
    charged to ``harness``, or to the layers in ``extra_layer_ns`` (such as
    ``import`` for fresh CLI processes) when the caller accounts for it.
    """
    count = len(tracer.name)
    dur = array("q", (e - s for s, e in zip(tracer.start, tracer.end)))
    child = array("q", bytes(8 * count))
    for i, p in enumerate(tracer.parent):
        if p >= 0:
            child[p] += dur[i]
    stats: dict[str, _Stats] = {n: _Stats() for n in tracer.names}
    layers = dict.fromkeys(LAYERS, 0)
    roots = 0
    for i in range(count):
        fname = tracer.names[tracer.name[i]]
        st = stats[fname]
        self_ns = dur[i] - child[i]
        st.durs.append(dur[i])
        st.busy += dur[i]
        st.self_ns += self_ns
        st.errors += tracer.err[i]
        st.n_in.append(tracer.n_in[i])
        st.n_out.append(tracer.n_out[i])
        layers[fname.split(".")[0]] += self_ns
        if tracer.parent[i] < 0:
            roots += dur[i]
    for layer, ns in extra_layer_ns.items():
        layers[layer] += ns
    layers["harness"] += max(op_ns - roots - sum(extra_layer_ns.values()), 0)
    inner = {}
    for i, p in enumerate(tracer.parent):
        if p >= 0:
            key = (tracer.names[tracer.name[p]], tracer.names[tracer.name[i]])
            inner[key] = inner.get(key, 0) + 1
    return {"functions": stats, "inner": inner}, layers


def _median(values, scale):
    return statistics.median(values) / scale if values else 0.0


def per_layer_metrics(summary, layers, op_ns, imports, overhead_share):
    """Every per-layer metric, named ``<layer>.<function>.<stat>``."""
    fn = summary["functions"]
    inner = summary["inner"]
    empty = _Stats()

    def get(name):
        return fn.get(name, empty)

    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    put("import.interpreter_ms", imports["interpreter_ms"], "ms")
    put("import.numpy_ms", imports["numpy_ms"], "ms")
    put("import.edgeperf_ms", imports["edgeperf_ms"], "ms")
    put("import.numpy_loaded_share", imports["numpy_loaded_share"], "share")

    run = get("cli.run")
    put("cli.run.p50_ms", _median(run.durs, 1e6), "ms")
    put("cli.run.self_ms", run.self_ns / 1e6, "ms")

    for f in ("profiles.load_profiles", "profiles.load_measurements"):
        put(f"{f}.calls", len(get(f).durs), "count")
        put(f"{f}.busy_ms", get(f).busy / 1e6, "ms")
    put("profiles.load_measurements.rows", sum(get("profiles.load_measurements").n_out), "count")

    mot = get("latency.max_output_tokens")
    put("latency.max_output_tokens.calls", len(mot.durs), "count")
    put("latency.max_output_tokens.p50_us", _median(mot.durs, 1e3), "us")
    put("latency.max_output_tokens.busy_ms", mot.busy / 1e6, "ms")
    put("latency.max_output_tokens.errors", mot.errors, "count")
    evals = inner.get(("latency.max_output_tokens", "latency.decode_latency"), 0)
    put("latency.decode_latency.per_inversion", evals / len(mot.durs) if mot.durs else 0.0, "count")
    tl = get("latency.total_latency")
    put("latency.total_latency.calls", len(tl.durs), "count")
    put("latency.total_latency.p50_us", _median(tl.durs, 1e3), "us")

    de = get("energy.decode_energy")
    put("energy.decode_energy.calls", len(de.durs), "count")
    put("energy.decode_energy.busy_ms", de.busy / 1e6, "ms")
    put("energy.decode_energy.positions", sum(de.n_in), "count")
    log_calls = [(d, n) for d, n, branch in zip(de.durs, de.n_in, de.n_out) if branch]
    log_positions = sum(n for _, n in log_calls)
    put(
        "energy.decode_energy.ns_per_position",
        sum(d for d, _ in log_calls) / log_positions if log_positions else 0.0,
        "ns",
    )
    floor_durs = [d for d, n, branch in zip(de.durs, de.n_in, de.n_out) if not branch and n > 0]
    put("energy.decode_energy.p50_us.floor", _median(floor_durs, 1e3), "us")
    put("energy.decode_energy.p50_us.log", _median([d for d, _ in log_calls], 1e3), "us")
    te = get("energy.total_energy")
    put("energy.total_energy.calls", len(te.durs), "count")
    put("energy.total_energy.busy_ms", te.busy / 1e6, "ms")
    put("energy.total_energy.errors", te.errors, "count")

    for f in ("fit_prefill_latency", "fit_decode_latency", "fit_log_curve", "fit_exp_decay", "fit_piecewise"):
        st = get(f"fitting.{f}")
        put(f"fitting.{f}.calls", len(st.durs), "count")
        put(f"fitting.{f}.busy_ms", st.busy / 1e6, "ms")
        put(f"fitting.{f}.p50_ms", _median(st.durs, 1e6), "ms")
    pw = get("fitting.fit_piecewise")
    put("fitting.fit_piecewise.self_ms", pw.self_ns / 1e6, "ms")
    inner_fits = sum(inner.get(("fitting.fit_piecewise", f"fitting.{f}"), 0) for f in ("fit_exp_decay", "fit_log_curve"))
    put("fitting.fit_piecewise.inner_fits", inner_fits / len(pw.durs) if pw.durs else 0.0, "count")
    put("fitting.mape.calls", len(get("fitting.mape").durs), "count")
    put("fitting.mape.busy_ms", get("fitting.mape").busy / 1e6, "ms")

    lct = get("planner.load_config_table")
    put("planner.load_config_table.calls", len(lct.durs), "count")
    put("planner.load_config_table.busy_ms", lct.busy / 1e6, "ms")
    put("planner.load_config_table.rows", sum(lct.n_out), "count")
    pf = get("planner.pareto_frontier")
    points = sum(pf.n_in)
    put("planner.pareto_frontier.calls", len(pf.durs), "count")
    put("planner.pareto_frontier.busy_ms", pf.busy / 1e6, "ms")
    put("planner.pareto_frontier.points", points, "count")
    put("planner.pareto_frontier.frontier_share", sum(pf.n_out) / points if points else 0.0, "share")
    put("planner.pareto_frontier.p50_ms.small", _median([d for d, n in zip(pf.durs, pf.n_in) if n <= 100], 1e6), "ms")
    put("planner.pareto_frontier.p50_ms.large", _median([d for d, n in zip(pf.durs, pf.n_in) if n >= 1000], 1e6), "ms")
    pairs = sum(n * n for n in pf.n_in)
    put("planner.pareto_frontier.ns_per_pair", pf.busy / pairs if pairs else 0.0, "ns")
    put("planner.best_under_latency.busy_ms", get("planner.best_under_latency").busy / 1e6, "ms")
    put("planner.best_under_cost.busy_ms", get("planner.best_under_cost").busy / 1e6, "ms")

    put("trace.overhead_share", overhead_share, "share")
    for layer in LAYERS:
        put(f"{layer}.self_share", layers[layer] / op_ns if op_ns else 0.0, "share")
    return out


def top_self(summary, layers) -> dict:
    """The layer and the traced function with the most self time."""
    functions = summary["functions"]
    top_function = max(functions, key=lambda f: functions[f].self_ns) if functions else ""
    return {"top_self_layer": max(layers, key=layers.get), "top_self_function": top_function}


def parse_importtime(stderr: str) -> dict:
    """Cumulative microseconds of each top-level package in ``-X importtime`` output."""
    out = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name = parts[2].strip()
        if "." not in name:
            out[name] = out.get(name, 0) + int(parts[1])
    return out
