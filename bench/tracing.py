"""Span tracing and call latencies from outside the package.

Each layer's public functions are wrapped by replacing the module attribute
its caller looks the function up by; nothing under src/ is edited. A span is
(id, parent id, name, start, end). Spans stay in memory and are written out
when the run ends. A layer that production no longer routes through simply
records no spans and reports zero calls. The end-to-end run wraps only the
two user-facing analysis calls, to time each single solve.
"""

import contextlib
import functools
import itertools
import json
import threading
import time

from qfridge import analysis, cli, liouvillian, steady_state

# (module or class, attribute, span name). Callers: the benchmark and cli
# call cli.*; cli calls the analysis functions through its own namespace;
# analysis calls itself and the solver layers through its globals.
TARGETS = [
    (cli, "main", "cli.main"),
    (cli, "_write_csv", "cli.write"),
    (cli, "_write_sidecar", "cli.write"),
    (cli, "solve_for_readout", "analysis.solve_for_readout"),
    (cli, "sweep_hot_temperature", "analysis.sweep"),
    (cli, "find_plateau", "analysis.plateau"),
    (cli, "cooling_threshold", "analysis.threshold"),
    (cli, "insulation_limit", "analysis.insulation"),
    (analysis, "solve_for_readout", "analysis.solve_for_readout"),
    (analysis, "sweep_hot_temperature", "analysis.sweep"),
    (analysis, "find_plateau", "analysis.plateau"),
    (analysis, "cooling_threshold", "analysis.threshold"),
    (analysis, "build_liouvillian", "liouvillian.build"),
    (analysis, "solve_direct", "steady_state.solve_direct"),
    (analysis, "read_qubit", "thermometry.read_qubit"),
    (liouvillian, "lindblad_rates", "reservoirs.rates"),
    (liouvillian, "eig_hermitian", "linalg.eig_hermitian"),
    (liouvillian.DensityMatrix, "__post_init__", "liouvillian.density_matrix"),
    (steady_state, "solve_linear", "linalg.solve_linear"),
    (steady_state, "eig_hermitian", "linalg.eig_hermitian"),
]

LATENCY_SPANS = ("analysis.solve_for_readout", "analysis.sweep")

# Per-layer metrics: (metric, span name, "calls" or "self_s").
LAYER_METRICS = [
    ("liouvillian.build.calls", "liouvillian.build", "calls"),
    ("liouvillian.build.self_s", "liouvillian.build", "self_s"),
    ("linalg.solve_linear.self_s", "linalg.solve_linear", "self_s"),
    ("steady_state.solve_direct.calls", "steady_state.solve_direct", "calls"),
    ("steady_state.solve_direct.self_s", "steady_state.solve_direct", "self_s"),
    ("liouvillian.density_matrix.calls", "liouvillian.density_matrix", "calls"),
    ("liouvillian.density_matrix.self_s", "liouvillian.density_matrix", "self_s"),
    ("linalg.eig_hermitian.self_s", "linalg.eig_hermitian", "self_s"),
    ("thermometry.read_qubit.self_s", "thermometry.read_qubit", "self_s"),
    ("reservoirs.rates.calls", "reservoirs.rates", "calls"),
    ("reservoirs.rates.self_s", "reservoirs.rates", "self_s"),
    ("analysis.solves", "analysis.solve_for_readout", "calls"),
    ("analysis.solve_for_readout.self_s", "analysis.solve_for_readout", "self_s"),
    ("analysis.plateau.calls", "analysis.plateau", "calls"),
    ("analysis.plateau.self_s", "analysis.plateau", "self_s"),
    ("analysis.threshold.calls", "analysis.threshold", "calls"),
    ("analysis.threshold.self_s", "analysis.threshold", "self_s"),
    ("analysis.insulation.self_s", "analysis.insulation", "self_s"),
    ("analysis.sweep.calls", "analysis.sweep", "calls"),
    ("analysis.sweep.self_s", "analysis.sweep", "self_s"),
    ("cli.main.self_s", "cli.main", "self_s"),
    ("cli.write.self_s", "cli.write", "self_s"),
    ("cli.files_written", "cli.write", "calls"),
]


@contextlib.contextmanager
def patched(wrap, spans=None):
    """Replace every target (or those named in `spans`) by wrap(name, fn)
    for the duration of the block."""
    saved = []
    for owner, attr, name in TARGETS:
        if spans is not None and name not in spans:
            continue
        original = owner.__dict__.get(attr) if isinstance(owner, type) \
            else getattr(owner, attr, None)
        if original is None:
            continue
        saved.append((owner, attr, original))
        setattr(owner, attr, wrap(name, original))
    try:
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


class Latencies:
    """Seconds per single solve_for_readout call, whoever makes it (the CLI,
    a search, the benchmark). Sweeps are wrapped only to tell a solve made
    inside one from a single solve: on the CLI's pool threads such a solve
    also waits for the other thread, which would make the solve tail a
    measure of scheduling."""

    def __init__(self):
        self.seconds = []
        self._sweeps_open = 0      # the workloads start sweeps one at a time

    def _wrap(self, name, fn):
        is_sweep = name == "analysis.sweep"

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            single = not is_sweep and not self._sweeps_open
            self._sweeps_open += is_sweep
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._sweeps_open -= is_sweep
                if single:
                    self.seconds.append(end - start)

        return timed

    def active(self):
        return patched(self._wrap, LATENCY_SPANS)


class Tracer:
    """Spans of every traced round. Metrics are per round, so that they do
    not grow with the number of rounds a faster program fits in a run."""

    def __init__(self):
        self.spans = []
        self.rounds = []           # per round, the solve_for_readout inputs
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self):
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name == "analysis.solve_for_readout":
                tracer.rounds[-1].append(args[0] if args else kwargs["config"])
            stack = tracer._stack()
            # A pool worker's first span belongs to the span the main
            # thread is blocked in (the sweep that fanned the work out).
            if stack:
                parent = stack[-1]
            else:
                parent = tracer._main_stack[-1] if tracer._main_stack else None
            span_id = next(tracer._ids)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append((span_id, parent, name, start, end))

        return traced

    def active(self):
        """Trace one round: install the wrappers for the block."""
        self.rounds.append([])
        return patched(self._wrap)

    def self_times(self):
        """name -> (calls, self seconds); self = duration minus the union of
        the intervals its children cover."""
        children = {}
        for span_id, parent, _, start, end in self.spans:
            children.setdefault(parent, []).append((start, end))
        totals = {}
        for span_id, _, name, start, end in self.spans:
            covered, reach = 0.0, start
            for c_start, c_end in sorted(children.get(span_id, ())):
                c_start, c_end = max(c_start, reach), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            calls, self_s = totals.get(name, (0, 0.0))
            totals[name] = (calls + 1, self_s + (end - start) - covered)
        return totals

    def metrics(self):
        """Per-layer metrics, each the mean over the traced rounds."""
        totals = self.self_times()
        rounds = len(self.rounds)
        out = {}
        for metric, span, field in LAYER_METRICS:
            calls, self_s = totals.get(span, (0, 0.0))
            if field == "calls":
                out[metric] = {"value": calls / rounds, "unit": "count"}
            else:
                out[metric] = {"value": self_s / rounds, "unit": "s"}
        ratios = [len({config.config_hash() for config in configs}) / len(configs)
                  for configs in self.rounds if configs]
        out["analysis.unique_solve_ratio"] = {
            "value": sum(ratios) / len(ratios) if ratios else 0.0, "unit": "ratio"}
        return out

    def write(self, path):
        with open(path, "w") as handle:
            json.dump({"fields": ["id", "parent", "name", "start_s", "end_s"],
                       "rounds": len(self.rounds), "spans": self.spans}, handle)
            handle.write("\n")
