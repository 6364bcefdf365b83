"""What code outside the package relies on: the names the benchmark under
bench/ looks up in qfridge, the main-path solve of its sweep-many machines,
and the package's runtime dependencies.

The benchmark wraps module attributes by name and skips a name that is
missing, so a rename under src/ would silently stop timing a layer; these
tests fail instead. Each runs in a child process, so that the benchmark's
modules (checks, oracle, tracing, workloads) stay out of the test process:
hypothesis draws examples from the constants of every local module loaded.
"""

import collections
import json
import os
import subprocess
import sys

from qfridge.liouvillian import default_config

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

BENCH_PROBE = """
import json, sys
sys.path[:0] = [{src!r}, {bench!r}]
import tracing, workloads
import qfridge
from qfridge import analysis, liouvillian, thermometry

def resolves(owner, attr):
    # as tracing.patched looks a target up
    found = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    return callable(found)

print(json.dumps({{
    "targets": [[owner.__name__, attr, name, resolves(owner, attr)]
                for owner, attr, name in tracing.TARGETS],
    "latency_spans": list(tracing.LATENCY_SPANS),
    "density_matrix_check": callable(liouvillian.DensityMatrix.__dict__.get("__post_init__")),
    "solve_for_readout": callable(getattr(qfridge, "solve_for_readout", None)),
    # the result fields bench/checks.py reads
    "sweep_record_fields": [name for name in ("status", "swept_value", "t1")
                            if hasattr(analysis.SweepRecord, name)],
    "readout_fields": [name for name in ("effective_temperature",)
                       if name in thermometry.QubitReadout.__dataclass_fields__],
    "workloads": sorted(workloads.WORKLOADS),
}}))
"""


# Span targets of bench/tracing.py whose layer production no longer routes
# through: they resolve to nothing and record no spans.
RETIRED_TARGETS = [
    ["qfridge.analysis", "build_liouvillian"],
    ["qfridge.analysis", "read_qubit"],
    ["qfridge.analysis", "solve_direct"],
    ["qfridge.liouvillian", "eig_hermitian"],
    ["qfridge.steady_state", "eig_hermitian"],
    ["qfridge.steady_state", "solve_linear"],
]

TRACE_PROBE = """
import contextlib, io, json, sys
sys.path[:0] = [{src!r}, {bench!r}]
import tracing
from qfridge import cli
tracer = tracing.Tracer()
with tracer.active(), contextlib.redirect_stdout(io.StringIO()):
    code = cli.main({argv!r})
print(json.dumps({{"exit_code": code, "spans": [span[2] for span in tracer.spans]}}))
"""


SWEEP_MANY_PROBE = """
import json, sys
sys.path[:0] = [{src!r}, {bench!r}]
import numpy as np
import workloads
from qfridge import analysis, default_config, steady_state
from qfridge.liouvillian import sector_coefficients
calls = []
wide_law = steady_state._wide_law

def counted(mantissas, exponents, root=0):
    calls.append(len(mantissas))
    return wide_law(mantissas, exponents, root)

steady_state._wide_law = counted
rng = np.random.default_rng(1)
for _ in range({machines}):
    config, grid = workloads.draw_machine(rng)
    workloads._attempt(analysis.solve_for_readout, config)
    workloads._attempt(analysis.sweep_hot_temperature, config, grid)
traffic = list(calls)
# the hook counts: a row whose kappa overflows is solved wide
steady_state.solve_coefficients(*sector_coefficients(default_config(coupling=1e160)))
print(json.dumps({{"traffic": traffic, "control": calls[len(traffic):]}}))
"""


def _child(code):
    """What the Python snippet code prints as JSON, run in a fresh interpreter."""
    result = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                            capture_output=True, text=True, check=True)
    return json.loads(result.stdout)


def _traced(argv):
    """Span name -> count of a cli.main(argv) run under bench's tracer; the
    run must exit 0."""
    found = _child(TRACE_PROBE.format(src=os.path.join(ROOT, "src"),
                                      bench=os.path.join(ROOT, "bench"), argv=argv))
    assert found["exit_code"] == 0
    return collections.Counter(found["spans"])


def test_every_name_bench_looks_up_resolves():
    # tracing reads DensityMatrix.__post_init__ when it is imported,
    # setup_probe.py imports solve_for_readout from the package, and
    # checks.py reads the fields of sweep records and readouts.
    found = _child(BENCH_PROBE.format(src=os.path.join(ROOT, "src"),
                                      bench=os.path.join(ROOT, "bench")))
    unresolved = sorted([owner, attr] for owner, attr, _, resolves in found["targets"]
                        if not resolves)
    assert unresolved == RETIRED_TARGETS
    live = [name for _, _, name, resolves in found["targets"] if resolves]
    assert len(live) == 14
    assert set(found["latency_spans"]) <= set(live)
    assert found["density_matrix_check"]
    assert found["solve_for_readout"]
    assert found["sweep_record_fields"] == ["status", "swept_value", "t1"]
    assert found["readout_fields"] == ["effective_temperature"]
    assert found["workloads"] == ["reproduce", "sweep-many"]


def test_a_traced_cli_run_records_its_spans(tmp_path):
    # tracing.patched skips a name it cannot find, so a writer or dispatch
    # that stopped going through the names it wraps would silently read
    # zero for cli.files_written and the CLI layer's times.
    config = tmp_path / "config.json"
    config.write_text(json.dumps(default_config().to_dict()))
    spans = _traced(["plateau", "--config", str(config),
                     "--out", str(tmp_path / "plateau.csv")])
    assert spans["cli.main"] == 1
    assert spans["cli.write"] == 2
    assert spans["analysis.plateau"] == 1


def test_a_negative_threshold_times_its_solves(tmp_path):
    # Every single solve goes through analysis.solve_for_readout, the
    # benchmark's latency hook. The threshold itself is a closed form that
    # solves nothing; the command then solves the one saturated row whose T1
    # it writes, and that solve is traced.
    config = tmp_path / "config.json"
    config.write_text(json.dumps(default_config().to_dict()))
    spans = _traced(["threshold", "--config", str(config), "--direction", "negative",
                     "--out", str(tmp_path / "threshold.csv")])
    assert spans["analysis.threshold"] == 1
    assert spans["analysis.solve_for_readout"] == 1
    assert spans["analysis.plateau"] == 0


def test_a_traced_reproduce_all_times_25_single_solves(tmp_path):
    # The latency metrics sample every analysis.solve_for_readout call. A
    # reproduce all makes 25: the golden-section polishes of the three
    # positive plateaus and the three negative saturated rows. Stacked
    # solves (sweeps, plateau grids, the negative walk) are not sampled.
    # No production path builds a DensityMatrix: the tests alone check it.
    spans = _traced(["reproduce", "all", "--out", str(tmp_path)])
    assert spans["analysis.solve_for_readout"] == 25
    assert spans["liouvillian.density_matrix"] == 0


def test_the_sweep_many_machines_solve_no_row_wide():
    # The machines of the sweep-many workload, each given its single solve
    # and its 8-point sweep as SweepMany does, solve every stack on the main
    # path: no tree product under- or overflows, so _wide_law is never
    # called. test_cli's test_the_benchmark_commands_solve_no_row_wide
    # covers the reproduce workload.
    found = _child(SWEEP_MANY_PROBE.format(src=os.path.join(ROOT, "src"),
                                           bench=os.path.join(ROOT, "bench"), machines=200))
    assert found["traffic"] == []
    assert found["control"] == [1]


def test_the_package_needs_only_numpy_at_runtime():
    # Importing the package and its CLI loads none of the test-only
    # dependencies and none of the test oracles, and not hashlib, which
    # loads OpenSSL for FridgeConfig.config_hash alone.
    modules = _child(f"import json, sys; sys.path.insert(0, {os.path.join(ROOT, 'src')!r}); "
                     "import qfridge, qfridge.cli; print(json.dumps(sorted(sys.modules)))")
    assert "numpy" in modules
    forbidden = {"scipy", "mpmath", "hypothesis", "pytest", "oracles"}
    loaded = [m for m in modules
              if m.split(".")[0] in forbidden or m.split(".")[-1] == "oracles"]
    assert loaded == []
    assert {"hashlib", "_hashlib"}.isdisjoint(modules)
