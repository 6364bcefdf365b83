"""What code outside the package relies on: the names the benchmark under
bench/ looks up in qfridge, and the package's runtime dependencies.

The benchmark wraps module attributes by name and skips a name that is
missing, so a rename under src/ would silently stop timing a layer; these
tests fail instead. Each runs in a child process, so that the benchmark's
modules (checks, oracle, tracing, workloads) stay out of the test process:
hypothesis draws examples from the constants of every local module loaded.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

BENCH_PROBE = """
import json, sys
sys.path[:0] = [{src!r}, {bench!r}]
import tracing, workloads
import qfridge
from qfridge import liouvillian
print(json.dumps({{
    "latency_targets": [[owner.__name__, attr, callable(getattr(owner, attr, None))]
                        for owner, attr, name in tracing.TARGETS
                        if name in tracing.LATENCY_SPANS],
    "latency_spans": list(tracing.LATENCY_SPANS),
    "density_matrix_check": callable(liouvillian.DensityMatrix.__dict__.get("__post_init__")),
    "solve_for_readout": callable(getattr(qfridge, "solve_for_readout", None)),
    "workloads": sorted(workloads.WORKLOADS),
}}))
"""


def _child(code):
    """What the Python snippet code prints as JSON, run in a fresh interpreter."""
    result = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                            capture_output=True, text=True, check=True)
    return json.loads(result.stdout)


def test_every_name_bench_looks_up_resolves():
    # tracing reads DensityMatrix.__post_init__ when it is imported, and
    # setup_probe.py imports solve_for_readout from the package.
    found = _child(BENCH_PROBE.format(src=os.path.join(ROOT, "src"),
                                      bench=os.path.join(ROOT, "bench")))
    assert len(found["latency_targets"]) >= len(found["latency_spans"]) > 0
    unresolved = [f"{owner}.{attr}" for owner, attr, resolves in found["latency_targets"]
                  if not resolves]
    assert unresolved == []
    assert found["density_matrix_check"]
    assert found["solve_for_readout"]
    assert found["workloads"] == ["reproduce", "sweep-many"]


def test_the_package_needs_only_numpy_at_runtime():
    # Importing the package and its CLI loads none of the test-only
    # dependencies and none of the test oracles.
    modules = _child(f"import json, sys; sys.path.insert(0, {os.path.join(ROOT, 'src')!r}); "
                     "import qfridge, qfridge.cli; print(json.dumps(sorted(sys.modules)))")
    assert "numpy" in modules
    forbidden = {"scipy", "mpmath", "hypothesis", "pytest", "oracles"}
    loaded = [m for m in modules
              if m.split(".")[0] in forbidden or m.split(".")[-1] == "oracles"]
    assert loaded == []
