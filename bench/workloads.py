"""The two workloads. Each is a sequence of rounds; a round is a timed
region followed by untimed output checks.

  reproduce   `qfridge reproduce all`, then README's grid-edge threshold and
              insulation commands, through cli.main.
  sweep-many  seeded random machines, each read once by solve_for_readout and
              swept once by sweep_hot_temperature.

A round runs under `hooks.active()`: the latency recorder on an end-to-end
run, the span tracer on a traced one. Both replace module attributes, and
library calls look the function up on its module at call time, so they see
every call the workload makes.
"""

import contextlib
import io
import json
import os
import shutil
import time

import numpy as np

import checks
from qfridge import FridgeConfig, ReservoirSpec, analysis, cli

SWEEP_POINTS = 8
ROUND_MACHINES = 50
MIN_MACHINES = 200     # so the solve p95 has at least ten samples beyond it


def _uniform_log(rng, lo, hi):
    return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))


def draw_machine(rng):
    """(config, hot-temperature grid) for one random machine.

    Gaps E1 in [0.5, 2], E2 = E1 + [1, 6], E3 resonant or detuned by 5-30%
    either way (half each); gammas in [0.2, 2]; g = 0 one time in eight, else
    log-uniform in [0.05, 2]; cold and room baths bosonic or fermionic at T_c
    in [0.5, 2], T_r = T_c [1, 3]; hot bath bosonic, fermionic or inverted
    fermionic (a third each), |T_h| in [1.5, 10] T_r or [0.1, 10] when
    inverted.
    """
    e1 = rng.uniform(0.5, 2.0)
    e2 = e1 + rng.uniform(1.0, 6.0)
    e3 = e2 - e1
    if rng.integers(2):
        e3 *= 1.0 + rng.choice((-1.0, 1.0)) * rng.uniform(0.05, 0.3)
    gammas = tuple(rng.uniform(0.2, 2.0, 3))
    coupling = 0.0 if rng.integers(8) == 0 else _uniform_log(rng, 0.05, 2.0)
    tc = rng.uniform(0.5, 2.0)
    cold = (str(rng.choice(("bosonic", "fermionic"))), tc)
    room = (str(rng.choice(("bosonic", "fermionic"))), tc * rng.uniform(1.0, 3.0))
    hot = int(rng.integers(3))          # bosonic, fermionic, inverted fermionic
    if hot == 2:
        grid = -rng.uniform(0.1, 10.0, SWEEP_POINTS + 1)
    else:
        grid = room[1] * rng.uniform(1.5, 10.0, SWEEP_POINTS + 1)
    config = FridgeConfig(
        gaps=(e1, e2, e3), gammas=gammas, coupling=coupling,
        reservoirs=(ReservoirSpec(cold[0], cold[1], "cold"),
                    ReservoirSpec(room[0], room[1], "room"),
                    ReservoirSpec("bosonic" if hot == 0 else "fermionic",
                                  float(grid[0]), "hot")))
    return config, [float(th) for th in grid[1:]]


def _cli(argv):
    """cli.main with its report lines kept off the benchmark's stdout."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _attempt(fn, *args):
    """fn's result, or the exception it raised (a failed operation)."""
    try:
        return fn(*args)
    except (ValueError, RuntimeError) as exc:
        return exc


class Reproduce:
    """A fixed CLI sequence per round."""

    def __init__(self, name, work_dir, seed):
        self.work_dir = work_dir
        self.config_path = os.path.join(work_dir, "config.json")
        os.makedirs(work_dir, exist_ok=True)
        with open(self.config_path, "w") as handle:
            json.dump(checks.REFERENCE_CONFIG, handle)

    def commands(self, out):
        config = self.config_path
        return [
            ["reproduce", "all", "--out", out],
            ["threshold", "--config", config, "--out", os.path.join(out, "threshold.csv"),
             "--direction", "positive", "--threshold-mode", "grid-edge"],
            ["insulation", "--config", config, "--out", os.path.join(out, "insulation.csv"),
             "--gamma1", "1e-1,1e-2,1e-3,1e-4"],
        ]

    def run_round(self, hooks):
        """Returns (timed seconds, check)."""
        out = os.path.join(self.work_dir, "out")
        shutil.rmtree(out, ignore_errors=True)
        os.makedirs(out)
        commands = self.commands(out)
        with hooks.active():
            start = time.perf_counter()
            codes = [_cli(argv) for argv in commands]
            wall = time.perf_counter() - start

        def check(tally):
            checks.command_exits(tally, [argv[0] for argv in commands], codes)
            checks.reproduce(tally, out)

        return wall, check


class SweepMany:
    """ROUND_MACHINES random machines per round, each solved and swept."""

    def __init__(self, name, work_dir, seed):
        self.rng = np.random.default_rng(seed)

    def run_round(self, hooks):
        machines = [draw_machine(self.rng) for _ in range(ROUND_MACHINES)]
        outcomes = []
        with hooks.active():
            start = time.perf_counter()
            for config, grid in machines:
                solved = _attempt(analysis.solve_for_readout, config)
                swept = _attempt(analysis.sweep_hot_temperature, config, grid)
                outcomes.append((config, grid, solved, swept))
            wall = time.perf_counter() - start

        def check(tally):
            for config, grid, solved, swept in outcomes:
                checks.single_solve(tally, config,
                                    solved if isinstance(solved, Exception) else solved[1])
                checks.sweep(tally, config, grid, swept)

        return wall, check


WORKLOADS = {"reproduce": Reproduce, "sweep-many": SweepMany}
MIN_ROUNDS = {"reproduce": 1, "sweep-many": MIN_MACHINES // ROUND_MACHINES}
