"""Child process for the set-up time: import qfridge, solve the given config
once, print the monotonic clock. The parent subtracts the clock it read just
before starting this process.

Usage: python3 bench/setup_probe.py <repo root> <config JSON>
"""

import json
import os
import sys
import time

sys.path.insert(0, os.path.join(sys.argv[1], "src"))

from qfridge import FridgeConfig, solve_for_readout  # noqa: E402

solve_for_readout(FridgeConfig.from_dict(json.loads(sys.argv[2])))
print(repr(time.perf_counter()))
