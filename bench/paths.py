"""Where things live, relative to the checkout the benchmark runs from."""

from __future__ import annotations

import os
from typing import Dict

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")
TMP_DIR = os.path.join(OUT_DIR, "tmp")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")


def child_env() -> Dict[str, str]:
    """The environment for processes the bench starts: library defaults
    (no ``REPRO_*`` switches) and the checkout on the module path."""
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = ROOT + os.pathsep + env.get("PYTHONPATH", "")
    return env
