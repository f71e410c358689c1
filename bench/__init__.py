"""The repo benchmark: six workloads from build to serve (see bench/README.md).

Importing the package puts ``src/`` on ``sys.path`` so that
``python -m bench.run`` works from a bare checkout without PYTHONPATH.
"""

import os
import sys

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)
