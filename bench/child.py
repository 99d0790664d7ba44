"""Fresh-interpreter import probe for the benchmark.

    python3 bench/child.py MODULE
        print the wall time of ``import MODULE``

The package is loaded from the ``src`` directory next to ``bench``.
"""

import importlib
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

t0 = time.perf_counter()
importlib.import_module(sys.argv[1])
print(repr(time.perf_counter() - t0))
