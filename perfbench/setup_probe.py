"""Time the set-up every CLI call pays, in a fresh process.

    python3 perfbench/setup_probe.py ROOT FILE...

Imports jetcalc from ROOT/src and parses each equation file (including the
flatness checks of its coverings); prints the seconds this took.
"""

import os
import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, os.path.join(sys.argv[1], "src"))
from jetcalc.cli import parse_equation_file  # noqa: E402

for path in sys.argv[2:]:
    parse_equation_file(path)
print(time.perf_counter() - t0)
